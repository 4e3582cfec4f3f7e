// Wire format of the TCP runtime.
//
// Every frame on a node's port is a 4-byte little-endian length followed by a
// codec-encoded payload whose first byte is the frame kind:
//   message:          [u8 = 0][msg::Message]
//   peer hello:       [u8 = 1][u32 sender_id][u32 shard]
//   client hello:     [u8 = 2]
//   catch-up request: [u8 = 3][varint shard][varint seq_floor][bytes frontier]
//   catch-up entries: [u8 = 4][varint shard][varint count][count x (dot, cmd)]
// A peer hello names the shard whose traffic the connection carries: every
// (peer, shard) pair has its own connection, owned by that shard's worker.
// Catch-up frames carry the shard too.
#ifndef SRC_RT_WIRE_H_
#define SRC_RT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/codec/codec.h"
#include "src/common/types.h"
#include "src/smr/command.h"

namespace dur {
class ShardDurability;
}

namespace rt {
namespace wire {

constexpr uint8_t kFrameMessage = 0;
constexpr uint8_t kFramePeerHello = 1;
constexpr uint8_t kFrameClientHello = 2;
constexpr uint8_t kFrameCatchupReq = 3;
constexpr uint8_t kFrameCatchupEntries = 4;

// Sanity bound on one frame's payload; a longer length prefix closes the
// connection.
constexpr uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

// Builds a whole frame in one writer: BeginFrame reserves the length prefix at
// the writer's end and returns its offset; EndFrame fills it in.
size_t BeginFrame(codec::Writer& w);
void EndFrame(codec::Writer& w, size_t at);

// Writes all of [data, data + size) with send(..., MSG_NOSIGNAL), so a peer
// that went away surfaces as EPIPE instead of a process-killing SIGPIPE.
// False on any error; meant for blocking sockets and for a few bytes on a
// freshly connected one.
bool SendAll(int fd, const uint8_t* data, size_t size);

// Sends the peer hello for the (self -> peer, shard) connection on a freshly
// connected socket.
bool SendPeerHello(int fd, common::ProcessId self, uint32_t shard);

// Catch-up request payload (kind byte included): a restarted replica's
// reserved sequence floor and encoded executed-dot frontier for one shard.
void EncodeCatchupRequest(codec::Writer& w, uint32_t shard, uint64_t seq_floor,
                          const std::string& frontier);
struct CatchupRequest {
  uint32_t shard = 0;
  uint64_t seq_floor = 0;
  std::string frontier;
};
// Decodes the fields after the kind byte; false if malformed.
bool DecodeCatchupRequest(codec::Reader& r, CatchupRequest* out);

// Streams every record of the shard's commit log that `frontier` (an encoded
// dur::DotFrontier) does not cover, as catch-up entries payloads of at most
// 256 entries each (kind byte included). A malformed frontier decodes empty:
// the sender over-streams and the requester's admit filter drops duplicates.
void StreamCatchup(dur::ShardDurability& d, uint32_t shard,
                   const std::string& frontier,
                   const std::function<void(const std::vector<uint8_t>&)>& emit);

// Decodes a catch-up entries payload (after the kind byte) and calls
// fn(shard, dot, cmd) per entry, stopping at the first malformed one.
template <class Fn>
void ForEachCatchupEntry(codec::Reader& r, Fn&& fn) {
  uint64_t shard = r.Varint();
  uint64_t count = r.Varint();
  if (!r.ok()) {
    return;
  }
  for (uint64_t i = 0; i < count; i++) {
    common::Dot dot = r.Dot();
    smr::Command cmd = smr::Command::Decode(r);
    if (!r.ok() || !dot.valid()) {
      return;
    }
    fn(shard, dot, cmd);
  }
}

}  // namespace wire
}  // namespace rt

#endif  // SRC_RT_WIRE_H_
