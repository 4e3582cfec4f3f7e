#include "src/rt/wire.h"

#include <sys/socket.h>

#include <cerrno>

#include "src/dur/frontier.h"
#include "src/dur/shard_durability.h"

namespace rt {
namespace wire {

size_t BeginFrame(codec::Writer& w) {
  size_t at = w.size();
  w.U32(0);
  return at;
}

void EndFrame(codec::Writer& w, size_t at) {
  w.PatchU32(at, static_cast<uint32_t>(w.size() - at - 4));
}

bool SendAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      size -= static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

bool SendPeerHello(int fd, common::ProcessId self, uint32_t shard) {
  codec::Writer w;
  size_t at = BeginFrame(w);
  w.U8(kFramePeerHello);
  w.U32(self);
  w.U32(shard);
  EndFrame(w, at);
  return SendAll(fd, w.buffer().data(), w.size());
}

void EncodeCatchupRequest(codec::Writer& w, uint32_t shard, uint64_t seq_floor,
                          const std::string& frontier) {
  w.U8(kFrameCatchupReq);
  w.Varint(shard);
  w.Varint(seq_floor);
  w.Bytes(frontier);
}

bool DecodeCatchupRequest(codec::Reader& r, CatchupRequest* out) {
  out->shard = static_cast<uint32_t>(r.Varint());
  out->seq_floor = r.Varint();
  out->frontier = r.Bytes();
  return r.ok();
}

void StreamCatchup(dur::ShardDurability& d, uint32_t shard,
                   const std::string& frontier,
                   const std::function<void(const std::vector<uint8_t>&)>& emit) {
  dur::DotFrontier have;
  codec::Reader fr(reinterpret_cast<const uint8_t*>(frontier.data()),
                   frontier.size());
  have.DecodeFrom(fr);
  constexpr size_t kEntriesPerFrame = 256;
  codec::Writer entries;
  codec::Writer frame;
  size_t count = 0;
  auto flush = [&]() {
    if (count == 0) {
      return;
    }
    frame.Clear();
    frame.U8(kFrameCatchupEntries);
    frame.Varint(shard);
    frame.Varint(count);
    frame.Raw(entries.buffer().data(), entries.size());
    emit(frame.buffer());
    entries.Clear();
    count = 0;
  };
  d.StreamMissing(have, [&](const common::Dot& dot, const smr::Command& cmd) {
    entries.Dot(dot);
    cmd.EncodeTo(entries);
    if (++count >= kEntriesPerFrame) {
      flush();
    }
  });
  flush();
}

}  // namespace wire
}  // namespace rt
