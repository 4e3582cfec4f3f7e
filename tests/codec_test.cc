#include "src/codec/codec.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/msg/message.h"

namespace {

using common::DepSet;
using common::Dot;

TEST(CodecTest, PrimitivesRoundTrip) {
  codec::Writer w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.Varint(0);
  w.Varint(127);
  w.Varint(128);
  w.Varint(0xffffffffffffffffull);
  w.Bool(true);
  w.Bytes("hello");
  w.Bytes("");
  codec::Reader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.Varint(), 0u);
  EXPECT_EQ(r.Varint(), 127u);
  EXPECT_EQ(r.Varint(), 128u);
  EXPECT_EQ(r.Varint(), 0xffffffffffffffffull);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Bytes(), "hello");
  EXPECT_EQ(r.Bytes(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncatedInputPoisonsReader) {
  codec::Writer w;
  w.U64(42);
  for (size_t cut = 0; cut < 8; cut++) {
    codec::Reader r(w.buffer().data(), cut);
    r.U64();
    EXPECT_FALSE(r.ok());
  }
}

TEST(CodecTest, DepSetRoundTrip) {
  DepSet deps{Dot{0, 1}, Dot{3, 99}, Dot{2, 7}};
  codec::Writer w;
  w.Deps(deps);
  codec::Reader r(w.buffer());
  EXPECT_EQ(r.Deps(), deps);
  EXPECT_TRUE(r.ok());
}

TEST(CodecTest, CommandRoundTrip) {
  smr::Command c = smr::MakePut(7, 42, "key", std::string(3000, 'v'));
  c.more_keys = {"k2", "k3"};
  codec::Writer w;
  c.Encode(w);
  codec::Reader r(w.buffer());
  smr::Command d = smr::Command::Decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c, d);
}

// A key count larger than the bytes left cannot be honest: decoding must poison
// the reader (callers check r.ok()) instead of returning a half-read command.
TEST(CodecTest, CommandKeyCountPastTheInputPoisonsReader) {
  codec::Writer w;
  w.Varint(1);  // client
  w.Varint(2);  // seq
  w.U8(static_cast<uint8_t>(smr::Op::kMPut));
  w.Bytes("k");
  w.Varint(1000);  // more_keys count, with 2 bytes left
  w.Bytes("v");
  codec::Reader r(w.buffer());
  smr::Command c = smr::Command::Decode(r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(c.more_keys.empty());
}

// DecodeInto reuses the target's buffers: it overwrites a payload buffer in
// place only while the target is its sole holder, so a copy taken from a decoded
// sub-command (a reply, a log record, an executor hand-off) keeps its bytes when
// the same scratch decodes the next batch.
TEST(CodecTest, DecodeIntoNeverOverwritesASharedPayload) {
  auto encode = [](const smr::Command& c) {
    codec::Writer w;
    c.Encode(w);
    return w.buffer();
  };
  const std::string first(100, 'a');
  const std::string second(100, 'b');
  std::vector<uint8_t> a = encode(smr::MakePut(1, 1, "k1", first));
  std::vector<uint8_t> b = encode(smr::MakePut(1, 2, "k2", second));

  smr::Command target;
  codec::Reader ra(a);
  smr::Command::DecodeInto(ra, target);
  ASSERT_TRUE(ra.ok());
  smr::Payload held = target.value;  // a second holder of the buffer
  const char* held_bytes = held.data();

  codec::Reader rb(b);
  smr::Command::DecodeInto(rb, target);
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(target, smr::MakePut(1, 2, "k2", second));
  EXPECT_EQ(held.view(), first);  // untouched by the second decode
  EXPECT_EQ(held.data(), held_bytes);
  EXPECT_NE(target.value.data(), held_bytes);

  // Sole holder again: the next decode reuses the target's own buffer.
  const char* own = target.value.data();
  codec::Reader ra2(a);
  smr::Command::DecodeInto(ra2, target);
  EXPECT_EQ(target, smr::MakePut(1, 1, "k1", first));
  EXPECT_EQ(target.value.data(), own);
  EXPECT_EQ(held.view(), first);
}

// UnpackBatch decodes in place and leaves elements past a smaller batch's end
// constructed; a copy held from the earlier batch keeps its bytes.
TEST(CodecTest, UnpackBatchKeepsHeldPayloadsAndWarmTail) {
  std::vector<smr::Command> big_subs;
  for (uint64_t i = 1; i <= 4; i++) {
    big_subs.push_back(
        smr::MakePut(1, i, "k" + std::to_string(i), std::string(100, 'x')));
  }
  std::vector<smr::Command> scratch;
  ASSERT_EQ(smr::UnpackBatch(smr::MakeBatch(big_subs), scratch), 4u);
  smr::Payload held = scratch[0].value;

  std::vector<smr::Command> small_subs = {
      smr::MakePut(2, 9, "k9", std::string(100, 'y'))};
  ASSERT_EQ(smr::UnpackBatch(smr::MakeBatch(small_subs), scratch), 1u);
  EXPECT_EQ(scratch[0], small_subs[0]);
  EXPECT_EQ(held.view(), std::string(100, 'x'));
  ASSERT_EQ(scratch.size(), 4u);  // the warm tail stays constructed
  EXPECT_EQ(scratch[3], big_subs[3]);

  EXPECT_EQ(smr::UnpackBatch(small_subs[0], scratch), 0u);  // not a batch
}

msg::Message SampleMessage(size_t index) {
  using namespace msg;
  smr::Command cmd = smr::MakePut(1, 2, "k", "value");
  DepSet deps{Dot{0, 1}, Dot{1, 2}};
  common::Quorum q = common::Quorum::Of({0, 1, 3});
  switch (index) {
    case 0:
      return MCollect{Dot{0, 1}, cmd, deps, q, true};
    case 1:
      return MCollectAck{Dot{0, 1}, deps};
    case 2:
      return MConsensus{Dot{0, 1}, cmd, deps, 17};
    case 3:
      return MConsensusAck{Dot{0, 1}, 17};
    case 4:
      return MCommit{Dot{0, 1}, cmd, deps};
    case 5:
      return MRec{Dot{0, 1}, cmd, 23};
    case 6:
      return MRecAck{Dot{0, 1}, cmd, deps, q, 11, 23};
    case 7:
      return EpPreAccept{Dot{0, 1}, cmd, deps, 5, q, false};
    case 8:
      return EpPreAcceptAck{Dot{0, 1}, deps, 5};
    case 9:
      return EpAccept{Dot{0, 1}, cmd, deps, 5, 9};
    case 10:
      return EpAcceptAck{Dot{0, 1}, 9};
    case 11:
      return EpCommit{Dot{0, 1}, cmd, deps, 5};
    case 12:
      return EpPrepare{Dot{0, 1}, 31};
    case 13:
      return EpPrepareAck{Dot{0, 1}, cmd, deps, 5, 2, 7, 31, true};
    case 14:
      return PxForward{cmd};
    case 15:
      return PxAccept{9, 3, cmd};
    case 16:
      return PxAccepted{9, 3};
    case 17:
      return PxCommit{9, cmd};
    case 18:
      return PxPrepare{12, 4};
    case 19: {
      PxPromise p;
      p.ballot = 12;
      p.accepted.push_back(PxPromiseEntry{4, 3, cmd});
      p.accepted.push_back(PxPromiseEntry{5, 2, smr::MakeNoOp()});
      return p;
    }
    case 20:
      return PxHeartbeat{12, 88};
    case 21:
      return MnPropose{7, cmd, 10};
    case 22:
      return MnAck{7, 10};
    case 23:
      return MnCommit{7, cmd};
    case 24:
      return MnSkipRange{2, 5, 17};
    case 25:
      return ClientRequest{cmd};
    case 26:
      return ClientReply{1, 2, "result", false};
    case 27:
      return MnRevoke{7, 13};
    case 28:
      return MnRevokePromise{7, 13, 0, 1, cmd};
    case 29:
      return MnRevokeAccept{7, 13, 2, smr::MakeNoOp()};
    case 30:
      return MnRevokeAccepted{7, 13};
    case 31:
      return MnRevokeSkip{7};
    default:
      return MCollectAck{};
  }
}

TEST(CodecTest, AllMessageTypesRoundTrip) {
  constexpr size_t kTypes = std::variant_size_v<msg::Message::Body>;
  for (size_t i = 0; i < kTypes; i++) {
    msg::Message m = SampleMessage(i);
    ASSERT_EQ(m.index(), i) << "SampleMessage(" << i << ") builds wrong alternative";
    codec::Writer w;
    msg::Encode(w, m);
    codec::Reader r(w.buffer());
    msg::Message out;
    ASSERT_TRUE(msg::Decode(r, out)) << msg::TypeName(m);
    EXPECT_EQ(out.index(), i) << msg::TypeName(m);
    EXPECT_EQ(msg::EncodedSize(m), w.size());
  }
}

// The client send path encodes a ClientRequest straight from the command; the
// bytes must be exactly what the generic envelope encoder writes.
TEST(CodecTest, ClientRequestEncodesLikeTheEnvelope) {
  smr::Command cmd = smr::MakePut(9, 42, "key", std::string(300, 'v'));
  cmd.more_keys = {"a", "b"};
  codec::Writer envelope;
  msg::Encode(envelope, msg::Message{msg::ClientRequest{cmd}});
  codec::Writer direct;
  msg::EncodeClientRequest(direct, cmd);
  EXPECT_EQ(direct.buffer(), envelope.buffer());
}

// Decoding arbitrary garbage must never crash and must report failure for truncations.
TEST(CodecTest, FuzzDecodeIsSafe) {
  common::Rng rng(1234);
  for (int trial = 0; trial < 5000; trial++) {
    size_t len = rng.Below(64);
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Below(256));
    }
    codec::Reader r(buf.data(), buf.size());
    msg::Message m;
    msg::Decode(r, m);  // must not crash
  }
}

// Truncating a valid encoding at any point must fail cleanly, never crash.
TEST(CodecTest, TruncatedMessagesFailCleanly) {
  constexpr size_t kTypes = std::variant_size_v<msg::Message::Body>;
  for (size_t i = 0; i < kTypes; i++) {
    msg::Message m = SampleMessage(i);
    codec::Writer w;
    msg::Encode(w, m);
    for (size_t cut = 0; cut + 1 < w.size(); cut += std::max<size_t>(1, w.size() / 13)) {
      codec::Reader r(w.buffer().data(), cut);
      msg::Message out;
      msg::Decode(r, out);  // may fail; must not crash
    }
  }
}

}  // namespace
