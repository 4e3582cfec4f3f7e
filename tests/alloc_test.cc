// Locks in the PR's core invariant: steady-state message delivery through the
// simulator performs no per-message heap allocation. Global operator new/delete are
// overridden in this binary to count allocations; after a warmup pass (slot pool,
// event queue, and engine scratch reach their high-water marks) a burst of
// submit->broadcast->deliver traffic must allocate (almost) nothing.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/epaxos/epaxos.h"
#include "src/paxos/multipaxos.h"
#include "src/rt/node.h"
#include "src/rt/shard_runtime.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"
#include "src/smr/sharded_engine.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

void* operator new(size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace sim {
namespace {

using common::DepSet;
using common::Dot;
using common::ProcessId;

class BroadcastEngine final : public smr::Engine {
 public:
  void Submit(smr::Command cmd) override {
    msg::MCommit m;
    m.cmd = std::move(cmd);
    m.dot = Dot{self_, ++seq_};
    m.deps = DepSet{Dot{0, 1}, Dot{1, 2}, Dot{2, 3}};
    for (ProcessId p = 0; p < n_; p++) {
      if (p != self_) {
        SendTo(p, m);
      }
    }
  }
  void OnMessage(ProcessId from, const msg::Message& m) override { received_++; }

 private:
  uint64_t seq_ = 0;
  uint64_t received_ = 0;
};

TEST(AllocTest, SteadyStateDeliveryIsAllocationFree) {
  Simulator::Options opts;
  opts.seed = 3;
  Simulator sim(std::make_unique<UniformLatency>(common::kMillisecond, 0), opts);
  std::vector<BroadcastEngine> engines(5);
  for (auto& e : engines) {
    sim.AddEngine(&e);
  }
  sim.Start();

  // Warmup: grow the slot pool, queue, and FIFO bookkeeping to their high-water
  // marks. Keys/values are small (SSO), deps fit the DepSet inline buffer.
  for (uint64_t i = 1; i <= 200; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  uint64_t delivered_before = sim.messages_delivered();
  for (uint64_t i = 1000; i < 2000; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  uint64_t delivered = sim.messages_delivered() - delivered_before;

  EXPECT_EQ(delivered, 4000u);  // 4 peers x 1000 submits
  // Zero is the design target; allow a little slack for one-off container growth so
  // the test does not depend on libstdc++ internals.
  EXPECT_LE(allocs, 8u) << "steady-state deliveries allocated " << allocs
                        << " times for " << delivered << " messages";
}

// Discards engine output; lets us drive an engine directly and count only its own
// allocations (no simulator, no delivery queue).
class NullContext final : public smr::Context {
 public:
  void Send(common::ProcessId to, msg::Message m) override {}
  common::Time Now() const override { return 0; }
  void SetTimer(common::Duration delay, uint64_t token) override {}
  void Executed(const common::Dot& dot, const smr::Command& cmd) override {}
};

// Pins the PxPromise fix (ROADMAP hot-path item): answering Paxos phase 1 over a long
// log must reuse the engine's promise scratch instead of growing a fresh
// accepted-entry vector per prepare. Warm steady state: one sized allocation for the
// copy into the send envelope, nothing per entry.
TEST(AllocTest, PaxosPromiseReusesAcceptedScratch) {
  paxos::Config cfg;
  cfg.n = 3;
  cfg.f = 1;
  cfg.initial_leader = 0;
  paxos::PaxosEngine engine(cfg);
  NullContext ctx;
  engine.Bind(/*self=*/1, /*n=*/3, &ctx);
  engine.OnStart();

  // Fill the log as a follower: 256 accepted-but-uncommitted slots. Keys/values are
  // SSO-small so entry copies never need the heap.
  const uint64_t kSlots = 256;
  for (uint64_t slot = 0; slot < kSlots; slot++) {
    msg::PxAccept acc;
    acc.slot = slot;
    acc.ballot = common::InitialBallot(0);
    acc.cmd = smr::MakePut(1, slot + 1, "k", "v");
    engine.OnMessage(0, acc);
  }

  // Warmup prepare: grows the scratch to its high-water mark.
  common::Ballot ballot = 100;
  msg::PxPrepare prep;
  prep.ballot = ballot;
  prep.from_slot = 0;
  engine.OnMessage(0, prep);

  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kPrepares = 50;
  for (uint64_t i = 1; i <= kPrepares; i++) {
    prep.ballot = ballot + i * 3;  // strictly increasing, owned by process 2
    engine.OnMessage(0, prep);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Per prepare: one sized vector allocation when the promise is copied into the send
  // envelope. The old code added a growth sequence (~log2(slots) reallocations) per
  // prepare on top.
  EXPECT_LE(allocs, kPrepares * 3) << "phase-1 promises allocated " << allocs
                                   << " times for " << kPrepares << " prepares over "
                                   << kSlots << " slots";
}

// Pins the EPaxos DotMap migration (ROADMAP known-allocation: the last engine on
// hash-map nodes). A replica processing the pre-accept -> commit -> execute stream
// for a steady series of commands must not allocate per command: infos_ slots are
// recycled on execution and seqnos_ grows only on amortized table rehashes —
// unordered_map allocated two fresh hash nodes per command here.
TEST(AllocTest, EPaxosReplicaSteadyStateIsAllocationFree) {
  epaxos::Config cfg;
  cfg.n = 3;
  epaxos::EPaxosEngine engine(cfg);
  NullContext ctx;
  engine.Bind(/*self=*/1, /*n=*/3, &ctx);
  engine.OnStart();

  auto drive_one = [&engine](uint64_t seq) {
    common::Dot dot{0, seq};
    smr::Command cmd = smr::MakePut(1, seq, "key42", "value");
    msg::EpPreAccept pre;
    pre.dot = dot;
    pre.cmd = cmd;
    pre.seqno = seq;
    engine.OnMessage(0, pre);
    msg::EpCommit commit;
    commit.dot = dot;
    commit.cmd = cmd;
    commit.seqno = seq;
    engine.OnMessage(0, commit);  // empty deps: executes immediately, erases infos_
  };

  // Warmup: tables and executor scratch reach their high-water marks.
  for (uint64_t seq = 1; seq <= 512; seq++) {
    drive_one(seq);
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kCommands = 1000;
  for (uint64_t seq = 1000; seq < 1000 + kCommands; seq++) {
    drive_one(seq);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Only seqnos_ growth remains (it keeps every command's sequence number): a
  // couple of rehashes across 1000 commands, not two nodes per command.
  EXPECT_LE(allocs, 16u) << "EPaxos replica path allocated " << allocs
                         << " times for " << kCommands << " commands";
}

// Pins the leader-side pre-accept ack aggregation: a full EPaxos cluster round
// (Submit -> EpPreAccept fan-out -> acks back -> fast-path commit -> execute) must
// not allocate per command on any replica. The command leader used to store every
// EpPreAcceptAck in a per-Info vector until the quorum completed (1-2 vector
// growths per command); acks are now folded into running aggregates (union /
// max / all-match) on arrival, so the whole protocol round is allocation-free
// modulo amortized table growth.
TEST(AllocTest, EPaxosLeaderQuorumPathIsAllocationFree) {
  Simulator::Options opts;
  opts.seed = 7;
  Simulator sim(std::make_unique<UniformLatency>(common::kMillisecond, 0), opts);
  epaxos::Config cfg;
  cfg.n = 3;
  std::vector<std::unique_ptr<epaxos::EPaxosEngine>> engines;
  for (uint32_t i = 0; i < cfg.n; i++) {
    engines.push_back(std::make_unique<epaxos::EPaxosEngine>(cfg));
    sim.AddEngine(engines.back().get());
  }
  sim.Start();

  // Same-key commands: every round carries a real dependency chain, so the acks
  // the leader aggregates have non-empty deps (the case the old code buffered).
  for (uint64_t i = 1; i <= 512; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kCommands = 1000;
  for (uint64_t i = 1000; i < 1000 + kCommands; i++) {
    sim.Submit(0, smr::MakePut(1, i, "key42", "value"));
    sim.RunUntilIdle();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Remaining: amortized seqnos_/executed-set growth across three replicas. The
  // old leader-side ack vector alone was ~2 allocations per command.
  EXPECT_LE(allocs, 64u) << "EPaxos cluster rounds allocated " << allocs
                         << " times for " << kCommands << " commands";
}

// Pins the refcounted payload pool (src/smr/payload.h): values beyond the inline
// small-buffer threshold land in pooled PayloadBufs that are recycled once the
// last holder drops its reference — copying a Payload bumps a refcount instead of
// duplicating bytes, and steady-state Make() reuses a quiesced slot's capacity.
TEST(AllocTest, PayloadPoolRecyclesLargeValueBuffers) {
  smr::PayloadPool pool;
  std::string big(4096, 'x');  // far beyond Payload::kInlineMax
  auto cycle = [&pool, &big](uint64_t seq) {
    smr::Payload p = pool.Make(big);
    smr::Payload copy = p;  // refcount bump, no byte duplication
    smr::Command cmd = smr::MakePut(1, seq, "k", "v");
    cmd.value = std::move(copy);  // ride through a Command like the flush path
    // cmd, copy, p all die here; the pooled buffer quiesces back to refcount 1.
  };
  for (uint64_t i = 1; i <= 64; i++) {
    cycle(i);  // warmup: pool slots reach their high-water capacity
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kRounds = 1000;
  for (uint64_t i = 100; i < 100 + kRounds; i++) {
    cycle(i);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, 8u) << "pooled payload cycling allocated " << allocs
                        << " times for " << kRounds << " rounds";
}

// Pins the kBatch encode-scratch reuse (ROADMAP known-allocation): flushing a
// submission batch encodes through the shard's reused writer, so steady-state
// flushes allocate only the composite's own payload string and key-union vector,
// not a fresh growth sequence of encode buffers per flush.
TEST(AllocTest, BatchEncodeReusesPerShardScratch) {
  // Inner sink engine: swallows submissions (the protocol round is exercised
  // elsewhere; here only the wrapper's batching path is under test).
  class SinkEngine final : public smr::Engine {
   public:
    void Submit(smr::Command cmd) override { submitted_++; }
    void OnMessage(common::ProcessId from, const msg::Message& m) override {}

   private:
    uint64_t submitted_ = 0;
  };

  smr::ShardedOptions so;
  so.partitions = 2;
  so.batch_window = common::kMillisecond;
  so.batch_max = 8;
  smr::ShardedEngine engine(so, [](uint32_t) { return std::make_unique<SinkEngine>(); });
  NullContext ctx;
  engine.Bind(/*self=*/0, /*n=*/3, &ctx);
  engine.OnStart();

  // 8 SSO keys that all route to one shard: every 8th Submit flushes a full batch.
  smr::Partitioner part(so.partitions);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 8 && i < 10000; i++) {
    std::string k = "k" + std::to_string(i);
    if (part.ShardOf(k) == 0) {
      keys.push_back(k);
    }
  }
  ASSERT_EQ(keys.size(), 8u);

  auto flush_once = [&engine, &keys](uint64_t round) {
    for (size_t i = 0; i < keys.size(); i++) {
      engine.Submit(smr::MakePut(1, round * 8 + i + 1, keys[i], "value"));
    }
  };
  for (uint64_t round = 1; round <= 32; round++) {
    flush_once(round);  // warmup: writer + pending buffers reach high-water marks
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kFlushes = 100;
  for (uint64_t round = 100; round < 100 + kFlushes; round++) {
    flush_once(round);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  // Per flush: one sized more_keys vector. The composite's payload now comes from
  // the wrapper's PayloadPool (the inner engine drops the batch, quiescing the
  // buffer for reuse); before the pool it was a fresh heap string per flush, and
  // before the writer scratch a ~log2(payload) growth sequence on top.
  EXPECT_LE(allocs, kFlushes * 2) << "batch flushes allocated " << allocs
                                  << " times for " << kFlushes << " flushes";
}

// Pins the drop path's unpack scratch: a dropped kBatch unpacks into the
// caller's reused vector (the shard worker's, the harness's), not into a fresh
// vector per drop.
TEST(AllocTest, DroppedBatchUnpacksIntoCallerScratch) {
  smr::Deployment dep(smr::DeploymentOptions{});
  std::vector<smr::Command> subs(16, smr::MakePut(1, 0, "key42", "value"));
  for (uint64_t i = 0; i < subs.size(); i++) {
    subs[i].seq = i + 1;
  }
  smr::Command batch = smr::MakeBatch(subs);
  std::vector<smr::Command> scratch;
  uint64_t seen = 0;
  auto count = [&seen](const smr::Command&) { seen++; };
  dep.ForEachDropped(batch, scratch, count);  // warmup: scratch reaches 16 slots
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kDrops = 1000;
  for (uint64_t i = 0; i < kDrops; i++) {
    dep.ForEachDropped(batch, scratch, count);
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(seen, subs.size() * (kDrops + 1));
  EXPECT_LE(allocs, 8u) << kDrops << " warm batch drops allocated " << allocs
                        << " times";
}

// Pins in-place batch decoding at benchmark-sized values: applying a warm
// 16-command batch of 100-byte puts decodes every sub-command into the caller's
// scratch, reusing its key strings and unshared payload buffers, so it does not
// allocate (decoding into fresh Commands cost a payload buffer and its string
// per sub-command). The store's own kBatch path (kvs::KvStore::Apply) is pinned
// the same way.
TEST(AllocTest, LargeValueBatchesDecodeInPlace) {
  smr::Deployment dep(smr::DeploymentOptions{});
  std::vector<smr::Command> subs;
  for (uint64_t i = 1; i <= 16; i++) {
    subs.push_back(smr::MakePut(1, i, "key" + std::to_string(i),
                                std::string(100, static_cast<char>('a' + i))));
  }
  smr::Command batch = smr::MakeBatch(subs);
  std::vector<smr::Command> scratch;
  uint64_t replies = 0;
  auto reply = [&replies](uint32_t, const smr::Command&, std::string&&) {
    replies++;
  };
  auto apply_once = [&]() {
    dep.ApplyExecuted(0, common::Dot{}, batch, scratch, reply);
    dep.store(0).Apply(batch);
  };
  apply_once();  // warmup: scratch, its payload buffers and the store's keys
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t kBatches = 1000;
  for (uint64_t i = 0; i < kBatches; i++) {
    apply_once();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(replies, subs.size() * (kBatches + 1));
  EXPECT_LE(allocs, 8u) << kBatches << " warm 16 x 100-byte batches allocated "
                        << allocs << " times";
}

// Pins the threaded runtime's mailbox edges to the same recycled-slot
// discipline as the simulator's event pool: moving inputs through a bounded
// SPSC ring (src/rt/mailbox.h) must not heap-allocate per item once the ring's
// resident slots are warm. Items are ShardInput envelopes carrying real
// submissions — the exact type the I/O thread pushes — cycled through the
// ring the way the routing/worker pair does (several in flight, so distinct
// slots wrap).
TEST(AllocTest, MailboxSteadyStateIsAllocationFree) {
  rt::Mailbox<rt::ShardInput> box(8);

  // Four in-flight envelopes, as a busy I/O thread would keep: each carries a
  // put with SSO-small key/value.
  std::vector<rt::ShardInput> inflight(4);
  for (uint64_t i = 0; i < inflight.size(); i++) {
    inflight[i].kind = rt::ShardInput::Kind::kSubmit;
    inflight[i].cmd = smr::MakePut(1, i + 1, "key42", "value");
  }

  auto cycle = [&box, &inflight]() {
    for (auto& in : inflight) {
      ASSERT_TRUE(box.TryPush(in));
    }
    for (auto& in : inflight) {
      ASSERT_TRUE(box.TryPop(in));  // moved back out into the same envelope
    }
  };

  for (int i = 0; i < 64; i++) {
    cycle();  // warmup: resident slots absorb the payload buffers
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const int kCycles = 1000;
  for (int i = 0; i < kCycles; i++) {
    cycle();
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, 8u) << "mailbox push/pop allocated " << allocs << " times for "
                        << kCycles * inflight.size() << " submission transits";
}

// Pins the client send path: once its frame buffer is warm, rt::Client::Send
// encodes straight into it and writes it — no per-call copy of the command,
// no fresh writer or vectors.
TEST(AllocTest, ClientSendIsAllocationFreeOnceWarm) {
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 1), 0);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  rt::Client client("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.Connect());
  int server = accept(lfd, nullptr, nullptr);
  ASSERT_GE(server, 0);

  // A payload past the small-string size, so a copy of the command would allocate.
  smr::Command cmd = smr::MakePut(1, 1, "key42", std::string(200, 'v'));
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(client.Send(cmd));
  }
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const int kSends = 200;  // ~45 KB: the socket buffers absorb it unread
  for (int i = 0; i < kSends; i++) {
    ASSERT_TRUE(client.Send(cmd));
  }
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << kSends << " warm sends allocated " << allocs << " times";
  close(server);
  close(lfd);
}

}  // namespace
}  // namespace sim
