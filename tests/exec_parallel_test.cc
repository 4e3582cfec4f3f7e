// Parallel execution pipeline tests: the ordering/execution split must be
// invisible in replicated state.
//
// Three layers of evidence, mirroring how the pipeline is composed:
//
//   * direct drive: a GraphExecutor emitting straight into an ExecPool
//     (ReadySink seam) over a LanedStore — per-command results and the final
//     digest must match inline application of the same emission order, at
//     every lane count, including an all-one-key conflict storm that degrades
//     the pool to sequential;
//   * whole cluster: 3-node loopback TCP with thread-per-shard workers, at
//     P in {1, 4} and E in {0, 1, 2, 4} (E=0: no executor pool, the shard
//     worker applies inline), must converge to byte-identical per-(node,
//     shard) digests and applied counts as the single-threaded simulator
//     reference — for Atlas, EPaxos and Mencius;
//   * crash drill: killing one executor lane mid-run must not wedge its shard
//     worker, its node, or the cluster; commands on surviving lanes keep
//     completing everywhere and shutdown joins cleanly.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/exec_pool.h"
#include "src/exec/graph_executor.h"
#include "src/exec/laned_store.h"
#include "src/kvs/kvs.h"
#include "src/rt/node.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"
#include "tests/rt_test_util.h"

namespace exec {
namespace {

// ---------------------------------------------------------------------------
// Direct drive: GraphExecutor -> ReadySink -> ExecPool over a LanedStore.
// ---------------------------------------------------------------------------

struct DirectResult {
  uint64_t digest = 0;
  std::map<uint64_t, std::string> replies;  // seq -> value (seqs unique)
};

// Emits `cmds` in order through a GraphExecutor (empty deps: emission order ==
// commit order) into an ExecPool with `lanes` workers; waits for quiescence.
DirectResult RunPooled(const std::vector<smr::Command>& cmds, uint32_t lanes) {
  DirectResult res;
  LanedStore store(lanes);
  ExecPool::Options po;
  po.lanes = lanes;
  po.mailbox_capacity = 64;  // small rings: exercise the backpressure path
  po.on_completion = [&res](uint64_t client, uint64_t seq, std::string&& value) {
    (void)client;
    res.replies[seq] = std::move(value);
  };
  ExecPool pool(&store, po);
  GraphExecutor executor(BatchOrder::kDot, &pool);
  pool.Start();
  uint64_t seq = 0;
  for (const smr::Command& cmd : cmds) {
    executor.Commit(common::Dot{0, ++seq}, cmd, common::DepSet());
  }
  pool.WaitIdle();
  pool.Stop();
  res.digest = store.StateDigest();
  return res;
}

// Inline reference: same commands, flat store, sequential.
DirectResult RunInline(const std::vector<smr::Command>& cmds) {
  DirectResult res;
  kvs::KvStore store;
  for (const smr::Command& cmd : cmds) {
    std::string value = store.Apply(cmd);
    if (cmd.client != 0) {
      res.replies[cmd.seq] = std::move(value);
    }
  }
  res.digest = store.StateDigest();
  return res;
}

// No convenience constructors exist for the multi-key ops; build them by hand.
smr::Command MakeMPutCmd(uint64_t client, uint64_t seq, std::string key,
                         std::vector<std::string> more, std::string value) {
  smr::Command c;
  c.client = client;
  c.seq = seq;
  c.op = smr::Op::kMPut;
  c.key = std::move(key);
  c.more_keys = std::move(more);
  c.value = std::move(value);
  return c;
}

smr::Command MakeScanCmd(uint64_t client, uint64_t seq, std::string key,
                         std::vector<std::string> more) {
  smr::Command c;
  c.client = client;
  c.seq = seq;
  c.op = smr::Op::kScan;
  c.key = std::move(key);
  c.more_keys = std::move(more);
  return c;
}

std::vector<smr::Command> MixedWorkload(size_t n, uint32_t key_space,
                                        uint32_t hot_percent) {
  std::vector<smr::Command> cmds;
  uint64_t rng = 88172645463325252ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (uint64_t i = 1; i <= n; i++) {
    uint64_t r = next();
    std::string key = (r % 100) < hot_percent
                          ? "hot"
                          : "k" + std::to_string(next() % key_space);
    std::string value = "v" + std::to_string(i);
    // kRmw returns the previous value: any reordering of same-key commands
    // would change some reply, so replies pin per-key order exactly.
    smr::Command cmd = (r % 3 == 0)
                           ? smr::MakeRmw(/*client=*/1, i, key, std::move(value))
                           : smr::MakePut(/*client=*/1, i, key, std::move(value));
    cmds.push_back(std::move(cmd));
  }
  return cmds;
}

TEST(ExecPoolTest, DirectDriveMatchesInlineAtEveryLaneCount) {
  std::vector<smr::Command> cmds = MixedWorkload(4000, 64, /*hot_percent=*/10);
  DirectResult ref = RunInline(cmds);
  for (uint32_t lanes : {1u, 2u, 4u}) {
    DirectResult got = RunPooled(cmds, lanes);
    EXPECT_EQ(got.digest, ref.digest) << "digest diverged at E=" << lanes;
    EXPECT_EQ(got.replies, ref.replies) << "a reply diverged at E=" << lanes;
  }
}

TEST(ExecPoolTest, ConflictStormSerializesOnOneLane) {
  // Every command hits one key: all 4 lanes but one idle, per-key order (and
  // thus every kRmw reply) must still match the sequential reference exactly.
  std::vector<smr::Command> cmds = MixedWorkload(4000, 1, /*hot_percent=*/100);
  DirectResult ref = RunInline(cmds);
  DirectResult got = RunPooled(cmds, 4);
  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.replies, ref.replies);
}

TEST(ExecPoolTest, CrossLaneCommandsBarrierAndMatchInline) {
  // Multi-key commands spanning lanes (kMPut + kScan over 8 spread keys):
  // applied through the quiesce-and-decompose barrier, results must match the
  // flat store, and the barrier count must be visible.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 8 && i < 1000; i++) {
    keys.push_back("s" + std::to_string(i));
  }
  std::vector<smr::Command> cmds = MixedWorkload(1000, 32, 0);
  uint64_t seq = 100000;
  for (int round = 0; round < 20; round++) {
    std::vector<std::string> more(keys.begin() + 1, keys.end());
    cmds.push_back(MakeMPutCmd(/*client=*/2, ++seq, keys[0], more,
                               "x" + std::to_string(round)));
    cmds.push_back(MakeScanCmd(/*client=*/2, ++seq, keys[0], more));
  }
  DirectResult ref = RunInline(cmds);

  LanedStore store(4);
  DirectResult got;
  ExecPool::Options po;
  po.lanes = 4;
  po.mailbox_capacity = 64;
  po.on_completion = [&got](uint64_t, uint64_t seq_done, std::string&& value) {
    got.replies[seq_done] = std::move(value);
  };
  ExecPool pool(&store, po);
  pool.Start();
  std::vector<smr::Command> scratch;
  for (const smr::Command& cmd : cmds) {
    pool.Execute(cmd, scratch);
  }
  pool.WaitIdle();
  pool.Stop();
  got.digest = store.StateDigest();

  EXPECT_EQ(got.digest, ref.digest);
  EXPECT_EQ(got.replies, ref.replies);
  EXPECT_GT(pool.cross_lane_barriers(), 0u);
}

TEST(ExecPoolTest, LanedStoreDigestEqualsFlatStoreDigest) {
  // The decomposition the whole pipeline rests on: XOR of lane digests equals
  // the flat digest bit for bit, at every lane count.
  std::vector<smr::Command> cmds = MixedWorkload(2000, 128, 5);
  kvs::KvStore flat;
  for (const smr::Command& cmd : cmds) {
    flat.Apply(cmd);
  }
  for (uint32_t lanes : {1u, 2u, 3u, 4u, 8u}) {
    LanedStore laned(lanes);
    for (const smr::Command& cmd : cmds) {
      laned.Apply(cmd);
    }
    EXPECT_EQ(laned.StateDigest(), flat.StateDigest()) << "E=" << lanes;
    size_t total = 0;
    for (uint32_t l = 0; l < lanes; l++) {
      total += static_cast<const kvs::KvStore&>(laned.lane_store(l)).size();
    }
    EXPECT_EQ(total, flat.size()) << "E=" << lanes;
  }
}

// ---------------------------------------------------------------------------
// Whole cluster: threaded TCP, with and without executor pools, vs simulator
// reference.
// ---------------------------------------------------------------------------

constexpr uint32_t kNodes = 3;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kClients = 4;
constexpr uint64_t kOpsPerClient = 16;

smr::DeploymentOptions MakeOptions(smr::Protocol protocol, uint32_t partitions,
                                   size_t executor_threads) {
  smr::DeploymentOptions d;
  d.protocol = protocol;
  d.n = kNodes;
  d.f = 1;
  d.partitions = partitions;
  d.executor_threads = executor_threads;
  return d;
}

// Fixed script, client-owned keys (per-key order == client program order, so
// the cross-driver digest comparison is exact even for order-sensitive kRmw).
smr::Command ScriptedOp(uint64_t client, uint64_t i) {
  std::string key = "c" + std::to_string(client) + "-k" + std::to_string(i % 5);
  std::string value = "v" + std::to_string(i);
  return (i % 2 == 1) ? smr::MakePut(client, i, key, std::move(value))
                      : smr::MakeRmw(client, i, key, std::move(value));
}

struct ShardState {
  std::vector<uint64_t> digests;
  std::vector<uint64_t> counts;
};

ShardState SimulatorReference(smr::Protocol protocol, uint32_t partitions,
                              size_t executor_threads) {
  sim::Simulator::Options opts;
  opts.seed = 11;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(5 * common::kMillisecond,
                                                           common::kMillisecond),
                     opts);
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(
        MakeOptions(protocol, partitions, executor_threads)));
    sim.AddEngine(&replicas[i]->engine());
  }
  std::vector<smr::Command> scratch;
  sim.SetExecutedHandler([&](common::ProcessId p, const common::Dot& dot,
                             const smr::Command& cmd) {
    replicas[p]->ApplyExecuted(replicas[p]->ShardOfCmd(cmd), dot, cmd, scratch,
                               [](uint32_t, const smr::Command&, std::string&&) {});
  });
  sim.Start();
  for (uint64_t c = 1; c <= kClients; c++) {
    for (uint64_t i = 1; i <= kOpsPerClient; i++) {
      sim.Submit(static_cast<common::ProcessId>(c % kNodes), ScriptedOp(c, i));
    }
  }
  sim.RunUntilIdle();

  ShardState st;
  for (uint32_t p = 0; p < kNodes; p++) {
    for (uint32_t s = 0; s < partitions; s++) {
      st.digests.push_back(replicas[p]->store(s).StateDigest());
      st.counts.push_back(replicas[p]->applied_count(s));
    }
  }
  return st;
}

void RunTcpCluster(smr::Protocol protocol, uint32_t partitions, size_t executor_threads,
                   ShardState* out) {
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(
        MakeOptions(protocol, partitions, executor_threads)));
  }
  rt::LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> client_threads;
  for (uint64_t c = 1; c <= kClients; c++) {
    client_threads.emplace_back([&, c]() {
      rt::Client client("127.0.0.1", cluster.port(static_cast<uint32_t>(c % kNodes)));
      if (!rt::ConnectWithRetry(client)) {
        failures.fetch_add(1);
        return;
      }
      std::string result;
      for (uint64_t i = 1; i <= kOpsPerClient; i++) {
        if (!client.Call(ScriptedOp(c, i), &result)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : client_threads) {
    t.join();
  }

  const uint64_t expected = kClients * kOpsPerClient;
  bool drained = failures.load() == 0 && cluster.WaitApplied(expected);
  cluster.Stop();
  ASSERT_EQ(failures.load(), 0) << "client calls failed";
  EXPECT_TRUE(drained);
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node->applied_ops(), expected) << "node failed to drain";
  }
  for (uint32_t p = 0; p < kNodes; p++) {
    for (uint32_t s = 0; s < partitions; s++) {
      out->digests.push_back(replicas[p]->store(s).StateDigest());
      out->counts.push_back(replicas[p]->applied_count(s));
    }
  }
}

void ExpectParity(smr::Protocol protocol, uint32_t partitions) {
  SCOPED_TRACE("P=" + std::to_string(partitions));
  // Inline (plain store) and laned (inline-over-lanes) simulator references
  // must agree — the store decomposition changes nothing single-threadedly.
  ShardState inline_ref = SimulatorReference(protocol, partitions, 0);
  ShardState laned_ref = SimulatorReference(protocol, partitions, 4);
  ASSERT_EQ(laned_ref.digests, inline_ref.digests);
  ASSERT_EQ(laned_ref.counts, inline_ref.counts);
  // The TCP runtime, applying inline (E=0) or through executor pools at every
  // lane count, == the reference.
  for (size_t threads : {0u, 1u, 2u, 4u}) {
    ShardState got;
    RunTcpCluster(protocol, partitions, threads, &got);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    EXPECT_EQ(got.digests, inline_ref.digests)
        << "digest diverged at E=" << threads;
    EXPECT_EQ(got.counts, inline_ref.counts)
        << "applied counts diverged at E=" << threads;
  }
}

TEST(ExecParallelClusterTest, AtlasDigestParityAcrossExecutorThreads) {
  for (uint32_t partitions : {1u, kPartitions}) {
    ExpectParity(smr::Protocol::kAtlas, partitions);
  }
}

TEST(ExecParallelClusterTest, EPaxosDigestParityAcrossExecutorThreads) {
  for (uint32_t partitions : {1u, kPartitions}) {
    ExpectParity(smr::Protocol::kEPaxos, partitions);
  }
}

TEST(ExecParallelClusterTest, MenciusDigestParityAcrossExecutorThreads) {
  for (uint32_t partitions : {1u, kPartitions}) {
    ExpectParity(smr::Protocol::kMencius, partitions);
  }
}

// ---------------------------------------------------------------------------
// Crash drill: a dead executor lane must not wedge the shard, node or cluster.
// ---------------------------------------------------------------------------

TEST(ExecParallelClusterTest, CrashedExecutorLaneDoesNotWedgeNode) {
  constexpr size_t kLanes = 2;
  constexpr uint32_t kDeadLane = 1;
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(
        MakeOptions(smr::Protocol::kAtlas, kPartitions, kLanes)));
  }
  rt::LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  // Keys that avoid the doomed lane (lane routing is the same stable hash on
  // every node), so post-crash commands apply — and count — everywhere.
  LanedStore router(kLanes);
  std::vector<std::string> live_keys;
  for (int i = 0; live_keys.size() < 8 && i < 10000; i++) {
    std::string k = "live" + std::to_string(i);
    if (router.LaneOfKey(k) != kDeadLane) {
      live_keys.push_back(k);
    }
  }
  ASSERT_GE(live_keys.size(), 8u);

  const uint64_t kPhaseOps = 8;
  rt::Client client("127.0.0.1", cluster.port(1));
  ASSERT_TRUE(rt::ConnectWithRetry(client));
  std::string result;
  // Phase 1: all lanes healthy.
  uint64_t phase1_ok = 0;
  for (uint64_t i = 1; i <= kPhaseOps; i++) {
    phase1_ok += client.Call(ScriptedOp(1, i), &result) ? 1 : 0;
  }
  EXPECT_EQ(phase1_ok, kPhaseOps);
  EXPECT_TRUE(cluster.WaitApplied(kPhaseOps)) << "healthy phase failed to drain";

  // Kill lane kDeadLane of shard 0's pool on node 0. The shard worker,
  // its other lane, the node's I/O loop all stay up.
  rt::ShardRuntime* runtime = cluster.node(0).shard_runtime();
  EXPECT_TRUE(runtime->StopOneExecutor(0, kDeadLane))
      << "StopOneExecutor should stop a running lane";
  EXPECT_FALSE(runtime->StopOneExecutor(0, kDeadLane))
      << "second StopOneExecutor must report dead lane";

  // Phase 2: surviving-lane keys complete on every node.
  uint64_t phase2_ok = 0;
  for (uint64_t i = 0; i < kPhaseOps; i++) {
    smr::Command cmd =
        smr::MakePut(2, i + 1, live_keys[i % live_keys.size()], "after-crash");
    phase2_ok += client.Call(cmd, &result) ? 1 : 0;
  }
  EXPECT_EQ(phase2_ok, kPhaseOps);
  EXPECT_TRUE(cluster.WaitApplied(kPhaseOps * 2))
      << "post-crash phase failed to drain on all nodes";
  cluster.Stop();  // the clean-shutdown assertion: a wedged worker hangs here
}

}  // namespace
}  // namespace exec
