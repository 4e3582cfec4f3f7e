// Thread-per-shard runtime over real TCP: 3 nodes, P=4, one worker thread per
// shard, each owning its own connection to the same shard on every peer.
//
// The threaded tier must be a pure transport change: the same fixed command
// script produces byte-identical per-(node, shard) store digests and applied
// counts as the discrete-event simulator driving the same Deployment
// assembly. Each client owns a disjoint
// key set and blocks on every call, so the per-key apply order is the client's
// program order in every run — which is what makes the cross-driver digest
// comparison exact even for order-sensitive kRmw.
//
// The crash drill stops one shard's worker thread mid-run: the dead worker
// closes its sockets, its input is dropped (never wedging the I/O thread), no
// live worker queues frames for it, every other shard keeps committing across
// all three nodes, and full-cluster shutdown still joins cleanly (the 120s
// ctest timeout is the deadlock guard). The reset drill drops single
// (peer, shard) connections mid-traffic: the mesh re-dials them and the
// cluster still converges to the simulator's digests.
//
// The I/O-tier tests pin the two wake-up savings: workers push replies only
// for clients that submit through their node, and one ingress window per node
// turns a burst into one command per shard, pausing client sockets until the
// window closes (also when the client hangs up meanwhile).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kvs/kvs.h"
#include "src/rt/node.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"
#include "src/smr/partitioner.h"
#include "tests/rt_test_util.h"

namespace rt {
namespace {

constexpr uint32_t kNodes = 3;
constexpr uint32_t kPartitions = 4;
constexpr uint64_t kClients = 4;
constexpr uint64_t kOpsPerClient = 20;

smr::DeploymentOptions MakeOptions(common::Duration batch_window) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.n = kNodes;
  d.f = 1;
  d.partitions = kPartitions;
  d.batch_window = batch_window;
  d.batch_max = 16;
  return d;
}

// The fixed command script: client c's op i (1-based), client-owned keys
// cycling over 5 slots so kRmw appends stack up (same script as rt_sharded_test).
smr::Command ScriptedOp(uint64_t client, uint64_t i) {
  std::string key = "c" + std::to_string(client) + "-k" + std::to_string(i % 5);
  std::string value = "v" + std::to_string(i);
  return (i % 2 == 1) ? smr::MakePut(client, i, key, std::move(value))
                      : smr::MakeRmw(client, i, key, std::move(value));
}

struct ShardState {
  std::vector<uint64_t> digests;  // per (node, shard)
  std::vector<uint64_t> counts;
};

// The identical script on the discrete-event simulator through the same
// Deployment assembly (single-threaded by construction).
ShardState SimulatorReference() {
  sim::Simulator::Options opts;
  opts.seed = 7;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(5 * common::kMillisecond,
                                                           common::kMillisecond),
                     opts);
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(MakeOptions(0)));
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
    for (uint32_t s = 0; s < kPartitions; s++) {
      st.digests.push_back(replicas[p]->store(s).StateDigest());
      st.counts.push_back(replicas[p]->applied_count(s));
    }
  }
  return st;
}

// Blocking clients drive ops [first, last] of the script against `cluster`
// (client c at node c % 3). Returns false if any call failed.
bool RunScript(LoopbackCluster& cluster, uint64_t first = 1,
               uint64_t last = kOpsPerClient) {
  std::atomic<int> failures{0};
  std::vector<std::thread> client_threads;
  for (uint64_t c = 1; c <= kClients; c++) {
    client_threads.emplace_back([&, c]() {
      Client client("127.0.0.1", cluster.port(static_cast<uint32_t>(c % kNodes)));
      if (!ConnectWithRetry(client)) {
        failures.fetch_add(1);
        return;
      }
      std::string result;
      for (uint64_t i = first; i <= last; i++) {
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
  return failures.load() == 0;
}

ShardState Collect(const std::vector<std::unique_ptr<smr::Deployment>>& replicas) {
  ShardState st;
  for (uint32_t p = 0; p < kNodes; p++) {
    for (uint32_t s = 0; s < kPartitions; s++) {
      st.digests.push_back(replicas[p]->store(s).StateDigest());
      st.counts.push_back(replicas[p]->applied_count(s));
    }
  }
  return st;
}

std::vector<std::unique_ptr<smr::Deployment>> MakeReplicas(
    const smr::DeploymentOptions& opts) {
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(opts));
  }
  return replicas;
}

// Brings up a 3-node loopback cluster, drives the script through blocking
// clients, drains, and returns per-(node, shard) state.
void RunTcpCluster(common::Duration batch_window, ShardState* out) {
  auto replicas = MakeReplicas(MakeOptions(batch_window));
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());
  const uint64_t expected = kClients * kOpsPerClient;
  bool ok = RunScript(cluster) && cluster.WaitApplied(expected);
  cluster.Stop();
  ASSERT_TRUE(ok) << "client calls failed or a node failed to drain";
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node->applied_ops(), expected) << "node failed to drain";
  }
  // Workers are joined (Run returned), so per-shard state is safe to read.
  *out = Collect(replicas);
}

void ExpectConvergedAndMatching(const ShardState& got, const ShardState& ref) {
  ASSERT_EQ(got.digests.size(), kNodes * kPartitions);
  for (uint32_t s = 0; s < kPartitions; s++) {
    for (uint32_t p = 1; p < kNodes; p++) {
      EXPECT_EQ(got.digests[p * kPartitions + s], got.digests[s])
          << "node " << p << " diverged on shard " << s;
      EXPECT_EQ(got.counts[p * kPartitions + s], got.counts[s])
          << "node " << p << " count mismatch on shard " << s;
    }
  }
  EXPECT_EQ(got.digests, ref.digests);
  EXPECT_EQ(got.counts, ref.counts);
}

// The parity gate: threaded TCP == simulator, per (node, shard), digests and
// counts.
TEST(RtThreadedTest, ThreadedMatchesSimulator) {
  ShardState ref = SimulatorReference();
  ShardState threaded;
  RunTcpCluster(/*batch_window=*/0, &threaded);
  if (HasFatalFailure()) {
    return;
  }
  ExpectConvergedAndMatching(threaded, ref);
}

// Ingress batching (the I/O thread collects each shard's commands for the
// batch window and hands its worker one kBatch composite) must not change the
// final replicated state.
TEST(RtThreadedTest, ThreadedBatchedSubmissionConvergesToSameState) {
  ShardState ref = SimulatorReference();
  ShardState threaded;
  RunTcpCluster(/*batch_window=*/2 * common::kMillisecond, &threaded);
  if (HasFatalFailure()) {
    return;
  }
  ExpectConvergedAndMatching(threaded, ref);
}

// Polls `pred` for up to 10 s.
template <class Pred>
bool Eventually(Pred pred) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    usleep(10 * 1000);
  }
  return pred();
}

// Crash drill: stop one shard's worker thread on node 0 mid-run. The dead
// worker's sockets close (node 0 holds none for that shard, and its peers see
// the loss), no live worker anywhere queues a growing backlog for it, the
// other shards keep committing on ALL nodes (including node 0 — a dead shard
// must not wedge its node's I/O thread), and full shutdown joins cleanly.
TEST(RtThreadedTest, CrashedShardThreadDoesNotWedgeNodeAndJoinsCleanly) {
  auto replicas = MakeReplicas(MakeOptions(0));
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  const uint32_t dead = 2;
  smr::Partitioner part(kPartitions);
  // Keys that avoid the to-be-killed shard, for the post-crash phase, and
  // keys on it, for traffic the dead shard never answers.
  std::vector<std::string> live_keys;
  std::vector<std::string> dead_keys;
  for (int i = 0; (live_keys.size() < 8 || dead_keys.size() < 8) && i < 10000; i++) {
    std::string k = "key" + std::to_string(i);
    (part.ShardOf(k) != dead ? live_keys : dead_keys).push_back(k);
  }
  ASSERT_GE(live_keys.size(), 8u);
  ASSERT_GE(dead_keys.size(), 8u);
  auto conns = [&cluster](uint32_t node, uint32_t shard) {
    return cluster.node(node).shard_runtime()->peer_connections(shard);
  };

  const uint64_t kPhaseOps = 8;
  Client client("127.0.0.1", cluster.port(1));
  ASSERT_TRUE(ConnectWithRetry(client));
  std::string result;
  // Phase 1: ops across every shard, all healthy.
  uint64_t phase1_ok = 0;
  for (uint64_t i = 1; i <= kPhaseOps; i++) {
    phase1_ok += client.Call(ScriptedOp(1, i), &result) ? 1 : 0;
  }
  EXPECT_EQ(phase1_ok, kPhaseOps);
  EXPECT_TRUE(cluster.WaitApplied(kPhaseOps)) << "healthy phase failed to drain";
  EXPECT_EQ(conns(0, dead), kNodes - 1);

  // Kill shard `dead`'s worker on node 0 (a thread-level fault, not a
  // process crash: the node's I/O loop and other workers keep running).
  ShardRuntime* runtime = cluster.node(0).shard_runtime();
  EXPECT_TRUE(runtime->StopOne(dead)) << "StopOne should stop a running worker";
  EXPECT_FALSE(runtime->StopOne(dead)) << "second StopOne must report already-stopped";
  EXPECT_EQ(conns(0, dead), 0u) << "the dead worker kept sockets open";
  EXPECT_TRUE(Eventually([&]() { return conns(1, dead) == 1 && conns(2, dead) == 1; }))
      << "peers never saw the dead worker's sockets close";

  // Traffic the dead shard would have to absorb: 12 MiB of proposals from
  // the other nodes' coordinators (never answered, so never awaited).
  const std::string big(32 * 1024, 'b');
  for (uint32_t node : {1u, 2u}) {
    Client flood("127.0.0.1", cluster.port(node));
    ASSERT_TRUE(flood.Connect());
    for (uint64_t i = 1; i <= 200; i++) {
      ASSERT_TRUE(
          flood.Send(smr::MakePut(10 + node, i, dead_keys[i % dead_keys.size()], big)));
    }
  }

  // Phase 2: ops confined to surviving shards complete on all nodes — node 0
  // included, via commit messages its live workers still process.
  uint64_t phase2_ok = 0;
  for (uint64_t i = 0; i < kPhaseOps; i++) {
    smr::Command cmd =
        smr::MakePut(2, i + 1, live_keys[i % live_keys.size()], "after-crash");
    phase2_ok += client.Call(cmd, &result) ? 1 : 0;
  }
  EXPECT_EQ(phase2_ok, kPhaseOps);
  EXPECT_TRUE(cluster.WaitApplied(kPhaseOps * 2))
      << "post-crash phase failed to drain on all nodes";

  // No live worker holds a backlog for a reader that is gone.
  for (uint32_t node = 0; node < kNodes; node++) {
    for (uint32_t s = 0; s < kPartitions; s++) {
      EXPECT_LT(cluster.node(node).shard_runtime()->max_queued_bytes(s), 1u << 20)
          << "node " << node << " shard " << s << " queued a growing backlog";
    }
  }
  cluster.Stop();  // the clean-shutdown assertion: a wedged node hangs here
}

// Reset drill: drop single (peer, shard) connections mid-traffic, on the
// dialing side (node 0's link to node 1, shard 3) and on the accepting side
// (node 2's link to node 0, shard 1). The mesh re-dials both, every worker
// ends with its full set of peer connections, and the cluster converges to
// the simulator's digests.
//
// Frames in flight on a dropped link are lost (the TCP tier has no
// retransmission), so the engines' commit-timeout recovery is on. A lost
// commit reaches a replica outside the fast quorum only once a later commit
// from the same coordinator reveals the gap (Atlas's identifier-gap watch), so
// the script runs in two halves: the resets land in the first, and the second,
// on the re-formed mesh, sends later commits from every coordinator and shard
// the first used (each half cycles through every key of every client).
TEST(RtThreadedTest, DroppedShardConnectionIsRedialedAndClusterConverges) {
  ShardState ref = SimulatorReference();
  smr::DeploymentOptions opts = MakeOptions(0);
  opts.commit_timeout = 300 * common::kMillisecond;
  opts.recovery_scan_interval = 100 * common::kMillisecond;
  opts.recovery_retry_interval = 200 * common::kMillisecond;
  auto replicas = MakeReplicas(opts);
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  auto conns = [&cluster](uint32_t node, uint32_t shard) {
    return cluster.node(node).shard_runtime()->peer_connections(shard);
  };
  const uint64_t half = kOpsPerClient / 2;
  // The re-dial backoff (50 ms first) leaves each dropped link down long
  // enough for a 1 ms poll to see it go.
  bool saw_drops = false;
  std::thread chaos([&]() {
    cluster.WaitApplied(kClients * half / 2);
    cluster.node(0).ResetPeerConnection(1, 3);
    cluster.node(2).ResetPeerConnection(0, 1);
    bool drop_a = false;
    bool drop_b = false;
    for (int i = 0; i < 5000 && !(drop_a && drop_b); i++) {
      drop_a = drop_a || conns(0, 3) < kNodes - 1;
      drop_b = drop_b || conns(2, 1) < kNodes - 1;
      usleep(1000);
    }
    saw_drops = drop_a && drop_b;
  });
  bool ok = RunScript(cluster, 1, half);
  chaos.join();
  bool remeshed = Eventually([&]() {
    for (uint32_t node = 0; node < kNodes; node++) {
      for (uint32_t s = 0; s < kPartitions; s++) {
        if (conns(node, s) != kNodes - 1) {
          return false;
        }
      }
    }
    return true;
  });
  const uint64_t expected = kClients * kOpsPerClient;
  ok = ok && RunScript(cluster, half + 1, kOpsPerClient) && cluster.WaitApplied(expected);
  // Evidence for a failed drill: where each node stopped, and its mesh.
  std::string state;
  for (uint32_t node = 0; node < kNodes; node++) {
    state += " node " + std::to_string(node) + ": applied " +
             std::to_string(cluster.node(node).applied_ops()) + ", conns";
    for (uint32_t s = 0; s < kPartitions; s++) {
      state += " " + std::to_string(conns(node, s));
    }
    state += ";";
  }
  cluster.Stop();
  EXPECT_TRUE(saw_drops) << "the reset connections never went down";
  EXPECT_TRUE(remeshed) << "a dropped shard connection was never re-dialed";
  ASSERT_TRUE(ok) << "client calls failed or a node failed to drain:" << state;
  ExpectConvergedAndMatching(Collect(replicas), ref);
}

// Reply routing: every replica executes every command, but only the node the
// client talks to has anyone to answer. With all traffic through one client
// connection at node 0, node 0's workers push exactly one output per command
// and nodes 1 and 2 push none, while every replica still applies everything
// and converges to the simulator's state. A client that then joins at node 2
// reads what was written through node 0.
TEST(RtThreadedTest, OnlyTheClientsNodePushesReplies) {
  ShardState ref = SimulatorReference();
  auto replicas = MakeReplicas(MakeOptions(0));
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());
  auto pushed = [&cluster](uint32_t node) {
    return cluster.node(node).shard_runtime()->outputs_pushed();
  };

  const uint64_t ops = kClients * kOpsPerClient;
  Client client("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(ConnectWithRetry(client));
  std::string result;
  uint64_t ok = 0;
  for (uint64_t c = 1; c <= kClients; c++) {
    for (uint64_t i = 1; i <= kOpsPerClient; i++) {
      ok += client.Call(ScriptedOp(c, i), &result) ? 1 : 0;
    }
  }
  EXPECT_EQ(ok, ops);
  EXPECT_TRUE(cluster.WaitApplied(ops));
  EXPECT_EQ(pushed(0), ops);
  EXPECT_EQ(pushed(1), 0u);
  EXPECT_EQ(pushed(2), 0u);

  // Client 1's script replayed on a local store gives the value to expect.
  const std::string key = "c1-k1";
  kvs::KvStore local;
  for (uint64_t i = 1; i <= kOpsPerClient; i++) {
    local.Apply(ScriptedOp(1, i));
  }
  const std::string written = local.Apply(smr::MakeGet(1, 0, key));
  ASSERT_FALSE(written.empty());
  Client reader("127.0.0.1", cluster.port(2));
  ASSERT_TRUE(reader.Connect());
  ASSERT_TRUE(reader.Call(smr::MakeGet(kClients + 1, 1, key), &result));
  EXPECT_EQ(result, written);
  EXPECT_TRUE(cluster.WaitApplied(ops + 1));
  cluster.Stop();
  EXPECT_EQ(pushed(0), ops);
  EXPECT_EQ(pushed(1), 0u);
  EXPECT_EQ(pushed(2), 1u);

  // The read applied on every replica too: one more op on its key's shard.
  const uint32_t key_shard = smr::Partitioner(kPartitions).ShardOf(key);
  for (uint32_t p = 0; p < kNodes; p++) {
    ref.counts[p * kPartitions + key_shard]++;
  }
  ExpectConvergedAndMatching(Collect(replicas), ref);
}

// One ingress window per node: a back-to-back burst of 8 puts per shard lands
// in one 50 ms window (the connection is paused after its first delivery and
// read again when the window closes), so each worker gets a single kBatch:
// every replica executes exactly one engine-level command per shard, and
// every reply comes back.
TEST(RtThreadedTest, BurstWithinOneWindowIsOneCommandPerShard) {
  auto replicas = MakeReplicas(MakeOptions(50 * common::kMillisecond));
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  constexpr size_t kPerShard = 8;
  smr::Partitioner part(kPartitions);
  std::vector<std::vector<std::string>> keys(kPartitions);
  size_t filled = 0;
  for (int i = 0; filled < kPartitions && i < 10000; i++) {
    std::string k = "burst" + std::to_string(i);
    std::vector<std::string>& shard_keys = keys[part.ShardOf(k)];
    if (shard_keys.size() < kPerShard) {
      shard_keys.push_back(k);
      filled += shard_keys.size() == kPerShard ? 1 : 0;
    }
  }
  ASSERT_EQ(filled, kPartitions);

  Client client("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(ConnectWithRetry(client));
  uint64_t sent = 0;
  for (size_t j = 0; j < kPerShard; j++) {
    for (uint32_t s = 0; s < kPartitions; s++) {
      ASSERT_TRUE(client.Send(smr::MakePut(1, ++sent, keys[s][j], "v")));
    }
  }
  uint64_t replies = 0;
  uint64_t seq = 0;
  std::string result;
  while (replies < sent && client.RecvReply(&seq, &result)) {
    replies++;
  }
  EXPECT_EQ(replies, sent);
  EXPECT_TRUE(cluster.WaitApplied(sent));
  cluster.Stop();
  for (uint32_t p = 0; p < kNodes; p++) {
    EXPECT_EQ(replicas[p]->stats().executed, kPartitions)
        << "node " << p << " did not get one batch per shard";
  }
}

// A client that hangs up while its connection is paused (mid-window) is
// noticed when the window closes and reaped; its command still applies on
// every replica, and the node keeps serving other clients.
TEST(RtThreadedTest, ClientClosingMidWindowIsReapedAndNodeKeepsServing) {
  auto replicas = MakeReplicas(MakeOptions(50 * common::kMillisecond));
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  Client other("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(ConnectWithRetry(other));
  std::string result;
  // A first round trip: node 0's engine runs, so the next command is batched.
  ASSERT_TRUE(other.Call(smr::MakePut(2, 1, "other", "up"), &result));
  {
    Client gone("127.0.0.1", cluster.port(0));
    ASSERT_TRUE(gone.Connect());
    ASSERT_TRUE(gone.Send(smr::MakePut(1, 1, "gone", "sent")));
  }  // closes well inside the 50 ms window its command opened
  EXPECT_TRUE(cluster.WaitApplied(2));
  uint64_t ok = 0;
  for (uint64_t seq = 2; seq <= 5; seq++) {
    ok += other.Call(smr::MakePut(2, seq, "other", "v" + std::to_string(seq)),
                     &result)
              ? 1
              : 0;
  }
  EXPECT_EQ(ok, 4u);
  ASSERT_TRUE(other.Call(smr::MakeGet(2, 6, "gone"), &result));
  EXPECT_EQ(result, "sent");
  EXPECT_TRUE(cluster.WaitApplied(7));
  cluster.Stop();
}

}  // namespace
}  // namespace rt
