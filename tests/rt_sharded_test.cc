// Sharded replicas over real TCP: 3 nodes, P=4 partitions, mixed kPut/kRmw.
//
// The same smr::Deployment assembly runs on the simulator and the TCP runtime
// (one worker thread per shard), so a fixed workload must produce the same
// replicated state on both:
//  * every (node, shard) store digest converges across the 3 TCP nodes;
//  * per-shard digests and applied counts match a simulator run of the identical
//    command script (counter parity between the two drivers);
//  * with submission batching enabled (the node's ingress window hands each
//    shard one kBatch per window) the final state is unchanged.
//
// Each client owns a disjoint key set and blocks on every call, so the per-key
// apply order is the client's program order in every run — which is what makes
// cross-driver digest comparison exact even for order-sensitive kRmw.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/rt/node.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"
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

// The fixed command script: client c's op i (1-based). Keys are client-owned
// (disjoint across clients) and cycle over 5 keys so kRmw appends stack up.
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

// Runs the identical script on the discrete-event simulator through the same
// Deployment assembly, and returns the per-(node, shard) digests/counts.
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

  // Same-site, in-order submission per client: the conflict index dependencies
  // force the per-key execution order to match the blocking TCP clients'.
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

// Brings up a 3-node loopback TCP cluster at P=4, drives the script through
// blocking clients (one thread per client), waits for every node to apply all
// commands, and returns the per-(node, shard) state.
void RunTcpCluster(common::Duration batch_window, ShardState* out) {
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(MakeOptions(batch_window)));
  }
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

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

  // Every node executes every command; wait (with a guard) for the commit
  // stream to drain everywhere before stopping the loops.
  const uint64_t expected = kClients * kOpsPerClient;
  bool drained = failures.load() == 0 && cluster.WaitApplied(expected);
  cluster.Stop();
  ASSERT_EQ(failures.load(), 0) << "client calls failed";
  EXPECT_TRUE(drained);
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node->applied_ops(), expected) << "node failed to drain";
  }

  for (uint32_t p = 0; p < kNodes; p++) {
    for (uint32_t s = 0; s < kPartitions; s++) {
      out->digests.push_back(replicas[p]->store(s).StateDigest());
      out->counts.push_back(replicas[p]->applied_count(s));
    }
  }
}

void ExpectConvergedAndMatching(const ShardState& tcp, const ShardState& ref) {
  ASSERT_EQ(tcp.digests.size(), kNodes * kPartitions);
  // Convergence: all 3 nodes agree per shard.
  for (uint32_t s = 0; s < kPartitions; s++) {
    for (uint32_t p = 1; p < kNodes; p++) {
      EXPECT_EQ(tcp.digests[p * kPartitions + s], tcp.digests[s])
          << "node " << p << " diverged on shard " << s;
      EXPECT_EQ(tcp.counts[p * kPartitions + s], tcp.counts[s])
          << "node " << p << " count mismatch on shard " << s;
    }
  }
  // Parity with the simulator driving the same assembly over the same script.
  EXPECT_EQ(tcp.digests, ref.digests);
  EXPECT_EQ(tcp.counts, ref.counts);
  // The workload really is spread over multiple partitions.
  uint32_t busy = 0;
  for (uint32_t s = 0; s < kPartitions; s++) {
    if (tcp.counts[s] > 0) {
      busy++;
    }
  }
  EXPECT_GE(busy, 2u);
}

TEST(RtShardedTest, FourPartitionsConvergeAndMatchSimulator) {
  ShardState ref = SimulatorReference();
  ShardState tcp;
  RunTcpCluster(/*batch_window=*/0, &tcp);
  if (HasFatalFailure()) {
    return;
  }
  ExpectConvergedAndMatching(tcp, ref);
}

// Ingress batching groups each shard's commands per window; grouping must not
// change the final replicated state.
TEST(RtShardedTest, BatchedSubmissionConvergesToSameState) {
  ShardState ref = SimulatorReference();
  ShardState tcp;
  RunTcpCluster(/*batch_window=*/2 * common::kMillisecond, &tcp);
  if (HasFatalFailure()) {
    return;
  }
  ExpectConvergedAndMatching(tcp, ref);
}

// Cross-partition client commands cannot be ordered by one shard; the node must
// reject them cleanly (dropped reply) instead of crashing the replica.
TEST(RtShardedTest, UnroutableClientCommandIsRejected) {
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < kNodes; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(MakeOptions(0)));
  }
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());
  Client client("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(ConnectWithRetry(client));

  // Find two keys in different partitions and span them with one kMPut.
  smr::Partitioner part(kPartitions);
  std::string other;
  for (int i = 0; other.empty() && i < 1000; i++) {
    std::string k = "x" + std::to_string(i);
    if (part.ShardOf(k) != part.ShardOf("base")) {
      other = k;
    }
  }
  ASSERT_FALSE(other.empty());
  smr::Command split = smr::MakePut(1, 1, "base", "v");
  split.op = smr::Op::kMPut;
  split.more_keys.push_back(other);
  std::string result;
  ASSERT_TRUE(client.Call(split, &result));
  EXPECT_EQ(result, "<dropped>");
  // The replica is still healthy: a routable command completes normally.
  ASSERT_TRUE(client.Call(smr::MakePut(1, 2, "base", "v"), &result));
  EXPECT_EQ(result, "");
}

}  // namespace
}  // namespace rt
