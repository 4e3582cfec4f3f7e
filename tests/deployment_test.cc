// Replica assembly (smr::Deployment): the single construction site both drivers
// (simulator harness, TCP runtime) build replicas through.
//
//  * P=1 assembly is byte-identical to hand-built seed engines: a seeded run
//    produces exactly the same message/byte/stats counters (extending the
//    determinism pins, which run the full harness through Deployment);
//  * P>1 assembly is identical to a hand-rolled ShardedEngine;
//  * executed/committed/dropped demultiplexing unpacks kBatch composites onto
//    the right per-shard stores with correct applied counts.
#include "src/smr/deployment.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/atlas.h"
#include "src/sim/simulator.h"
#include "src/smr/sharded_engine.h"

namespace {

using common::ProcessId;

struct Counters {
  uint64_t delivered = 0;
  uint64_t bytes = 0;
  std::vector<smr::EngineStats> per_site;
};

enum class Build { kBareSeed, kHandRolledSharded, kDeployment };

// Drives a 3-site Atlas triad with a seeded submission mix and returns its
// counters. kBareSeed constructs engines exactly as the seed did; kDeployment
// goes through the assembly layer; kHandRolledSharded wires a ShardedEngine by
// hand (what harness/cluster.cc used to do before Deployment).
Counters RunTriad(Build build, uint32_t partitions) {
  sim::Simulator::Options opts;
  opts.seed = 99;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(10 * common::kMillisecond,
                                                           common::kMillisecond),
                     opts);
  auto make_atlas = [] {
    atlas::Config cfg;
    cfg.n = 3;
    cfg.f = 1;
    return std::make_unique<atlas::AtlasEngine>(cfg);
  };
  std::vector<std::unique_ptr<smr::Engine>> engines;
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (int i = 0; i < 3; i++) {
    switch (build) {
      case Build::kBareSeed:
        engines.push_back(make_atlas());
        break;
      case Build::kHandRolledSharded: {
        smr::ShardedOptions so;
        so.partitions = partitions;
        engines.push_back(std::make_unique<smr::ShardedEngine>(
            so, [&make_atlas](uint32_t) { return make_atlas(); }));
        break;
      }
      case Build::kDeployment: {
        smr::DeploymentOptions d;
        d.protocol = smr::Protocol::kAtlas;
        d.n = 3;
        d.f = 1;
        d.partitions = partitions;
        replicas.push_back(std::make_unique<smr::Deployment>(std::move(d)));
        break;
      }
    }
  }
  for (auto& e : engines) {
    sim.AddEngine(e.get());
  }
  for (auto& r : replicas) {
    sim.AddEngine(&r->engine());
  }
  sim.Start();

  common::Rng rng(4242);
  for (uint64_t i = 1; i <= 150; i++) {
    ProcessId site = static_cast<ProcessId>(i % 3);
    std::string key = rng.Chance(0.2) ? "shared" : "k" + std::to_string(i % 10);
    sim.Submit(site, smr::MakePut(100 + site, i, key, "value"));
    if (i % 5 == 0) {
      sim.RunFor(5 * common::kMillisecond);
    }
  }
  sim.RunUntilIdle();

  Counters c;
  c.delivered = sim.messages_delivered();
  c.bytes = sim.bytes_sent();
  for (auto& e : engines) {
    c.per_site.push_back(e->stats());
  }
  for (auto& r : replicas) {
    c.per_site.push_back(r->stats());
  }
  return c;
}

void ExpectSameCounters(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.per_site.size(), b.per_site.size());
  for (size_t i = 0; i < a.per_site.size(); i++) {
    EXPECT_EQ(a.per_site[i].submitted, b.per_site[i].submitted) << "site " << i;
    EXPECT_EQ(a.per_site[i].committed, b.per_site[i].committed) << "site " << i;
    EXPECT_EQ(a.per_site[i].executed, b.per_site[i].executed) << "site " << i;
    EXPECT_EQ(a.per_site[i].fast_paths, b.per_site[i].fast_paths) << "site " << i;
    EXPECT_EQ(a.per_site[i].slow_paths, b.per_site[i].slow_paths) << "site " << i;
    EXPECT_EQ(a.per_site[i].messages_sent, b.per_site[i].messages_sent)
        << "site " << i;
  }
}

TEST(DeploymentTest, P1AssemblyMatchesSeedEnginesExactly) {
  Counters bare = RunTriad(Build::kBareSeed, 1);
  Counters assembled = RunTriad(Build::kDeployment, 1);
  ExpectSameCounters(bare, assembled);
  EXPECT_GT(bare.per_site[0].committed, 0u);
}

TEST(DeploymentTest, ShardedAssemblyMatchesHandRolledShardedEngine) {
  Counters hand = RunTriad(Build::kHandRolledSharded, 4);
  Counters assembled = RunTriad(Build::kDeployment, 4);
  ExpectSameCounters(hand, assembled);
}

TEST(DeploymentTest, ApplyExecutedRoutesToPerShardStores) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.partitions = 4;
  smr::Deployment dep(std::move(d));

  // Find two keys in different shards.
  std::string key_a = "a0";
  std::string key_b;
  for (int i = 0; key_b.empty() && i < 1000; i++) {
    std::string k = "b" + std::to_string(i);
    if (dep.partitioner().ShardOf(k) != dep.partitioner().ShardOf(key_a)) {
      key_b = k;
    }
  }
  ASSERT_FALSE(key_b.empty());
  uint32_t shard_a = dep.partitioner().ShardOf(key_a);
  uint32_t shard_b = dep.partitioner().ShardOf(key_b);

  std::vector<std::pair<uint32_t, smr::Command>> seen;
  std::vector<smr::Command> scratch;
  // The simulator's routing: a caller of the top-level engine passes ShardOfCmd.
  auto apply = [&dep, &seen, &scratch](const smr::Command& cmd) {
    dep.ApplyExecuted(dep.ShardOfCmd(cmd), common::Dot{}, cmd, scratch,
                      [&seen](uint32_t shard, const smr::Command& sub, std::string&&) {
                        seen.emplace_back(shard, sub);
                      });
  };
  apply(smr::MakePut(1, 1, key_a, "va"));
  apply(smr::MakePut(1, 2, key_b, "vb"));

  // A batch (all sub-commands shard-local by construction) unpacks in encoded
  // order and lands on its shard's store.
  std::vector<smr::Command> subs;
  subs.push_back(smr::MakeRmw(2, 1, key_a, "+1"));
  subs.push_back(smr::MakeRmw(2, 2, key_a, "+2"));
  apply(smr::MakeBatch(subs));

  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].first, shard_a);
  EXPECT_EQ(seen[1].first, shard_b);
  EXPECT_EQ(seen[2].first, shard_a);
  EXPECT_EQ(seen[2].second, subs[0]);
  EXPECT_EQ(seen[3].second, subs[1]);

  EXPECT_EQ(dep.applied_count(shard_a), 3u);
  EXPECT_EQ(dep.applied_count(shard_b), 1u);
  // The stores really are partitioned: each key exists only in its shard's store.
  EXPECT_EQ(dep.store(shard_a).Apply(smr::MakeGet(9, 1, key_a)), "va+1+2");
  EXPECT_EQ(dep.store(shard_b).Apply(smr::MakeGet(9, 2, key_a)), "");
  EXPECT_EQ(dep.store(shard_b).Apply(smr::MakeGet(9, 3, key_b)), "vb");

  // noOps apply nowhere and don't count, but still reach the callback (checker
  // histories include them).
  apply(smr::MakeNoOp());
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(dep.applied_count(0) + dep.applied_count(1) + dep.applied_count(2) +
                dep.applied_count(3),
            4u);
}

TEST(DeploymentTest, ForEachCommittedAndDroppedUnpackBatches) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.partitions = 2;
  smr::Deployment dep(std::move(d));

  std::vector<smr::Command> subs;
  subs.push_back(smr::MakePut(1, 1, "x", "1"));
  subs.push_back(smr::MakePut(2, 7, "x", "2"));
  smr::Command batch = smr::MakeBatch(subs);

  std::vector<smr::Command> committed;
  dep.ForEachCommitted(batch,
                       [&](const smr::Command& c) { committed.push_back(c); });
  ASSERT_EQ(committed.size(), 2u);
  EXPECT_EQ(committed[0], subs[0]);
  EXPECT_EQ(committed[1], subs[1]);

  std::vector<smr::Command> dropped;
  std::vector<smr::Command> scratch;
  dep.ForEachDropped(batch, scratch,
                     [&](const smr::Command& c) { dropped.push_back(c); });
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[1].seq, 7u);

  // Non-batch commands pass through unmodified, and dropping never touched the
  // stores or counts.
  committed.clear();
  dep.ForEachCommitted(subs[0],
                       [&](const smr::Command& c) { committed.push_back(c); });
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(dep.applied_count(0), 0u);
  EXPECT_EQ(dep.applied_count(1), 0u);
}

}  // namespace
