#include "perfbench/lan_cluster.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>

namespace perfbench {
namespace {

// Client ids of the start-up puts; workload clients are 1..kReplicas.
constexpr uint64_t kSetupClientBase = 1000;

}  // namespace

smr::DeploymentOptions LanCluster::Options(const std::string& data_dir) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.n = kReplicas;
  d.f = 1;
  d.partitions = kPartitions;
  d.batch_window = 1 * common::kMillisecond;
  d.threaded = true;
  d.data_dir = data_dir;
  return d;
}

LanCluster::~LanCluster() { Abort(); }

bool LanCluster::Start(const std::string& data_dir, Tracer* tracer,
                       std::string* err) {
  // Ports come from a random block; a block someone else holds fails Listen
  // and the next attempt takes another.
  std::mt19937 pick(std::random_device{}());
  for (int attempt = 0; attempt < 20; attempt++) {
    uint16_t base = static_cast<uint16_t>(20000 + pick() % 30000);
    std::vector<rt::PeerAddress> addrs;
    for (uint32_t i = 0; i < kReplicas; i++) {
      addrs.push_back(rt::PeerAddress{"127.0.0.1", static_cast<uint16_t>(base + i)});
    }
    int64_t t0 = NowNs();
    bool bound = true;
    for (uint32_t i = 0; i < kReplicas && bound; i++) {
      std::string dir;
      if (!data_dir.empty()) {
        dir = data_dir + "/try" + std::to_string(attempt) + "/site-" + std::to_string(i);
      }
      smr::DeploymentOptions d = Options(dir);
      if (tracer != nullptr) {
        d.state_machine_factory = tracer->Factory(i);
      }
      deployments_.push_back(std::make_unique<smr::Deployment>(std::move(d)));
      nodes_.push_back(std::make_unique<rt::Node>(i, addrs, deployments_.back().get()));
      bound = nodes_.back()->Listen();
    }
    if (!bound) {
      nodes_.clear();
      deployments_.clear();
      continue;
    }
    for (auto& node : nodes_) {
      threads_.emplace_back([n = node.get()]() { n->Run(); });
    }
    for (uint32_t i = 0; i < kReplicas; i++) {
      clients_.push_back(std::make_unique<rt::Client>("127.0.0.1", addrs[i].port));
      bool connected = false;
      for (int tries = 0; tries < 200 && !connected; tries++) {
        connected = clients_[i]->Connect();
        if (!connected) {
          usleep(10 * 1000);
        }
      }
      if (!connected) {
        *err = "client could not connect to replica " + std::to_string(i);
        return false;
      }
    }
    for (uint32_t i = 0; i < kReplicas; i++) {
      if (!clients_[i]->Send(smr::MakePut(kSetupClientBase + i, 1,
                                          "setup-" + std::to_string(i), "up"))) {
        *err = "start-up put failed to send";
        return false;
      }
    }
    for (uint32_t i = 0; i < kReplicas; i++) {
      uint64_t seq = 0;
      std::string result;
      if (!clients_[i]->RecvReply(&seq, &result) || seq != 1 || !result.empty()) {
        *err = "start-up put got no or a wrong reply";
        return false;
      }
    }
    setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    return true;
  }
  *err = "could not bind a port block";
  return false;
}

void LanCluster::StopNodes() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  for (auto& t : threads_) {
    t.join();
  }
  threads_.clear();
}

void LanCluster::Abort() {
  StopNodes();
  nodes_.clear();
}

uint64_t LanCluster::Shutdown(uint64_t workload_ops, RunReport* report) {
  const uint64_t expected = workload_ops + kReplicas;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (auto& node : nodes_) {
    while (node->applied_ops() < expected &&
           std::chrono::steady_clock::now() < deadline) {
      usleep(1000);
    }
  }
  StopNodes();
  for (uint32_t i = 0; i < kReplicas; i++) {
    if (nodes_[i]->applied_ops() != expected) {
      report->Fail("replica " + std::to_string(i) + " applied " +
                   std::to_string(nodes_[i]->applied_ops()) + " of " +
                   std::to_string(expected) + " commands");
    }
  }
  totals_ = EngineTotals();
  uint64_t diverged = 0;
  uint64_t min_shard = ~uint64_t{0}, max_shard = 0;
  for (uint32_t s = 0; s < kPartitions; s++) {
    const smr::Deployment& ref = *deployments_[0];
    for (uint32_t i = 1; i < kReplicas; i++) {
      const smr::Deployment& d = *deployments_[i];
      if (d.store(s).StateDigest() != ref.store(s).StateDigest() ||
          d.applied_count(s) != ref.applied_count(s)) {
        report->Fail("replica " + std::to_string(i) + " shard " + std::to_string(s) +
                     " diverged from replica 0");
        diverged += ref.applied_count(s);
      }
    }
    min_shard = std::min(min_shard, ref.applied_count(s));
    max_shard = std::max(max_shard, ref.applied_count(s));
  }
  totals_.shard_balance =
      max_shard > 0 ? static_cast<double>(min_shard) / static_cast<double>(max_shard) : 0;
  for (const auto& d : deployments_) {
    smr::EngineStats st = d->stats();
    for (uint32_t s = 0; s < kPartitions; s++) {
      totals_.applied += d->applied_count(s);
    }
    totals_.executed += st.executed;
    totals_.fast += st.fast_paths;
    totals_.slow += st.slow_paths;
    totals_.messages += st.messages_sent;
    totals_.recoveries += st.recoveries_started;
  }
  clients_.clear();
  nodes_.clear();
  deployments_.clear();
  return diverged;
}

}  // namespace perfbench
