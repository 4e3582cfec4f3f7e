// The real 3-replica loopback cluster the two TCP workloads drive: three
// smr::Deployment + rt::Node pairs and one rt::Client per replica.
#ifndef PERFBENCH_LAN_CLUSTER_H_
#define PERFBENCH_LAN_CLUSTER_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/trace.h"
#include "perfbench/util.h"
#include "src/rt/node.h"
#include "src/smr/deployment.h"

namespace perfbench {

constexpr uint32_t kReplicas = 3;
constexpr uint32_t kPartitions = 4;

// Engine counters summed over every replica after shutdown.
struct EngineTotals {
  uint64_t applied = 0;   // client commands applied, all replicas and shards
  uint64_t executed = 0;  // engine-level executions (a batch counts once)
  uint64_t fast = 0, slow = 0;
  uint64_t messages = 0;
  uint64_t recoveries = 0;
  double shard_balance = 0;  // min/max per-shard applied count at replica 0
};

class LanCluster {
 public:
  // Atlas, n=3, f=1, threaded, P=4, batch_window 1 ms; every other option at
  // its default. A non-empty data_dir makes the replicas durable.
  static smr::DeploymentOptions Options(const std::string& data_dir);

  LanCluster() = default;
  ~LanCluster();
  LanCluster(const LanCluster&) = delete;
  LanCluster& operator=(const LanCluster&) = delete;

  // Builds and starts the replicas, connects one client per replica and
  // round-trips one put on each connection. Returns false on failure.
  // setup_s() is the time from the first Deployment constructor to the last
  // of those first replies.
  bool Start(const std::string& data_dir, Tracer* tracer, std::string* err);
  double setup_s() const { return setup_s_; }
  rt::Client& client(uint32_t i) { return *clients_[i]; }

  // Drained teardown; call only once every request sent has been answered.
  // Waits until every replica applied `workload_ops` commands on top of the
  // start-up puts, stops and joins the nodes, compares every shard's digest
  // and applied count across replicas, and only then closes the clients.
  // Failures go to `report`. Returns the ops to count as failed: those a
  // diverged shard applied.
  uint64_t Shutdown(uint64_t workload_ops, RunReport* report);

  // Failure path: stops the nodes and destroys them, which closes the server
  // side of every client socket so client threads blocked on a reply return.
  // The clients stay open until the cluster is destroyed, after the caller
  // has joined the threads that use them.
  void Abort();

  // Valid after Shutdown.
  const EngineTotals& totals() const { return totals_; }

 private:
  void StopNodes();

  std::vector<std::unique_ptr<smr::Deployment>> deployments_;
  std::vector<std::unique_ptr<rt::Node>> nodes_;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<rt::Client>> clients_;
  double setup_s_ = 0;
  EngineTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAN_CLUSTER_H_
