// Loopback TCP cluster bring-up shared by the rt tests.
//
// Every node binds an ephemeral port (port 0), then all nodes get the resolved
// address table before Run(): no fixed port blocks, no bind retries, and no
// collisions between tests running in parallel.
#ifndef TESTS_RT_TEST_UTIL_H_
#define TESTS_RT_TEST_UTIL_H_

#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/rt/node.h"
#include "src/smr/deployment.h"

namespace rt {

// A placeholder table for `n` loopback nodes: port 0 until Listen resolves it.
inline std::vector<PeerAddress> EphemeralAddrs(uint32_t n) {
  return std::vector<PeerAddress>(n, PeerAddress{"127.0.0.1", 0});
}

// Listens every node on its ephemeral port and hands each the resolved
// table. Returns the table, or an empty one if a node failed to listen.
inline std::vector<PeerAddress> ListenAll(
    const std::vector<std::unique_ptr<Node>>& nodes) {
  std::vector<PeerAddress> addrs;
  for (const auto& node : nodes) {
    if (!node->Listen()) {
      return {};
    }
    addrs.push_back(PeerAddress{"127.0.0.1", node->port()});
  }
  for (const auto& node : nodes) {
    node->set_peers(addrs);
  }
  return addrs;
}

// Connects, retrying while the cluster meshes up.
inline bool ConnectWithRetry(Client& client) {
  for (int i = 0; i < 250; i++) {
    if (client.Connect()) {
      return true;
    }
    usleep(20 * 1000);
  }
  return false;
}

// One node per deployment (borrowed; they must outlive the cluster), each
// serving on its own thread. Stop() — also run by the destructor — stops and
// joins every node, so assertions may fire without leaving joinable threads.
class LoopbackCluster {
 public:
  explicit LoopbackCluster(const std::vector<std::unique_ptr<smr::Deployment>>& replicas) {
    auto n = static_cast<uint32_t>(replicas.size());
    for (uint32_t i = 0; i < n; i++) {
      nodes_.push_back(std::make_unique<Node>(i, EphemeralAddrs(n), replicas[i].get()));
    }
    addrs_ = ListenAll(nodes_);
    if (addrs_.empty()) {
      return;
    }
    for (auto& node : nodes_) {
      threads_.emplace_back([n = node.get()]() { n->Run(); });
    }
  }
  ~LoopbackCluster() { Stop(); }

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  bool ok() const { return !addrs_.empty(); }
  Node& node(uint32_t i) { return *nodes_[i]; }
  uint16_t port(uint32_t i) const { return addrs_[i].port; }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

  // Polls until every node applied at least `target` client ops.
  bool WaitApplied(uint64_t target, int seconds = 30) const {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      bool all = true;
      for (const auto& node : nodes_) {
        all = all && node->applied_ops() >= target;
      }
      if (all) {
        return true;
      }
      usleep(10 * 1000);
    }
    return false;
  }

  void Stop() {
    for (auto& node : nodes_) {
      node->Stop();
    }
    for (auto& t : threads_) {
      t.join();
    }
    threads_.clear();
  }

 private:
  std::vector<PeerAddress> addrs_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::thread> threads_;
};

}  // namespace rt

#endif  // TESTS_RT_TEST_UTIL_H_
