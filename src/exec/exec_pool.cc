#include "src/exec/exec_pool.h"

#include <utility>

#include "src/common/check.h"

namespace exec {

ExecPool::ExecPool(LanedStore* store, Options opts)
    : store_(store), opts_(std::move(opts)) {
  CHECK(store_ != nullptr);
  CHECK_GE(opts_.lanes, 1u);
  CHECK_EQ(static_cast<uint64_t>(opts_.lanes),
           static_cast<uint64_t>(store_->lanes()));
  CHECK(opts_.on_completion != nullptr);
  CHECK_GE(opts_.mailbox_capacity, 2u);
  for (uint32_t l = 0; l < opts_.lanes; l++) {
    lanes_.push_back(std::make_unique<Lane>(opts_.mailbox_capacity));
  }
}

ExecPool::~ExecPool() { Stop(); }

void ExecPool::Start() {
  CHECK(!started_);
  started_ = true;
  for (uint32_t l = 0; l < lanes(); l++) {
    lanes_[l]->thread = std::thread([this, l]() { LaneMain(l); });
  }
}

void ExecPool::StopLane(Lane& lane) {
  lane.stop.store(true, std::memory_order_release);
  lane.bell.Ring();
  if (lane.thread.joinable()) {
    lane.thread.join();
  }
}

void ExecPool::Stop() {
  if (!started_) {
    return;
  }
  // Drain: everything dispatched applies before the workers die, so the store
  // is in its final (inline-equivalent) state when the pool's owner reads
  // digests after Stop. Dead lanes are skipped (their queued work is lost by
  // design — the crash drill).
  WaitIdle();
  for (auto& lane : lanes_) {
    StopLane(*lane);
  }
  started_ = false;
  Poll();  // completions that landed between the final WaitIdle poll and join
}

bool ExecPool::StopOne(uint32_t lane) {
  CHECK_LT(lane, lanes());
  Lane& l = *lanes_[lane];
  if (!started_ || l.dead.load(std::memory_order_acquire)) {
    return false;
  }
  StopLane(l);
  return true;
}

void ExecPool::Execute(const smr::Command& cmd,
                       std::vector<smr::Command>& scratch) {
  if (cmd.is_batch()) {
    size_t n = smr::UnpackBatch(cmd, scratch);
    CHECK_GT(n, 0u);
    for (size_t i = 0; i < n; i++) {
      DispatchOne(scratch[i]);  // moved into the lane ring; the slot is spent
    }
    return;
  }
  // The engine-level command is const (the engine may still log/inspect it);
  // take a copy to move from. Payload values are refcounted, so "copy" bumps a
  // count instead of duplicating bytes.
  smr::Command copy = cmd;
  DispatchOne(copy);
}

void ExecPool::OnReady(const common::Dot& dot, smr::Command&& cmd,
                       uint64_t seqno) {
  (void)dot;
  (void)seqno;
  if (cmd.is_batch()) {
    size_t n = smr::UnpackBatch(cmd, ready_scratch_);
    CHECK_GT(n, 0u);
    for (size_t i = 0; i < n; i++) {
      DispatchOne(ready_scratch_[i]);
    }
    return;
  }
  DispatchOne(cmd);
}

void ExecPool::DispatchOne(smr::Command& cmd) {
  if (cmd.is_noop()) {
    // NoOps touch no state; complete inline (client is 0 for protocol-internal
    // noOps, so this is almost always a pure skip).
    if (cmd.client != 0) {
      opts_.on_completion(cmd.client, cmd.seq, std::string());
    }
    return;
  }
  uint32_t lane_idx = 0;
  if (!store_->SingleLane(cmd, &lane_idx)) {
    // Cross-lane command: quiesce the pool, apply inline via the store's
    // per-key decomposition, resume. Emission-order semantics are preserved:
    // everything emitted before this command is applied before it, everything
    // after is dispatched after.
    cross_lane_barriers_++;
    WaitIdle();
    std::string value = store_->ApplyCrossLane(cmd);
    if (opts_.applied) {
      opts_.applied(cmd);
    }
    if (cmd.client != 0) {
      opts_.on_completion(cmd.client, cmd.seq, std::move(value));
    }
    return;
  }
  Lane& lane = *lanes_[lane_idx];
  if (lane.dead.load(std::memory_order_acquire)) {
    return;  // crashed lane: its key range is lost, like a crashed replica's
  }
  LaneItem item;
  item.cmd = std::move(cmd);
  while (!lane.inbox.TryPush(item)) {
    if (lane.dead.load(std::memory_order_acquire)) {
      return;  // lane died while we waited; drop like the pre-push check does
    }
    // Full inbox: drain completions (frees the lane's outbox, so the lane can
    // finish its in-flight apply and pop) rather than deadlocking two full
    // rings against each other.
    Poll();
    std::this_thread::yield();
  }
  lane.dispatched++;
  lane.bell.Ring();
}

size_t ExecPool::Poll() {
  size_t delivered = 0;
  LaneDone done;
  for (auto& lane : lanes_) {
    while (lane->done.TryPop(done)) {
      opts_.on_completion(done.client, done.seq, std::move(done.value));
      delivered++;
    }
  }
  return delivered;
}

bool ExecPool::HasCompletions() const {
  for (const auto& lane : lanes_) {
    if (!lane->done.Empty()) {
      return true;
    }
  }
  return false;
}

void ExecPool::WaitIdle() {
  for (auto& lane : lanes_) {
    while (!lane->dead.load(std::memory_order_acquire) &&
           lane->applied.load(std::memory_order_acquire) < lane->dispatched) {
      Poll();
      std::this_thread::yield();
    }
  }
}

void ExecPool::LaneMain(uint32_t lane_idx) {
  Lane& lane = *lanes_[lane_idx];
  LaneItem item;
  while (!lane.stop.load(std::memory_order_acquire)) {
    bool worked = false;
    while (lane.inbox.TryPop(item)) {
      std::string value = store_->ApplyOnLane(lane_idx, item.cmd);
      if (opts_.applied) {
        opts_.applied(item.cmd);
      }
      // Release-publish the apply before the dispatcher can observe quiescence.
      lane.applied.fetch_add(1, std::memory_order_release);
      if (item.cmd.client != 0) {
        LaneDone done;
        done.client = item.cmd.client;
        done.seq = item.cmd.seq;
        done.value = std::move(value);
        while (!lane.done.TryPush(done)) {
          if (lane.stop.load(std::memory_order_acquire)) {
            break;  // shutdown: the reply is dropped with the rest of the node
          }
          if (opts_.completion_notify) {
            opts_.completion_notify();
          }
          std::this_thread::yield();
        }
        if (opts_.completion_notify) {
          opts_.completion_notify();
        }
      }
      worked = true;
    }
    if (worked) {
      continue;
    }
    // Arm-then-recheck park (see rt::Doorbell): a dispatcher push that missed
    // the armed flag is caught by the recheck.
    lane.bell.Arm();
    if (!lane.inbox.Empty() || lane.stop.load(std::memory_order_acquire)) {
      continue;
    }
    lane.bell.Wait(-1);
  }
  lane.dead.store(true, std::memory_order_release);
}

}  // namespace exec
