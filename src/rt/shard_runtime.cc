#include "src/rt/shard_runtime.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/codec/codec.h"
#include "src/common/check.h"
#include "src/exec/exec_pool.h"
#include "src/exec/laned_store.h"
#include "src/msg/message.h"
#include "src/rt/connection.h"
#include "src/rt/event_loop.h"
#include "src/rt/wire.h"

namespace rt {

// One shard's worker: owns the shard engine, its timers, its connections to
// the same shard on every peer and the mailbox pair tying it to the I/O tier.
// It is also the engine's smr::Context — sends are encoded straight onto the
// peer's connection, completions become outbox items, timers land in the
// worker's own event loop (engines only call the Context from within their
// own callbacks, which all run on this thread).
class ShardRuntime::Worker final : public smr::Context, public Connection::Handler {
 public:
  Worker(ShardRuntime* owner, uint32_t shard)
      : owner_(owner),
        shard_(shard),
        inbox_(kMailboxSlots),
        outbox_(kMailboxSlots) {
    const smr::DeploymentOptions& d = owner_->deployment_->options();
    // Executor pool (ordering/execution split): the engine keeps emitting in
    // deterministic order on this thread; state application fans out across
    // the pool's commute lanes. Completions come back through Poll() in the
    // main loop and turn into the same replies inline execution pushes.
    exec::LanedStore* laned = owner_->deployment_->laned_store(shard_);
    if (laned != nullptr && d.executor_threads > 0) {
      exec::ExecPool::Options po;
      po.lanes = static_cast<uint32_t>(d.executor_threads);
      po.on_completion = [this](uint64_t client, uint64_t seq,
                                std::string&& value) {
        PushReply(client, seq, std::move(value), /*dropped=*/false);
      };
      po.applied = [this](const smr::Command& sub) {
        // Lane threads (and this thread, for cross-lane barriers): the same
        // counters the inline path bumps, already atomic.
        if (!sub.is_noop()) {
          applied_ops_.fetch_add(1, std::memory_order_release);
          owner_->deployment_->CountApplied(shard_, sub);
        }
      };
      po.completion_notify = [this]() { bell_.Ring(); };
      pool_ = std::make_unique<exec::ExecPool>(laned, std::move(po));
    }
  }

  ~Worker() {
    // Sockets handed over after the worker stopped never reached it.
    ShardInput in;
    while (inbox_.TryPop(in)) {
      CloseInput(in);
    }
  }

  Mailbox<ShardInput>& inbox() { return inbox_; }
  Mailbox<ShardOutput>& outbox() { return outbox_; }
  Doorbell& bell() { return bell_; }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }
  exec::ExecPool* pool() { return pool_.get(); }
  uint32_t open_peers() const { return open_peers_.load(std::memory_order_relaxed); }
  uint64_t max_queued() const { return max_queued_.load(std::memory_order_relaxed); }
  uint64_t applied_ops() const { return applied_ops_.load(std::memory_order_acquire); }
  uint64_t outputs_pushed() const {
    return outputs_pushed_.load(std::memory_order_relaxed);
  }

  // Called on the spawning thread before the worker thread exists.
  void Spawn(common::ProcessId self, uint32_t n, std::vector<PeerSocket> sockets,
             const smr::RestartHint& recovered) {
    self_id_ = self;
    n_ = n;
    recovered_ = recovered;
    peers_.resize(n);
    for (PeerSocket& s : sockets) {
      AttachPeer(s.peer, s.fd, std::move(s.unread));
    }
    thread_ = std::thread([this]() { ThreadMain(); });
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    bell_.Ring();
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
    stopped_.store(true, std::memory_order_release);
  }

  static void CloseInput(ShardInput& in) {
    if (in.kind == ShardInput::Kind::kPeer && in.fd >= 0) {
      close(in.fd);
      in.fd = -1;
    }
  }

  // smr::Context (worker thread only):
  void Send(common::ProcessId to, msg::Message m) override {
    if (to >= peers_.size() || peers_[to] == nullptr) {
      return;  // peer down; engines tolerate message loss
    }
    m.shard = shard_;
    // Reused scratch, pre-sized so encoding never reallocates mid-message;
    // QueueFrame copies it into the connection's write buffer.
    encode_.Clear();
    encode_.Reserve(1 + msg::EncodedSize(m));
    encode_.U8(wire::kFrameMessage);
    msg::Encode(encode_, m);
    QueueTo(peers_[to].get(), encode_.buffer());
  }

  common::Time Now() const override { return EventLoop::NowUs(); }

  void SetTimer(common::Duration delay, uint64_t token) override {
    loop_.AddTimer(delay, [this, token]() { engine_->OnTimer(token); });
  }

  void Executed(const common::Dot& dot, const smr::Command& cmd) override {
    if (pool_ != nullptr) {
      // Ordering/execution split: hand the (deterministically ordered) command
      // to the executor pool. Counting and replies happen via the pool's
      // applied/on_completion hooks instead of the inline lambda below. The
      // durable admit (dedup + log append) stays on this thread, before the
      // fan-out, so the log records the shard's emission order exactly.
      if (!owner_->deployment_->AdmitDurable(shard_, dot, cmd)) {
        return;
      }
      pool_->Execute(cmd, exec_scratch_);
      if (owner_->deployment_->SnapshotDue(shard_)) {
        // Snapshots need the store quiesced; WaitIdle drains every lane, so
        // the blob reflects all admitted commands up to this point.
        pool_->WaitIdle();
        owner_->deployment_->WriteShardSnapshot(shard_);
      }
      return;
    }
    owner_->deployment_->ApplyExecuted(
        shard_, dot, cmd, exec_scratch_,
        [this](uint32_t, const smr::Command& sub, std::string&& result) {
          if (!sub.is_noop()) {
            applied_ops_.fetch_add(1, std::memory_order_release);
          }
          if (sub.client != 0) {  // client 0: internal command (noOp)
            PushReply(sub.client, sub.seq, std::move(result), /*dropped=*/false);
          }
        });
  }

  void Dropped(const common::Dot& dot, const smr::Command& original) override {
    owner_->deployment_->ForEachDropped(
        original, drop_scratch_, [this](const smr::Command& sub) {
          if (sub.client != 0) {
            PushReply(sub.client, sub.seq, std::string(), /*dropped=*/true);
          }
        });
  }

  // Connection::Handler (worker thread only): frames from the peer shard.
  void OnFrame(Connection* conn, const uint8_t* data, size_t size) override {
    codec::Reader r(data, size);
    switch (r.U8()) {
      case wire::kFrameMessage: {
        msg::Message m;
        if (msg::Decode(r, m) && m.shard == shard_) {
          engine_->OnMessage(conn->peer_id, m);
        }
        break;
      }
      case wire::kFrameCatchupReq:
        HandleCatchupRequest(conn, r);
        break;
      case wire::kFrameCatchupEntries:
        // The normal executed path: the durable admit filter deduplicates
        // (we may have replayed this record from our own log already), and a
        // duplicate's reply simply finds no waiting client. Every completion
        // goes out, announced client or not, so the node's completion cache
        // answers clients that resubmit after a restart.
        catching_up_ = true;
        wire::ForEachCatchupEntry(
            r, [this](uint64_t shard, const common::Dot& dot, const smr::Command& cmd) {
              if (shard == shard_) {
                Executed(dot, cmd);
              }
            });
        if (pool_ != nullptr) {
          pool_->WaitIdle();  // delivers the entries' completions while flagged
        }
        catching_up_ = false;
        break;
      default:
        break;
    }
  }

  void OnClosed(Connection* conn) override { reap_pending_ = true; }

 private:
  // The one place an applied or dropped command becomes a ShardOutput. A
  // client its node never announced submitted elsewhere: nobody waits here,
  // so nothing is pushed and the I/O thread is not woken (catch-up entries
  // excepted, see OnFrame).
  //
  // Never blocks indefinitely: the I/O thread always drains outboxes before
  // sleeping, so ringing its doorbell and yielding is enough to guarantee the
  // ring frees up. Output is dropped only during shutdown.
  void PushReply(uint64_t client, uint64_t seq, std::string&& value, bool dropped) {
    if (!catching_up_ && clients_.count(client) == 0) {
      return;
    }
    reply_.client = client;
    reply_.seq = seq;
    reply_.value = std::move(value);
    reply_.dropped = dropped;
    while (!outbox_.TryPush(reply_)) {
      NotifyOutput();
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::yield();
    }
    outputs_pushed_.fetch_add(1, std::memory_order_relaxed);
    NotifyOutput();
  }

  void NotifyOutput() {
    if (owner_->output_notify_) {
      owner_->output_notify_();
    }
  }

  void QueueTo(Connection* conn, const std::vector<uint8_t>& payload) {
    conn->QueueFrame(payload);
    if (!conn->dirty) {
      conn->dirty = true;
      dirty_.push_back(conn);
    }
  }

  // One send() per dirty socket per pass, however many frames the pass queued.
  void FlushDirty() {
    uint64_t max_queued = max_queued_.load(std::memory_order_relaxed);
    for (Connection* conn : dirty_) {
      conn->dirty = false;
      conn->Flush();
      max_queued = std::max<uint64_t>(max_queued, conn->queued_bytes());
    }
    dirty_.clear();
    max_queued_.store(max_queued, std::memory_order_relaxed);
  }

  // Adopts a socket to `peer`, replacing (and closing) any older one.
  Connection* AttachPeer(common::ProcessId peer, int fd, std::string unread) {
    if (peer >= n_ || peer == self_id_) {
      close(fd);
      return nullptr;
    }
    DropPeer(peer);
    peers_[peer] = std::make_unique<Connection>(&loop_, fd, this, std::move(unread));
    peers_[peer]->peer_id = peer;
    CountPeers();
    return peers_[peer].get();
  }

  void DropPeer(common::ProcessId peer) {
    Connection* conn = peers_[peer].get();
    if (conn == nullptr) {
      return;
    }
    dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), conn), dirty_.end());
    peers_[peer].reset();
    CountPeers();
  }

  void CountPeers() {
    uint32_t open = 0;
    for (const auto& c : peers_) {
      open += c != nullptr ? 1 : 0;
    }
    open_peers_.store(open, std::memory_order_relaxed);
  }

  // Destroys connections that closed during the pass (never from inside their
  // own callbacks) and reports each loss so the I/O tier can re-dial.
  void ReapPeers() {
    reap_pending_ = false;
    for (common::ProcessId p = 0; p < peers_.size(); p++) {
      if (peers_[p] != nullptr && peers_[p]->closed()) {
        DropPeer(p);
        if (owner_->peer_lost_) {
          owner_->peer_lost_(shard_, p);
        }
      }
    }
  }

  // Durable restart: advertise this shard's recovered frontier to every peer
  // so they stream back what this replica missed.
  void SendCatchupRequests() {
    const smr::Deployment::CatchupAdvert::Shard& adv =
        owner_->deployment_->catchup_advert().shards[shard_];
    encode_.Clear();
    wire::EncodeCatchupRequest(encode_, shard_, adv.seq_floor, adv.frontier);
    for (auto& conn : peers_) {
      if (conn != nullptr) {
        QueueTo(conn.get(), encode_.buffer());
      }
    }
  }

  // A restarted peer advertised its executed-dot frontier: tell the engine it
  // is back (clearing suspicion below its reserved floor), then stream every
  // log record the peer is missing back on the same connection.
  void HandleCatchupRequest(Connection* conn, codec::Reader& r) {
    wire::CatchupRequest req;
    if (!wire::DecodeCatchupRequest(r, &req) || req.shard != shard_) {
      return;
    }
    engine_->OnRestore(conn->peer_id, req.seq_floor);
    dur::ShardDurability* d = owner_->deployment_->durability(shard_);
    if (d == nullptr) {
      return;
    }
    wire::StreamCatchup(*d, shard_, req.frontier,
                        [this, conn](const std::vector<uint8_t>& payload) {
                          QueueTo(conn, payload);
                        });
  }

  // Bounded burst, so a flooded inbox cannot starve sockets and timers.
  bool DrainInbox() {
    bool worked = false;
    for (int i = 0; i < 256 && inbox_.TryPop(in_); i++) {
      worked = true;
      switch (in_.kind) {
        case ShardInput::Kind::kSubmit:
          engine_->Submit(std::move(in_.cmd));
          break;
        case ShardInput::Kind::kClient:
          clients_.insert(in_.client);
          break;
        case ShardInput::Kind::kPeer:
          if (Connection* conn = AttachPeer(in_.from, in_.fd, std::move(in_.unread))) {
            conn->ConsumeInput();
          }
          in_.fd = -1;
          break;
        case ShardInput::Kind::kReset:
          if (in_.from < peers_.size() && peers_[in_.from] != nullptr) {
            peers_[in_.from]->Shutdown();
          }
          break;
        case ShardInput::Kind::kNone:
          break;
      }
    }
    return worked;
  }

  void ThreadMain() {
    engine_ = &owner_->deployment_->shard_engine(shard_);
    loop_.WatchFd(bell_.fd(), EPOLLIN, [this](uint32_t) { bell_.Drain(); });
    engine_->Bind(self_id_, n_, this);
    if (pool_ != nullptr) {
      pool_->Start();
    }
    engine_->OnStart();
    if (owner_->deployment_->HasRecoveredState()) {
      // Seed the recovered floors after OnStart so protocol initialization
      // cannot clobber them; fresh submissions then mint dots above anything
      // a prior incarnation may have used.
      engine_->ApplyRestartHint(recovered_);
      if (owner_->deployment_->durable()) {
        SendCatchupRequests();
      }
    }
    // Frames a peer sent before this engine started arrived with its hello.
    for (auto& conn : peers_) {
      if (conn != nullptr) {
        conn->ConsumeInput();
      }
    }
    while (!stop_.load(std::memory_order_acquire)) {
      bool worked = DrainInbox();
      // Executor completions back to the reply path (pool mode only).
      if (pool_ != nullptr && pool_->Poll() > 0) {
        worked = true;
      }
      FlushDirty();
      if (reap_pending_) {
        ReapPeers();
      }
      int wait_ms = 0;
      if (!worked) {
        // Park in epoll until a socket, the doorbell or the next timer fires.
        // Arm-then-recheck closes the missed-wakeup window (see Doorbell);
        // executor lanes ring this same bell when completions land.
        bell_.Arm();
        if (inbox_.Empty() && (pool_ == nullptr || !pool_->HasCompletions()) &&
            !stop_.load(std::memory_order_acquire)) {
          wait_ms = -1;
        }
      }
      loop_.RunOnce(wait_ms);
      bell_.Disarm();
    }
    FlushDirty();
    // A dead shard closes its sockets: peers see the loss at once instead of
    // queueing frames for a reader that will never come back.
    for (auto& conn : peers_) {
      conn.reset();
    }
    dirty_.clear();
    open_peers_.store(0, std::memory_order_relaxed);
    if (pool_ != nullptr) {
      // Quiesce the executor lanes before this worker dies: the store reaches
      // its final (inline-equivalent) state, so digests read after Join are
      // stable. Remaining completions drop with the node like queued replies.
      pool_->Stop();
    }
  }

  ShardRuntime* owner_;
  uint32_t shard_;
  common::ProcessId self_id_ = common::kInvalidProcess;
  uint32_t n_ = 0;

  Mailbox<ShardInput> inbox_;
  Mailbox<ShardOutput> outbox_;
  Doorbell bell_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<uint32_t> open_peers_{0};
  std::atomic<uint64_t> max_queued_{0};
  // Bumped per sub-command / per reply by this worker (applied also by its
  // executor lanes), on a line no other shard writes; summed on read.
  alignas(64) std::atomic<uint64_t> applied_ops_{0};
  std::atomic<uint64_t> outputs_pushed_{0};

  // Worker-local state (worker thread only, after Spawn).
  smr::RestartHint recovered_;
  smr::Engine* engine_ = nullptr;
  EventLoop loop_;
  std::vector<std::unique_ptr<Connection>> peers_;  // by process id
  std::vector<Connection*> dirty_;
  bool reap_pending_ = false;
  // Clients announced by the I/O tier (they submit through this node), and
  // whether a catch-up frame is being applied (every completion goes out).
  std::unordered_set<uint64_t> clients_;
  bool catching_up_ = false;
  codec::Writer encode_;
  ShardInput in_;
  ShardOutput reply_;
  std::vector<smr::Command> exec_scratch_;  // kBatch unpack reuse (execute path)
  std::vector<smr::Command> drop_scratch_;  // ... drop path
  // Executor pool (nullptr when executor_threads == 0: inline execution).
  std::unique_ptr<exec::ExecPool> pool_;
};

ShardRuntime::ShardRuntime(smr::Deployment* deployment)
    : deployment_(deployment), partitions_(deployment->partitions()) {
  CHECK(deployment_ != nullptr);
  for (uint32_t s = 0; s < partitions_; s++) {
    workers_.push_back(std::make_unique<Worker>(this, s));
  }
}

ShardRuntime::~ShardRuntime() { Stop(); }

void ShardRuntime::Start(common::ProcessId self, uint32_t n,
                         std::vector<std::vector<PeerSocket>> sockets) {
  CHECK(!started_);
  CHECK_EQ(sockets.size(), static_cast<size_t>(partitions_));
  started_ = true;
  // Read every shard's recovered floors before any worker runs: a running
  // worker moves its own shard's floors forward as it applies.
  std::vector<smr::RestartHint> recovered(partitions_);
  if (deployment_->HasRecoveredState()) {
    recovered = deployment_->RecoveredRestartHints();
  }
  for (uint32_t s = 0; s < partitions_; s++) {
    workers_[s]->Spawn(self, n, std::move(sockets[s]), recovered[s]);
  }
}

void ShardRuntime::Stop() {
  if (!started_) {
    return;
  }
  for (auto& w : workers_) {
    w->RequestStop();
  }
  for (auto& w : workers_) {
    w->Join();
  }
}

bool ShardRuntime::StopOne(uint32_t shard) {
  CHECK_LT(shard, partitions_);
  if (!started_ || workers_[shard]->stopped()) {
    return false;
  }
  workers_[shard]->RequestStop();
  workers_[shard]->Join();
  return true;
}

bool ShardRuntime::StopOneExecutor(uint32_t shard, uint32_t lane) {
  CHECK_LT(shard, partitions_);
  if (!started_ || workers_[shard]->stopped()) {
    return false;
  }
  exec::ExecPool* pool = workers_[shard]->pool();
  if (pool == nullptr || lane >= pool->lanes()) {
    return false;
  }
  return pool->StopOne(lane);
}

bool ShardRuntime::Push(uint32_t shard, ShardInput& in) {
  CHECK_LT(shard, partitions_);
  Worker& w = *workers_[shard];
  if (w.stopped()) {
    // Dead shard: input is lost, like a crashed replica's would be.
    Worker::CloseInput(in);
    return true;
  }
  if (!w.inbox().TryPush(in)) {
    return false;
  }
  w.bell().Ring();
  return true;
}

uint64_t ShardRuntime::applied_ops() const {
  uint64_t sum = 0;
  for (const auto& w : workers_) {
    sum += w->applied_ops();
  }
  return sum;
}

uint64_t ShardRuntime::outputs_pushed() const {
  uint64_t sum = 0;
  for (const auto& w : workers_) {
    sum += w->outputs_pushed();
  }
  return sum;
}

void ShardRuntime::DropInput(ShardInput& in) {
  inputs_dropped_.fetch_add(1, std::memory_order_relaxed);
  Worker::CloseInput(in);
}

size_t ShardRuntime::DrainOutputs(ShardOutputSink& sink) {
  size_t drained = 0;
  ShardOutput out;
  for (auto& w : workers_) {
    while (w->outbox().TryPop(out)) {
      drained++;
      sink.OnClientReply(out.client, out.seq, std::move(out.value), out.dropped);
    }
  }
  return drained;
}

bool ShardRuntime::HasOutput() const {
  for (const auto& w : workers_) {
    if (!w->outbox().Empty()) {
      return true;
    }
  }
  return false;
}

bool ShardRuntime::stopped(uint32_t shard) const {
  CHECK_LT(shard, partitions_);
  return workers_[shard]->stopped();
}

uint32_t ShardRuntime::peer_connections(uint32_t shard) const {
  CHECK_LT(shard, partitions_);
  return workers_[shard]->open_peers();
}

uint64_t ShardRuntime::max_queued_bytes(uint32_t shard) const {
  CHECK_LT(shard, partitions_);
  return workers_[shard]->max_queued();
}

}  // namespace rt
