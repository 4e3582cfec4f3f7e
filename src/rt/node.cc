#include "src/rt/node.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/codec/codec.h"
#include "src/common/check.h"
#include "src/msg/message.h"
#include "src/rt/wire.h"

namespace rt {

namespace {

constexpr common::Duration kRedialFloor = 50 * common::kMillisecond;
constexpr common::Duration kRedialCap = common::kSecond;

sockaddr_in LoopbackAddr(const PeerAddress& a) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.port);
  inet_pton(AF_INET, a.host.c_str(), &addr.sin_addr);
  return addr;
}

}  // namespace

Node::Node(common::ProcessId id, std::vector<PeerAddress> peers,
           smr::Deployment* deployment)
    : self_(id), peers_(std::move(peers)), deployment_(deployment), shards_(deployment) {
  CHECK_LT(self_, peers_.size());
  const smr::DeploymentOptions& d = deployment_->options();
  lanes_ = deployment_->partitions();
  // Submission batching as on the sharded simulator path: enabled only at
  // P > 1 (P = 1 stays the unbatched seed configuration).
  batch_window_ = lanes_ > 1 ? d.batch_window : 0;
  batch_max_ = d.batch_max;
  batches_.resize(lanes_);
  shards_.set_output_notify([this]() { out_bell_.Ring(); });
  shards_.set_peer_lost([this](uint32_t shard, common::ProcessId peer) {
    loop_.PostFromAnyThread([this, shard, peer]() { OnShardPeerLost(shard, peer); });
  });
  loop_.WatchFd(out_bell_.fd(), EPOLLIN, [this](uint32_t) { OnWorkerOutput(); });
  out_bell_.Arm();
}

Node::~Node() {
  shards_.Stop();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
  for (auto& [pl, fd] : dialing_) {
    close(fd);
  }
  for (auto& [pl, held] : held_) {
    close(held.fd);
  }
}

bool Node::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  CHECK_GE(listen_fd_, 0);
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(PeerAddress{"127.0.0.1", peers_[self_].port});
  socklen_t len = sizeof(addr);
  // With SO_REUSEADDR, listen() can still fail (EADDRINUSE) after bind
  // succeeded; either way the caller gets false, not an abort.
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0 ||
      getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  peers_[self_].port = ntohs(addr.sin_port);
  loop_.WatchFd(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
  return true;
}

void Node::set_peers(std::vector<PeerAddress> peers) {
  CHECK_EQ(peers.size(), peers_.size());
  peers_ = std::move(peers);
}

void Node::AcceptReady() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      break;
    }
    anonymous_.push_back(std::make_unique<Connection>(&loop_, fd, this));
  }
}

void Node::Run() {
  CHECK_GE(listen_fd_, 0);
  for (common::ProcessId p = self_ + 1; p < peers_.size(); p++) {
    for (uint32_t lane = 0; lane < lanes_; lane++) {
      DialPeer({p, lane});
    }
  }
  MaybeStartEngine();
  loop_.Run();
  // Join every shard worker before returning control to the caller (who may
  // destroy the deployment), then push out the replies the workers produced
  // between the last drain and the join.
  shards_.Stop();
  DrainShardOutputs();
  FlushDirty();
}

void Node::Stop() { loop_.Stop(); }

void Node::ResetPeerConnection(common::ProcessId peer, uint32_t shard) {
  loop_.PostFromAnyThread([this, peer, shard]() {
    if (engine_started_ && shard < lanes_) {
      route_.kind = ShardInput::Kind::kReset;
      route_.from = peer;
      RouteInput(shard, route_);
    }
  });
}

// --- Mesh: dialing, hellos, hand-off --------------------------------------

void Node::DialPeer(PeerLane pl) {
  if (dialing_.count(pl) > 0) {
    return;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    ScheduleRedial(pl);
    return;
  }
  sockaddr_in addr = LoopbackAddr(peers_[pl.first]);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    ScheduleRedial(pl);
    return;
  }
  dialing_[pl] = fd;
  loop_.WatchFd(fd, EPOLLOUT, [this, pl, fd](uint32_t) { OnDialReady(pl, fd); });
}

void Node::OnDialReady(PeerLane pl, int fd) {
  loop_.UnwatchFd(fd);
  dialing_.erase(pl);
  int err = 0;
  socklen_t len = sizeof(err);
  // The hello is a few bytes on a fresh socket: it goes out whole or the
  // connection is broken.
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0 ||
      !wire::SendPeerHello(fd, self_, pl.second)) {
    close(fd);
    ScheduleRedial(pl);
    return;
  }
  HandOffPeerSocket(pl, fd, std::string());
  // The peer is up: dial its other lost lanes now instead of waiting out
  // their backoff, so a restarted peer's mesh re-forms at once.
  std::vector<PeerLane> waiting;
  for (const auto& [other, backoff] : redial_backoff_) {
    if (other.first == pl.first && dialing_.count(other) == 0) {
      waiting.push_back(other);
    }
  }
  for (const PeerLane& other : waiting) {
    DialPeer(other);
  }
}

void Node::OnPeerHello(Connection* conn, codec::Reader& r) {
  common::ProcessId peer = r.U32();
  uint32_t lane = r.U32();
  if (!r.ok() || peer >= peers_.size() || peer == self_ || lane >= lanes_ ||
      conn->is_client) {
    return;
  }
  // The socket belongs to the lane's worker from here on, together with any
  // frames the peer sent right behind its hello.
  std::string unread;
  int fd = conn->Release(&unread);
  OnClosed(conn);  // reap the husk
  HandOffPeerSocket({peer, lane}, fd, std::move(unread));
}

void Node::NotePeerUp(PeerLane pl) {
  // An in-flight dial for the same connection (it beat us to reconnecting)
  // is abandoned.
  auto dial = dialing_.find(pl);
  if (dial != dialing_.end()) {
    loop_.UnwatchFd(dial->second);
    close(dial->second);
    dialing_.erase(dial);
  }
  redial_backoff_.erase(pl);
}

void Node::HandOffPeerSocket(PeerLane pl, int fd, std::string unread) {
  NotePeerUp(pl);
  if (!engine_started_) {
    // Held unread until the workers start: frames a faster peer sends wait in
    // the kernel socket buffer.
    HeldSocket& held = held_[pl];
    if (held.fd >= 0) {
      close(held.fd);
    }
    held.fd = fd;
    held.unread = std::move(unread);
    MaybeStartEngine();
    return;
  }
  route_.kind = ShardInput::Kind::kPeer;
  route_.from = pl.first;
  route_.fd = fd;
  route_.unread = std::move(unread);
  RouteInput(pl.second, route_);
}

void Node::MaybeStartEngine() {
  if (engine_started_ || held_.size() < (peers_.size() - 1) * lanes_) {
    return;
  }
  engine_started_ = true;
  // Each worker binds and starts its own shard engine on its own thread, with
  // its connections to that shard on every peer; workers apply recovered
  // restart hints and advertise catch-up themselves.
  std::vector<std::vector<ShardRuntime::PeerSocket>> sockets(lanes_);
  for (auto& [pl, held] : held_) {
    sockets[pl.second].push_back(
        ShardRuntime::PeerSocket{pl.first, held.fd, std::move(held.unread)});
  }
  held_.clear();
  shards_.Start(self_, static_cast<uint32_t>(peers_.size()), std::move(sockets));
  for (smr::Command& cmd : pending_submits_) {
    uint32_t shard = 0;
    if (lanes_ > 1) {
      deployment_->partitioner().SingleShard(cmd, &shard);  // validated at OnFrame
    }
    SubmitToShard(shard, cmd);
  }
  pending_submits_.clear();
}

// --- Frames (I/O thread) ---------------------------------------------------

void Node::OnFrame(Connection* conn, const uint8_t* data, size_t size) {
  codec::Reader r(data, size);
  uint8_t kind = r.U8();
  if (kind == wire::kFramePeerHello) {
    OnPeerHello(conn, r);
    return;
  }
  if (kind == wire::kFrameClientHello) {
    conn->is_client = true;
    return;
  }
  msg::Message m;
  if (!conn->is_client || kind != wire::kFrameMessage || !msg::Decode(r, m)) {
    return;
  }
  auto* req = msg::get_if<msg::ClientRequest>(&m);
  if (req == nullptr) {
    return;
  }
  // kBatch is an internal composite (built by the sharded submission path,
  // client 0): an untrusted client injecting one would crash the whole cluster
  // at the deployment's unpack CHECK once it replicated. Reject it at the
  // door, at any partition count.
  bool unroutable = req->cmd.is_batch();
  uint32_t shard = 0;
  if (!unroutable && lanes_ > 1) {
    // Partition-aware routing: validate against the deployment's Partitioner
    // before the command reaches an engine. Unroutable input from an
    // untrusted client (noOps, key sets spanning partitions) is rejected as
    // dropped instead of CHECK-crashing the replica. P=1 submits verbatim,
    // exactly as the seeded runtime did.
    unroutable = !deployment_->partitioner().SingleShard(req->cmd, &shard);
  }
  if (unroutable) {
    // Reply directly on this connection: going through waiting_clients_
    // could clobber an in-flight entry reusing the same (client, seq).
    SendReply(conn, req->cmd.client, req->cmd.seq, "", /*dropped=*/true);
    return;
  }
  chk::CmdKey key{req->cmd.client, req->cmd.seq};
  if (deployment_->durable()) {
    // Idempotent resubmission: a client that reconnected after its socket
    // died re-sends its last command. If it already completed, answer from
    // the completion cache instead of re-executing; if it is still in flight,
    // just re-point the reply at the new connection.
    auto done = client_done_.find(req->cmd.client);
    if (done != client_done_.end() && req->cmd.seq <= done->second.first) {
      SendReply(conn, req->cmd.client, req->cmd.seq,
                req->cmd.seq == done->second.first ? std::string(done->second.second)
                                                   : std::string(),
                /*dropped=*/false);
      return;
    }
    if (in_flight_.find(key) != in_flight_.end()) {
      waiting_clients_[key] = conn;
      return;
    }
    in_flight_.insert(key);
  }
  waiting_clients_[key] = conn;
  if (!engine_started_) {
    pending_submits_.push_back(std::move(req->cmd));
    return;
  }
  SubmitToShard(shard, req->cmd);
  // Read again when the window closes: arrivals until then wait in the
  // kernel socket buffer instead of waking this thread.
  if (window_ == Window::kOpen && conn->PauseInput()) {
    paused_conns_.push_back(conn);
  }
}

// --- Client replies --------------------------------------------------------

void Node::CompleteClient(uint64_t client, uint64_t seq,
                          const std::string& value, bool dropped) {
  if (!deployment_->durable() || client == 0) {
    return;
  }
  in_flight_.erase(chk::CmdKey{client, seq});
  if (dropped) {
    return;  // not cached: the client may legitimately resubmit a drop
  }
  auto& entry = client_done_[client];
  if (seq >= entry.first) {
    entry.first = seq;
    entry.second = value;
  }
}

void Node::OnClientReply(uint64_t client, uint64_t seq, std::string&& value,
                         bool dropped) {
  // Completion bookkeeping runs for every completion that reaches this node,
  // whether or not a client is waiting: catch-up entries and commands
  // submitted via a since-dead connection still complete, and a reconnecting
  // client must find their cached results. Workers send only the completions
  // of clients that submitted here, plus catch-up entries.
  CompleteClient(client, seq, value, dropped);
  auto it = waiting_clients_.find(chk::CmdKey{client, seq});
  if (it == waiting_clients_.end()) {
    return;
  }
  Connection* conn = it->second;
  waiting_clients_.erase(it);
  if (!conn->closed()) {
    conn->QueueFrame(EncodeReply(client, seq, std::move(value), dropped));
    MarkDirty(conn);
  }
}

void Node::SendReply(Connection* conn, uint64_t client, uint64_t seq,
                     std::string&& value, bool dropped) {
  if (!conn->closed()) {
    conn->SendFrame(EncodeReply(client, seq, std::move(value), dropped));
  }
}

const std::vector<uint8_t>& Node::EncodeReply(uint64_t client, uint64_t seq,
                                              std::string&& value, bool dropped) {
  msg::ClientReply reply;
  reply.client = client;
  reply.seq = seq;
  reply.value = std::move(value);
  reply.dropped = dropped;
  encode_scratch_.Clear();
  encode_scratch_.U8(wire::kFrameMessage);
  msg::Encode(encode_scratch_, msg::Message{reply});
  return encode_scratch_.buffer();
}

// --- Ingress batching and worker mailboxes ---------------------------------

void Node::SubmitToShard(uint32_t shard, smr::Command& cmd) {
  AnnounceClient(cmd.client);
  if (batch_window_ == 0) {
    route_.kind = ShardInput::Kind::kSubmit;
    route_.cmd = std::move(cmd);
    RouteInput(shard, route_);
    return;
  }
  std::vector<smr::Command>& batch = batches_[shard];
  batch.push_back(std::move(cmd));
  if (batch.size() >= batch_max_) {
    FlushBatch(shard);
  } else if (window_ == Window::kClosed) {
    window_ = Window::kOpen;
    loop_.AddTimer(batch_window_, [this]() { CloseWindow(); });
  }
}

void Node::AnnounceClient(uint64_t client) {
  // Inboxes are FIFO: every worker learns the client before any of its
  // commands, so none of its completions is filtered out.
  if (!announced_clients_.insert(client).second) {
    return;
  }
  for (uint32_t s = 0; s < lanes_; s++) {
    route_.kind = ShardInput::Kind::kClient;
    route_.client = client;
    if (!RouteInput(s, route_)) {
      announced_clients_.erase(client);  // retried with its next command
    }
  }
}

void Node::CloseWindow() {
  // Commands held back in paused sockets join this window's batches.
  window_ = Window::kClosing;
  for (Connection* conn : paused_conns_) {
    conn->ResumeInput();
  }
  paused_conns_.clear();
  window_ = Window::kClosed;
  for (uint32_t s = 0; s < lanes_; s++) {
    FlushBatch(s);
  }
}

void Node::FlushBatch(uint32_t shard) {
  std::vector<smr::Command>& batch = batches_[shard];
  if (batch.empty()) {
    return;
  }
  if (batch.size() == 1) {
    route_.cmd = std::move(batch[0]);
  } else {
    smr::MakeBatchInto(batch, batch_writer_, route_.cmd, &batch_pool_);
  }
  batch.clear();
  route_.kind = ShardInput::Kind::kSubmit;
  RouteInput(shard, route_);
}

bool Node::RouteInput(uint32_t shard, ShardInput& in) {
  // Bounded retry, never a blocking wait: a full inbox with a live worker
  // drains in microseconds once we stop hogging the core. Draining outboxes
  // between attempts keeps the worker from stalling on a full *outbox* while
  // we spin on its inbox (the deadlock the mailbox discipline forbids).
  constexpr int kMaxSpins = 200000;
  for (int spin = 0;; spin++) {
    if (shards_.Push(shard, in)) {
      return true;
    }
    if (DrainShardOutputs() > 0) {
      FlushDirty();
    }
    if (spin >= kMaxSpins) {
      shards_.DropInput(in);
      return false;
    }
    std::this_thread::yield();
  }
}

void Node::OnWorkerOutput() {
  out_bell_.Drain();
  while (true) {
    DrainShardOutputs();
    FlushDirty();
    out_bell_.Arm();
    // Arm-then-recheck: output pushed between the drain and the arm produced
    // no ring (bell was disarmed), so catch it here and go around again.
    if (!shards_.HasOutput()) {
      break;
    }
  }
}

size_t Node::DrainShardOutputs() { return shards_.DrainOutputs(*this); }

void Node::MarkDirty(Connection* conn) {
  if (!conn->dirty) {
    conn->dirty = true;
    dirty_conns_.push_back(conn);
  }
}

void Node::FlushDirty() {
  for (Connection* conn : dirty_conns_) {
    conn->dirty = false;
    conn->Flush();
  }
  dirty_conns_.clear();
}

// --- Connection loss, reaping and re-dialing --------------------------------

void Node::OnClosed(Connection* conn) {
  if (reap_scheduled_) {
    return;
  }
  // Defer to a zero-delay timer: a connection may notice its own death from
  // inside its read/write callbacks, and destroying it there would free the
  // object under its own stack frame.
  reap_scheduled_ = true;
  loop_.AddTimer(0, [this]() {
    reap_scheduled_ = false;
    ReapConnections();
  });
}

void Node::ForgetConn(Connection* conn) {
  for (auto it = waiting_clients_.begin(); it != waiting_clients_.end();) {
    if (it->second == conn) {
      // The command may still execute; on durable nodes its result lands in
      // the completion cache for the client's resubmission.
      it = waiting_clients_.erase(it);
    } else {
      ++it;
    }
  }
  dirty_conns_.erase(std::remove(dirty_conns_.begin(), dirty_conns_.end(), conn),
                     dirty_conns_.end());
  paused_conns_.erase(std::remove(paused_conns_.begin(), paused_conns_.end(), conn),
                      paused_conns_.end());
}

void Node::ReapConnections() {
  for (auto& holder : anonymous_) {
    if (holder->closed()) {
      ForgetConn(holder.get());
      holder = nullptr;
    }
  }
  anonymous_.erase(std::remove(anonymous_.begin(), anonymous_.end(), nullptr),
                   anonymous_.end());
}

void Node::OnShardPeerLost(uint32_t shard, common::ProcessId peer) {
  if (!shards_.stopped(shard)) {
    ScheduleRedial({peer, shard});
  }
}

void Node::ScheduleRedial(PeerLane pl) {
  // Mesh rule: this node dials higher ids; a lost lower-id peer re-dials us
  // when it notices the loss (or restarts).
  if (pl.first < self_ || dialing_.count(pl) > 0) {
    return;
  }
  common::Duration delay = kRedialFloor;
  auto it = redial_backoff_.find(pl);
  if (it != redial_backoff_.end()) {
    delay = it->second;
  }
  redial_backoff_[pl] = std::min<common::Duration>(delay * 2, kRedialCap);
  loop_.AddTimer(delay, [this, pl]() {
    // A backoff entry marks a lane still waiting for its connection; it is
    // gone once the lane reconnected (maybe through an earlier dial).
    if (redial_backoff_.count(pl) > 0) {
      DialPeer(pl);
    }
  });
}

// ---------------------------------------------------------------------------

Client::Client(const std::string& host, uint16_t port)
    : Client(host, port, Options()) {}

Client::Client(const std::string& host, uint16_t port, Options opts)
    : host_(host), port_(port), opts_(opts) {}

Client::~Client() { Disconnect(); }

void Client::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  in_.clear();
  in_off_ = 0;
}

bool Client::Connect() {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return false;
  }
  sockaddr_in addr = LoopbackAddr(PeerAddress{host_, port_});
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    fd_ = -1;
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  frame_.Clear();
  size_t at = wire::BeginFrame(frame_);
  frame_.U8(wire::kFrameClientHello);
  wire::EndFrame(frame_, at);
  return wire::SendAll(fd_, frame_.buffer().data(), frame_.size());
}

bool Client::Send(const smr::Command& cmd) {
  if (fd_ < 0) {
    return false;
  }
  frame_.Clear();
  size_t at = wire::BeginFrame(frame_);
  frame_.U8(wire::kFrameMessage);
  msg::EncodeClientRequest(frame_, cmd);
  wire::EndFrame(frame_, at);
  return wire::SendAll(fd_, frame_.buffer().data(), frame_.size());
}

bool Client::RecvReply(uint64_t* seq_out, std::string* result_out) {
  if (fd_ < 0) {
    return false;
  }
  while (true) {
    size_t avail = in_.size() - in_off_;
    if (avail >= 4) {
      uint32_t frame_len;
      std::memcpy(&frame_len, in_.data() + in_off_, 4);
      if (avail - 4 >= frame_len) {
        codec::Reader r(in_.data() + in_off_ + 4, frame_len);
        if (r.U8() != wire::kFrameMessage) {
          return false;
        }
        msg::Message m;
        if (!msg::Decode(r, m)) {
          return false;
        }
        in_off_ += 4 + frame_len;
        auto* reply = msg::get_if<msg::ClientReply>(&m);
        if (reply == nullptr) {
          return false;
        }
        if (seq_out != nullptr) {
          *seq_out = reply->seq;
        }
        if (result_out != nullptr) {
          *result_out = reply->dropped ? "<dropped>" : reply->value;
        }
        return true;
      }
    }
    // Out of whole frames: drop the parsed prefix once, then read more.
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(in_off_));
    in_off_ = 0;
    uint8_t buf[4096];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    in_.insert(in_.end(), buf, buf + n);
  }
}

bool Client::Call(const smr::Command& cmd, std::string* result_out) {
  for (int attempt = 0;; attempt++) {
    if (attempt > 0) {
      // The socket died mid-request (server killed/restarted). Reconnect and
      // resubmit the same (client, seq): durable nodes deduplicate, answering
      // a completed command from their cache instead of re-executing it.
      Disconnect();
      usleep(static_cast<useconds_t>(opts_.retry_backoff));
    }
    bool ok = fd_ >= 0 || Connect();
    if (ok) {
      ok = Send(cmd);
    }
    if (ok) {
      // With one outstanding request the next reply is ours; skip stale
      // frames (e.g. a pre-disconnect duplicate) defensively all the same.
      uint64_t seq = 0;
      ok = false;
      while (RecvReply(&seq, result_out)) {
        if (seq == cmd.seq) {
          return true;
        }
      }
    }
    if (attempt >= opts_.max_retries) {
      gave_up_++;
      return false;
    }
  }
}

}  // namespace rt
