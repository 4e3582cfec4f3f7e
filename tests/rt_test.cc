// Real-runtime tests: a P=1 Atlas deployment (one shard worker per node) over
// actual TCP sockets on localhost (rt_sharded_test covers P>1), plus the
// peer-death paths every socket write must survive: a reader that vanished
// while frames were queued to it is a closed connection (EPIPE), never a
// process-killing SIGPIPE.
#include "src/rt/node.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

#include "src/codec/codec.h"
#include "src/msg/message.h"
#include "src/rt/connection.h"
#include "src/rt/wire.h"
#include "src/smr/deployment.h"
#include "tests/rt_test_util.h"

namespace rt {
namespace {

smr::DeploymentOptions AtlasOptions(uint32_t n, uint32_t partitions) {
  smr::DeploymentOptions d;
  d.protocol = smr::Protocol::kAtlas;
  d.n = n;
  d.f = 1;
  d.partitions = partitions;
  return d;
}

std::vector<std::unique_ptr<smr::Deployment>> MakeReplicas(uint32_t n,
                                                           uint32_t partitions) {
  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  for (uint32_t i = 0; i < n; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(AtlasOptions(n, partitions)));
  }
  return replicas;
}

TEST(RtTest, ThreeNodeClusterServesClients) {
  auto replicas = MakeReplicas(3, 1);
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  Client client("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(ConnectWithRetry(client));

  std::string result;
  ASSERT_TRUE(client.Call(smr::MakePut(1, 1, "k", "hello"), &result));
  ASSERT_TRUE(client.Call(smr::MakeGet(1, 2, "k"), &result));
  EXPECT_EQ(result, "hello");
  ASSERT_TRUE(client.Call(smr::MakeRmw(1, 3, "k", "!"), &result));
  EXPECT_EQ(result, "hello");
  ASSERT_TRUE(client.Call(smr::MakeGet(1, 4, "k"), &result));
  EXPECT_EQ(result, "hello!");

  // A second client at another replica observes the same data (linearizable read
  // via SMR execution at that site).
  Client client2("127.0.0.1", cluster.port(1));
  ASSERT_TRUE(client2.Connect());
  ASSERT_TRUE(client2.Call(smr::MakeGet(2, 1, "k"), &result));
  EXPECT_EQ(result, "hello!");

  // kBatch is an internal composite; a client injecting one (here with a
  // garbage payload that would fail the deployment's unpack CHECK) must be
  // rejected at the node, not crash the cluster.
  smr::Command bogus_batch;
  bogus_batch.client = 2;
  bogus_batch.seq = 2;
  bogus_batch.op = smr::Op::kBatch;
  bogus_batch.key = "k";
  ASSERT_TRUE(client2.Call(bogus_batch, &result));
  EXPECT_EQ(result, "<dropped>");
  ASSERT_TRUE(client2.Call(smr::MakeGet(2, 3, "k"), &result));
  EXPECT_EQ(result, "hello!");

  cluster.Stop();
  // The replicas that served clients applied identical state.
  EXPECT_EQ(replicas[0]->store().StateDigest(), replicas[1]->store().StateDigest());
}

// A port someone else is listening on makes Listen fail cleanly — no abort.
TEST(RtTest, ListenOnTakenPortReturnsFalse) {
  auto replicas = MakeReplicas(3, 1);
  Node first(0, EphemeralAddrs(3), replicas[0].get());
  ASSERT_TRUE(first.Listen());
  std::vector<PeerAddress> taken = EphemeralAddrs(3);
  taken[0].port = first.port();
  Node second(0, taken, replicas[1].get());
  EXPECT_FALSE(second.Listen());
}

class CountingHandler : public Connection::Handler {
 public:
  void OnFrame(Connection*, const uint8_t*, size_t) override { frames++; }
  void OnClosed(Connection*) override { closed++; }
  int frames = 0;
  int closed = 0;
};

// The deterministic EPIPE case: a stream socket whose reader closed while
// frames were queued to it. Before MSG_NOSIGNAL this write raised SIGPIPE,
// whose default action kills the whole process.
TEST(RtTest, QueuedFramesToClosedReaderCloseTheConnection) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  EventLoop loop;
  CountingHandler handler;
  Connection conn(&loop, sv[0], &handler);
  std::vector<uint8_t> payload(1024, 7);
  for (int i = 0; i < 64; i++) {
    conn.QueueFrame(payload);
  }
  close(sv[1]);
  conn.Flush();
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(handler.closed, 1);
  EXPECT_EQ(conn.queued_bytes(), 0u);
  conn.SendFrame(payload);  // writes to a closed connection are dropped
  EXPECT_EQ(handler.closed, 1);
}

// Released sockets carry the bytes read past the frame being handled.
TEST(RtTest, ReleaseHandsOverUnparsedBytes) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  EventLoop loop;
  struct ReleasingHandler : Connection::Handler {
    void OnFrame(Connection* conn, const uint8_t*, size_t) override {
      fd = conn->Release(&unread);
    }
    void OnClosed(Connection*) override { closed++; }
    int fd = -1;
    int closed = 0;
    std::string unread;
  } handler;
  Connection conn(&loop, sv[0], &handler);
  codec::Writer w;
  for (uint8_t kind : {wire::kFramePeerHello, wire::kFrameMessage}) {
    size_t at = wire::BeginFrame(w);
    w.U8(kind);
    wire::EndFrame(w, at);
  }
  ASSERT_TRUE(wire::SendAll(sv[1], w.buffer().data(), w.size()));
  loop.RunOnce(1000);
  ASSERT_EQ(handler.fd, sv[0]);
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(handler.closed, 0);
  EXPECT_EQ(handler.unread.size(), 5u);  // the second frame, untouched
  close(handler.fd);
  close(sv[1]);
}

// The client side: a server that vanished surfaces as a failed Send.
TEST(RtTest, ClientSendToVanishedServerFails) {
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  Client client("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.Connect());
  int server_side = accept(lfd, nullptr, nullptr);
  ASSERT_GE(server_side, 0);
  close(server_side);
  close(lfd);
  // The first write after the server's FIN draws a reset, the next fails
  // with ECONNRESET, and any after that with EPIPE — which must fail the call
  // instead of killing the process.
  int failures = 0;
  for (uint64_t seq = 1; seq <= 50 && failures < 2; seq++) {
    failures += client.Send(smr::MakePut(1, seq, "k", "v")) ? 0 : 1;
    usleep(10 * 1000);
  }
  EXPECT_EQ(failures, 2);
}

// A pipelined client reads its replies in bursts: 1500 replies written in one
// go come back whole and in order (the client compacts its buffer once per
// read instead of once per reply, so a burst parses in linear time).
TEST(RtTest, ClientReadsManyRepliesFromOneWriteInOrder) {
  int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 4), 0);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  Client client("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.Connect());
  int server_side = accept(lfd, nullptr, nullptr);
  ASSERT_GE(server_side, 0);

  constexpr uint64_t kReplies = 1500;
  codec::Writer burst;
  for (uint64_t seq = 1; seq <= kReplies; seq++) {
    msg::ClientReply reply;
    reply.client = 1;
    reply.seq = seq;
    reply.value = "v" + std::to_string(seq);
    size_t at = wire::BeginFrame(burst);
    burst.U8(wire::kFrameMessage);
    msg::Encode(burst, msg::Message{reply});
    wire::EndFrame(burst, at);
  }
  EXPECT_EQ(send(server_side, burst.buffer().data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  uint64_t in_order = 0;
  uint64_t seq = 0;
  std::string value;
  for (uint64_t want = 1; want <= kReplies && client.RecvReply(&seq, &value); want++) {
    if (seq != want || value != "v" + std::to_string(want)) {
      ADD_FAILURE() << "reply " << want << " came back as seq " << seq << " value "
                    << value;
      break;
    }
    in_order++;
  }
  EXPECT_EQ(in_order, kReplies);
  close(server_side);
  close(lfd);
}

// Node-level drills: a peer node dies, and separately
// a client disappears, while the survivors still have frames queued to them.
// The survivors must neither die nor wedge.
TEST(RtTest, NodeSurvivesPeerAndClientDeathWithQueuedFrames) {
  auto replicas = MakeReplicas(3, 2);
  LoopbackCluster cluster(replicas);
  ASSERT_TRUE(cluster.ok());

  // A big value, so each get's reply is large and a non-reading client's
  // replies pile up in the node's write buffer.
  const std::string big(64 * 1024, 'x');
  Client setup("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(ConnectWithRetry(setup));
  std::string result;
  ASSERT_TRUE(setup.Call(smr::MakePut(1, 1, "big", big), &result));

  // The client: pipeline gets it never reads, then vanish mid-stream.
  constexpr uint64_t kGets = 256;
  {
    Client flood("127.0.0.1", cluster.port(0));
    ASSERT_TRUE(flood.Connect());
    for (uint64_t seq = 1; seq <= kGets; seq++) {
      ASSERT_TRUE(flood.Send(smr::MakeGet(2, seq, "big")));
    }
    ASSERT_TRUE(cluster.WaitApplied(1 + kGets));
  }  // closes with replies unread and more still queued at the node

  // The peer: keep node 0 and 1 busy while node 2 stops and then goes away.
  std::atomic<bool> stop_traffic{false};
  std::atomic<uint64_t> sent{0};
  const std::string value(4096, 'v');
  std::thread traffic([&]() {
    Client c("127.0.0.1", cluster.port(0));
    if (!c.Connect()) {
      return;
    }
    for (uint64_t seq = 1; !stop_traffic.load(); seq++) {
      if (!c.Send(smr::MakePut(3, seq, "p" + std::to_string(seq % 64), value))) {
        return;
      }
      sent.fetch_add(1);
      if (seq % 16 == 0) {
        usleep(1000);
      }
    }
  });
  while (sent.load() < 200) {
    usleep(1000);
  }
  cluster.node(2).Stop();  // stops reading; peers keep queueing to it
  usleep(200 * 1000);
  stop_traffic.store(true);
  traffic.join();

  // Survivors still serve: node 0's fast quorum is {0, 1}.
  Client after("127.0.0.1", cluster.port(0));
  ASSERT_TRUE(after.Connect());
  ASSERT_TRUE(after.Call(smr::MakePut(4, 1, "after", "ok"), &result));
  ASSERT_TRUE(after.Call(smr::MakeGet(4, 2, "after"), &result));
  EXPECT_EQ(result, "ok");
  cluster.Stop();
}

}  // namespace
}  // namespace rt
