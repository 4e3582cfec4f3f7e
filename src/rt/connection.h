// Framed, buffered, non-blocking TCP connection on an EventLoop.
//
// The runtime's one framing/buffering implementation: rt::Node's I/O thread
// uses it for client connections (and for a peer connection until its hello
// names the shard), and each shard worker uses it for its own peer sockets.
// Frames follow src/rt/wire.h. Writes use send(..., MSG_NOSIGNAL): a peer that
// vanished while frames were queued to it (EPIPE, ECONNRESET) closes the
// connection instead of killing the process with SIGPIPE.
#ifndef SRC_RT_CONNECTION_H_
#define SRC_RT_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/rt/event_loop.h"

namespace rt {

class Connection {
 public:
  // Callbacks run on the loop's thread. OnClosed fires once, possibly from
  // inside OnFrame or a write; the handler must not destroy the connection
  // synchronously (defer to the loop), since its methods are still on the stack.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void OnFrame(Connection* conn, const uint8_t* data, size_t size) = 0;
    virtual void OnClosed(Connection* conn) = 0;
  };

  // Takes ownership of `fd` and starts watching it on `loop`. `unread` holds
  // bytes another owner already read from the socket; they are parsed on the
  // first ConsumeInput() (or the next readable event).
  Connection(EventLoop* loop, int fd, Handler* handler, std::string unread = {});
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void SendFrame(const std::vector<uint8_t>& payload) {
    QueueFrame(payload);
    Flush();
  }
  // Appends a frame to the write buffer without writing. Owners that produce
  // many frames per pass queue them all, then flush each dirty connection
  // once: one send() per socket per pass. Frames queued on a closed
  // connection are dropped.
  void QueueFrame(const std::vector<uint8_t>& payload);
  void Flush();

  // Parses every whole frame already buffered.
  void ConsumeInput();

  // Input pacing: PauseInput stops watching the socket for input (output
  // still flushes on EPOLLOUT), so newer bytes wait in the kernel socket
  // buffer instead of waking the loop; it returns false if the connection was
  // already paused or closed. ResumeInput watches it again and reads whatever
  // arrived meanwhile, noticing a close that happened while paused. A hang-up
  // or error reported while paused is still read at once.
  bool PauseInput();
  void ResumeInput();

  // Stops watching the socket and hands it over: returns the fd and moves the
  // bytes read but not yet parsed into `unread`. Safe from inside OnFrame
  // (parsing stops after the current frame). The husk reports closed() and
  // never calls OnClosed.
  int Release(std::string* unread);

  // Shuts the socket down in both directions; the loss then surfaces through
  // the normal read path (fault drills).
  void Shutdown();

  bool closed() const { return closed_; }
  size_t queued_bytes() const { return out_.size(); }

  common::ProcessId peer_id = common::kInvalidProcess;  // set by the owning worker
  bool is_client = false;
  bool dirty = false;  // queued frames awaiting the owner's pass-end flush

 private:
  void OnReady(uint32_t events);
  void ReadAll();
  void MarkClosed();
  // Re-registers the epoll interest: input unless paused, output while queued.
  void UpdateInterest();

  EventLoop* loop_;
  int fd_;
  Handler* handler_;
  std::vector<uint8_t> in_;
  std::vector<uint8_t> out_;
  // End of the frame being delivered, while ConsumeInput is inside OnFrame.
  size_t parsed_ = 0;
  bool closed_ = false;
  bool input_paused_ = false;
};

}  // namespace rt

#endif  // SRC_RT_CONNECTION_H_
