#include "src/rt/connection.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/check.h"
#include "src/rt/wire.h"

namespace rt {

Connection::Connection(EventLoop* loop, int fd, Handler* handler, std::string unread)
    : loop_(loop), fd_(fd), handler_(handler), in_(unread.begin(), unread.end()) {
  int flags = fcntl(fd_, F_GETFL, 0);
  CHECK_GE(flags, 0);
  CHECK_GE(fcntl(fd_, F_SETFL, flags | O_NONBLOCK), 0);
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  loop_->WatchFd(fd_, EPOLLIN, [this](uint32_t events) { OnReady(events); });
}

Connection::~Connection() {
  if (fd_ >= 0) {
    loop_->UnwatchFd(fd_);
    close(fd_);
  }
}

void Connection::QueueFrame(const std::vector<uint8_t>& payload) {
  if (closed_) {
    return;
  }
  uint8_t header[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(header, &len, 4);
  out_.insert(out_.end(), header, header + 4);
  out_.insert(out_.end(), payload.begin(), payload.end());
}

void Connection::Flush() {
  if (closed_) {
    return;
  }
  size_t sent = 0;
  while (sent < out_.size()) {
    ssize_t n = send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
        MarkClosed();  // EPIPE / ECONNRESET: the reader is gone
        return;
      }
      break;
    }
  }
  out_.erase(out_.begin(), out_.begin() + static_cast<ptrdiff_t>(sent));
  UpdateInterest();
}

void Connection::UpdateInterest() {
  uint32_t events = 0;
  if (!input_paused_) {
    events |= EPOLLIN;
  }
  if (!out_.empty()) {
    events |= EPOLLOUT;
  }
  loop_->ModifyFd(fd_, events);
}

bool Connection::PauseInput() {
  if (closed_ || input_paused_) {
    return false;
  }
  input_paused_ = true;
  UpdateInterest();
  return true;
}

void Connection::ResumeInput() {
  if (closed_ || !input_paused_) {
    return;
  }
  input_paused_ = false;
  UpdateInterest();
  ReadAll();
}

void Connection::OnReady(uint32_t events) {
  if (events & EPOLLOUT) {
    Flush();
  }
  if (!closed_ && (events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
    ReadAll();
  }
}

void Connection::ReadAll() {
  uint8_t buf[16 * 1024];
  bool eof = false;
  while (true) {
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;  // drained; level-triggered epoll reports anything newer
      }
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
      break;
    }
  }
  ConsumeInput();
  if (eof && !closed_) {
    MarkClosed();
  }
}

void Connection::ConsumeInput() {
  size_t off = 0;
  while (in_.size() - off >= 4) {
    uint32_t len;
    std::memcpy(&len, in_.data() + off, 4);
    if (len > wire::kMaxFrameBytes) {
      MarkClosed();
      break;
    }
    if (in_.size() - off - 4 < len) {
      break;
    }
    parsed_ = off + 4 + len;
    handler_->OnFrame(this, in_.data() + off + 4, len);
    if (fd_ < 0) {
      return;  // released mid-parse: the new owner took the rest
    }
    off = parsed_;
  }
  parsed_ = 0;
  if (off > 0) {
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(off));
  }
}

int Connection::Release(std::string* unread) {
  CHECK_GE(fd_, 0);
  unread->assign(in_.begin() + static_cast<ptrdiff_t>(parsed_), in_.end());
  in_.clear();
  out_.clear();
  loop_->UnwatchFd(fd_);
  int fd = fd_;
  fd_ = -1;
  closed_ = true;
  return fd;
}

void Connection::Shutdown() {
  if (fd_ >= 0) {
    shutdown(fd_, SHUT_RDWR);
  }
}

void Connection::MarkClosed() {
  if (closed_) {
    return;
  }
  closed_ = true;
  out_.clear();
  // Stop watching now: a dead socket stays readable (EOF) and would spin the
  // loop until the owner gets around to destroying this object.
  loop_->UnwatchFd(fd_);
  handler_->OnClosed(this);
}

}  // namespace rt
