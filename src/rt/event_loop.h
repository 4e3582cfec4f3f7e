// Minimal epoll-based event loop: non-blocking fd callbacks + monotonic timers.
//
// Single-threaded by design: one loop per thread (a node's I/O thread, and each
// shard worker of the threaded runtime). Everything but PostFromAnyThread and
// Stop must run on the loop's thread; those two use an eventfd wakeup.
#ifndef SRC_RT_EVENT_LOOP_H_
#define SRC_RT_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <vector>

#include "src/common/types.h"

namespace rt {

class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t events)>;
  using TimerCallback = std::function<void()>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers fd for the given epoll events (EPOLLIN/EPOLLOUT). Replaces any previous
  // registration.
  void WatchFd(int fd, uint32_t events, FdCallback cb);
  void UnwatchFd(int fd);
  void ModifyFd(int fd, uint32_t events);

  // Monotonic clock, microseconds.
  static common::Time NowUs();

  // One-shot timer.
  uint64_t AddTimer(common::Duration delay, TimerCallback cb);

  // Runs fn on the loop thread (thread-safe).
  void PostFromAnyThread(std::function<void()> fn);

  void Run();   // until Stop()
  void Stop();  // thread-safe

  // One pass: fires due timers, then waits for fd readiness — at most until
  // the next timer, and at most max_wait_ms when that is non-negative; not at
  // all when a timer fired — and dispatches it. Timer waits round up to whole
  // milliseconds, so a pass never wakes before the deadline it waits for.
  // Owners with their own main loop (the shard workers) call this instead of
  // Run().
  void RunOnce(int max_wait_ms);

 private:
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool running_ = false;
  std::vector<epoll_event> events_;  // epoll_wait output, reused

  struct Watch {
    FdCallback cb;
    uint32_t events = 0;
  };
  std::map<int, Watch> watches_;

  struct Timer {
    common::Time deadline;
    uint64_t id;
    TimerCallback cb;
    bool operator>(const Timer& o) const {
      if (deadline != o.deadline) {
        return deadline > o.deadline;
      }
      return id > o.id;
    }
  };
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  uint64_t next_timer_id_ = 1;

  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace rt

#endif  // SRC_RT_EVENT_LOOP_H_
