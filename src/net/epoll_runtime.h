// Real-time driver for a sim::EventLoop (DESIGN.md §6).
//
// The discrete-event loop already has exactly the timer-wheel interface
// a real runtime needs: run_until(t) fires everything due at or before t
// and advances the clock, next_event_time() says when the next timer is
// due.  EpollRuntime closes the loop against the kernel:
//
//   arm timerfd to loop.next_event_time()        (absolute MONOTONIC ns)
//   epoll_wait(...)
//   loop.run_until(MonotonicClock::raw_now())    (due timers fire)
//   dispatch readable fds, re-syncing before each (handlers see fresh now)
//
// Timers keep nanosecond-precision arming via timerfd (epoll's ms
// timeout would quantize the pacer), and the loop's clock is raw
// CLOCK_MONOTONIC — the same timebase in every process on the host, so
// cross-process trace pairs join without offset reconciliation.  Session
// objects (quic::Connection, app::WiraServer, app::PlayerClient)
// schedule on the loop exactly as they do in simulation and never see
// the runtime.
//
// Single-threaded like the loop it drives.  Handlers run on the caller's
// thread from within run().
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/clock.h"
#include "sim/event_loop.h"
#include "util/units.h"

namespace wira::net {

class EpollRuntime {
 public:
  /// Called with the epoll event mask when the fd is ready.
  using FdHandler = std::function<void(uint32_t events)>;

  explicit EpollRuntime(sim::EventLoop& loop);
  ~EpollRuntime();
  EpollRuntime(const EpollRuntime&) = delete;
  EpollRuntime& operator=(const EpollRuntime&) = delete;

  /// False when epoll/timerfd setup failed (error() says why).
  bool ok() const { return epoll_fd_ >= 0 && timer_fd_ >= 0; }
  const std::string& error() const { return error_; }

  sim::EventLoop& loop() { return loop_; }

  /// Watches fd (level-triggered, EPOLLIN) and dispatches to handler.
  bool add_fd(int fd, FdHandler handler);
  void remove_fd(int fd);

  /// Synchronizes the loop to real time once: advances the loop clock to
  /// CLOCK_MONOTONIC now, firing everything due.  Call before scheduling
  /// the first event so "loop time 0" never leaks into real mode, and
  /// from a handler that drains many datagrams, before each one.
  void sync_now() { loop_.run_until(MonotonicClock::raw_now()); }

  /// Drives loop + fds until `done()` returns true.  `done` is checked
  /// once per wakeup; wakeups happen on fd activity, on timer expiry and
  /// at least every `tick_ms` (the done-predicate poll bound, e.g. for
  /// signal flags).  Returns false on a fatal epoll error.
  bool run(const std::function<bool()>& done, int tick_ms = 200);

 private:
  void arm_timer();

  sim::EventLoop& loop_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  /// Deadline the timerfd is armed to (kNoEvent: disarmed), or -1 once
  /// it has fired or is unknown; arming the same deadline again is
  /// skipped, saving a timerfd_settime per wakeup.
  TimeNs armed_ = -1;
  std::string error_;
  std::map<int, FdHandler> handlers_;
};

}  // namespace wira::net
