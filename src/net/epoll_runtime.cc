#include "net/epoll_runtime.h"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace wira::net {

EpollRuntime::EpollRuntime(sim::EventLoop& loop) : loop_(loop) {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    error_ = std::string("epoll_create1: ") + std::strerror(errno);
    return;
  }
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (timer_fd_ < 0) {
    error_ = std::string("timerfd_create: ") + std::strerror(errno);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = timer_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
    error_ = std::string("epoll_ctl(timerfd): ") + std::strerror(errno);
    ::close(timer_fd_);
    timer_fd_ = -1;
  }
}

EpollRuntime::~EpollRuntime() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool EpollRuntime::add_fd(int fd, FdHandler handler) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::move(handler);
  return true;
}

void EpollRuntime::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EpollRuntime::arm_timer() {
  // Absolute MONOTONIC arming: the loop's clock IS CLOCK_MONOTONIC in
  // real mode, so next_event_time() converts without arithmetic.  A past
  // deadline fires immediately; kNoEvent disarms (it_value all-zero).
  const TimeNs next = loop_.next_event_time();
  if (next == armed_) return;
  armed_ = next;
  itimerspec its{};
  if (next != sim::EventLoop::kNoEvent) {
    // A 0 it_value disarms, so clamp a (theoretical) t=0 deadline to 1ns.
    const TimeNs t = next > 0 ? next : 1;
    its.it_value.tv_sec = static_cast<time_t>(t / 1'000'000'000);
    its.it_value.tv_nsec = static_cast<long>(t % 1'000'000'000);
  }
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
}

bool EpollRuntime::run(const std::function<bool()>& done, int tick_ms) {
  epoll_event events[64];
  while (!done()) {
    arm_timer();
    const int n = ::epoll_wait(epoll_fd_, events, 64, tick_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("epoll_wait: ") + std::strerror(errno);
      return false;
    }
    // Fire due loop events first, and again before each handler, so
    // every handler observes a fresh clock and its schedule_in() delays
    // are relative to real now, not to the start of a batch a slow
    // sibling handler has already aged.
    sync_now();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == timer_fd_) {
        uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        armed_ = -1;  // a one-shot timerfd disarms when it fires
        continue;
      }
      sync_now();
      const auto it = handlers_.find(fd);
      // A handler may remove_fd() a sibling that is also in this batch.
      if (it != handlers_.end()) it->second(events[i].events);
    }
    // End of a dispatch batch = a tick boundary: anything the handlers
    // bump-allocated (parsed packets, frame views) is dead by the arena
    // contract, exactly as when the sim clock advances.  Without this an
    // idle-timer-free stretch of pure datagram traffic would grow the
    // arena unboundedly, because run_until only rewinds it when a
    // *scheduled event* moves the clock.
    loop_.arena().reset();
  }
  return true;
}

}  // namespace wira::net
