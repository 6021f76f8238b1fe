// Single-threaded discrete-event loop.
//
// All network, transport and application behaviour in this repository is
// driven by one of these: events execute in (time, insertion-order) order on
// a simulated nanosecond clock, so whole experiments are deterministic given
// their seeds.  Many loops may run concurrently (one per simulated session)
// — a loop and everything scheduled on it stay on one thread.
//
// Hot-path design (this is the inner loop of every experiment):
//   - callbacks are SmallFn's: captures up to 64 bytes live inline in a
//     pooled slot instead of behind a std::function heap allocation, and
//     move-only captures (recycled buffers) are allowed;
//   - the binary heap orders 24-byte POD entries {when, seq, id}; the
//     callable never moves during sifting — it stays put in its slot;
//   - cancel() is O(1) generation-stamped lazy deletion: the heap entry
//     stays and is discarded when it surfaces, the callable (and anything
//     it captured) is destroyed immediately — no hash-set lookup per pop;
//   - the loop owns a BufferPool so links/connections recycle datagram
//     buffers instead of allocating per packet;
//   - the loop owns a bump Arena for tick-scoped scratch (parsed packets,
//     frame vectors, ACK ranges): it rewinds in O(1) whenever the clock
//     advances, so the per-datagram structures never touch the heap.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "util/arena.h"
#include "util/buffer_pool.h"
#include "util/small_fn.h"
#include "util/units.h"

namespace wira::sim {

/// Handle for cancelling a scheduled event: packs a slot index and the
/// slot's generation at scheduling time, so a handle outliving its event
/// (slot since reused) cancels nothing.
using EventId = uint64_t;

class EventLoop {
 public:
  using EventFn = util::SmallFn<64>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  TimeNs now() const { return now_; }

  /// Schedules `fn` at absolute simulated time `when` (clamped to now()).
  EventId schedule_at(TimeNs when, EventFn fn);

  /// Schedules `fn` after `delay` nanoseconds.
  EventId schedule_in(TimeNs delay, EventFn fn) {
    return schedule_at(now_ + (delay > 0 ? delay : 0), std::move(fn));
  }

  /// Cancels a pending event; no-op if it already ran or was cancelled.
  void cancel(EventId id);

  /// True while `id` is queued: neither run nor cancelled.
  bool scheduled(EventId id) const {
    const uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].gen == gen_of(id) &&
           !slots_[slot].cancelled;
  }

  /// Returns the loop to its freshly constructed state while KEEPING every
  /// capacity it has grown: callable slots, the heap's backing vector, the
  /// buffer pool's recycled buffers and the arena's blocks all survive, so
  /// a reset loop re-runs a comparable workload without re-paying its
  /// allocations.  Pending callables are destroyed immediately (their
  /// captures release now, exactly as cancel() would) and every
  /// outstanding EventId goes stale.  This is what makes the loop reusable
  /// across sessions (exp::SessionWorkspace): reset + rerun is
  /// behaviourally identical to constructing a new loop.
  void reset();

  /// Runs events until the queue is empty or the clock would pass
  /// `deadline`; returns the number of events executed.
  size_t run_until(TimeNs deadline);

  /// Runs until the queue is empty (or `max_events` executed, as a runaway
  /// guard); returns the number of events executed.
  size_t run(size_t max_events = SIZE_MAX);

  bool empty() const { return live_ == 0; }
  /// Number of scheduled events that are neither run nor cancelled.
  size_t pending() const { return live_; }

  /// Absolute time of the earliest live event, or kNoEvent when the queue
  /// is empty.  This is what lets a real-time driver (net::EpollRuntime)
  /// use the loop as its timer wheel: run_until(clock-now) fires everything
  /// due, next_event_time() says how long the driver may sleep.
  static constexpr TimeNs kNoEvent = INT64_MAX;
  TimeNs next_event_time();

  /// Scratch byte-buffer pool shared by everything driven by this loop.
  util::BufferPool& buffers() { return buffers_; }

  /// Type-keyed scratch objects that persist across reset(): freelists,
  /// node graveyards, pooled containers — anything whose *capacity* should
  /// survive session recycling (exp::SessionWorkspace).  The first
  /// scratch<T>() default-constructs the loop's T; later calls return the
  /// same instance.  Contract: a scratch object must hold capacity-only
  /// state — recycled values have to be fully overwritten before reuse, so
  /// a reset loop stays indistinguishable from a fresh one.  If T declares
  /// `void on_loop_reset()`, reset() invokes it (e.g. to reclaim objects
  /// stranded by cancelled events).
  template <typename T>
  T& scratch() {
    const std::type_index key(typeid(T));
    auto it = scratch_.find(key);
    if (it == scratch_.end()) {
      Scratch s;
      s.ptr = ScratchPtr(new T(), [](void* p) { delete static_cast<T*>(p); });
      if constexpr (requires(T& t) { t.on_loop_reset(); }) {
        s.reset_fn = [](void* p) { static_cast<T*>(p)->on_loop_reset(); };
      }
      it = scratch_.emplace(key, std::move(s)).first;
    }
    return *static_cast<T*>(it->second.ptr.get());
  }

  /// Tick-scoped bump arena: reset whenever the clock advances, so
  /// anything allocated from it must die before the next tick boundary.
  util::Arena& arena() { return arena_; }

 private:
  struct HeapEntry {
    TimeNs when;
    uint64_t seq;  ///< FIFO tiebreak among simultaneous events
    EventId id;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// priority_queue with an O(1) clear that keeps the backing vector's
  /// capacity (std::priority_queue only clears by assignment, which
  /// frees).
  struct EventQueue
      : std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> {
    void clear() { c.clear(); }
  };
  struct Slot {
    EventFn fn;
    uint32_t gen = 0;
    bool cancelled = false;
  };
  using ScratchPtr = std::unique_ptr<void, void (*)(void*)>;
  struct Scratch {
    ScratchPtr ptr{nullptr, [](void*) {}};
    void (*reset_fn)(void*) = nullptr;
  };

  static constexpr uint32_t slot_of(EventId id) {
    return static_cast<uint32_t>(id);
  }
  static constexpr uint32_t gen_of(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }

  bool pop_one();  // executes the next non-cancelled event, if any
  /// Invalidates outstanding handles to the popped event and recycles its
  /// slot; true if the event is live (not cancelled) and should run.
  bool retire(EventId id);
  /// Discards cancelled events sitting at the top of the heap.
  void skip_cancelled();

  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  EventQueue queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  /// 256 buffers: sized for the origin join burst, where one simulated
  /// instant schedules a whole GOP of chunk buffers before any is
  /// delivered back (64 starves, forcing fresh allocations every burst).
  util::BufferPool buffers_{256};
  util::Arena arena_;
  std::unordered_map<std::type_index, Scratch> scratch_;
};

}  // namespace wira::sim
