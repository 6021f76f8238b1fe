// Set of disjoint closed uint64 ranges, used for received packet numbers,
// acked stream bytes and retransmission scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace wira::quic {

/// Closed interval [lo, hi].
struct Range {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint64_t length() const { return hi - lo + 1; }
  bool operator==(const Range&) const = default;
};

class RangeSet {
 public:
  /// Adds [lo, hi] (inclusive), merging with neighbours.
  void add(uint64_t lo, uint64_t hi);
  void add(uint64_t v) { add(v, v); }

  /// Removes [lo, hi] from the set (splitting ranges as needed).
  void subtract(uint64_t lo, uint64_t hi);

  bool contains(uint64_t v) const;
  bool empty() const { return ranges_.empty(); }
  size_t size() const { return ranges_.size(); }
  uint64_t total_length() const;

  uint64_t min() const { return ranges_.begin()->first; }
  /// The lowest range; the set must not be empty.
  Range front() const {
    return Range{ranges_.begin()->first, ranges_.begin()->second};
  }
  uint64_t max() const { return ranges_.rbegin()->second; }

  /// Ranges in ascending order.
  std::vector<Range> ascending() const;
  /// Ranges in descending order (ACK frame layout).
  std::vector<Range> descending() const;

  /// Visits up to `max_ranges` ranges in descending order without
  /// materializing a vector (the ACK build path calls this per ack).
  template <typename Fn>
  void visit_descending(Fn&& fn, size_t max_ranges = SIZE_MAX) const {
    size_t n = 0;
    for (auto it = ranges_.rbegin(); it != ranges_.rend() && n < max_ranges;
         ++it, ++n) {
      fn(Range{it->first, it->second});
    }
  }

  /// Pops up to `max_len` values from the lowest range; returns the popped
  /// range (length 0 length field == 0 means empty -> check before).
  Range pop_front(uint64_t max_len);

  void clear() { ranges_.clear(); }

 private:
  std::map<uint64_t, uint64_t> ranges_;  ///< lo -> hi, disjoint, gaps >= 2
};

}  // namespace wira::quic
