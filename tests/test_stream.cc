// Unit tests for stream send/receive machinery: chunking, retransmission
// scheduling, reassembly of out-of-order and overlapping frames.
#include "quic/stream.h"

#include <gtest/gtest.h>

#include <numeric>

namespace wira::quic {
namespace {

std::vector<uint8_t> seq_bytes(size_t n, uint8_t start = 0) {
  std::vector<uint8_t> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

std::vector<uint8_t> vec(std::span<const uint8_t> s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(SendStream, ChunksNewDataInOrder) {
  SendStream s(3);
  s.write(seq_bytes(2500));
  auto a = s.next_chunk(1000);
  auto b = s.next_chunk(1000);
  auto c = s.next_chunk(1000);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->offset, 0u);
  EXPECT_EQ(b->offset, 1000u);
  EXPECT_EQ(c->offset, 2000u);
  EXPECT_EQ(c->data.size(), 500u);
  EXPECT_FALSE(s.next_chunk(1000).has_value());
}

TEST(SendStream, FinOnLastChunk) {
  SendStream s(3);
  s.write(seq_bytes(100), /*fin=*/true);
  auto c = s.next_chunk(1000);
  ASSERT_TRUE(c);
  EXPECT_TRUE(c->fin);
  EXPECT_FALSE(s.has_data_to_send());
}

TEST(SendStream, BareFinAfterData) {
  SendStream s(3);
  s.write(seq_bytes(10));
  auto d = s.next_chunk(100);
  ASSERT_TRUE(d);
  EXPECT_FALSE(d->fin);
  s.write({}, /*fin=*/true);
  auto f = s.next_chunk(100);
  ASSERT_TRUE(f);
  EXPECT_TRUE(f->fin);
  EXPECT_TRUE(f->data.empty());
  EXPECT_EQ(f->offset, 10u);
}

TEST(SendStream, LostRangeIsRetransmittedFirst) {
  SendStream s(3);
  s.write(seq_bytes(3000));
  (void)s.next_chunk(1000);
  (void)s.next_chunk(1000);
  s.on_range_lost(0, 1000, false);
  auto r = s.next_chunk(1000);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->offset, 0u);  // retransmission before new data
  EXPECT_EQ(vec(r->data), seq_bytes(1000));
  auto n = s.next_chunk(1000);
  ASSERT_TRUE(n);
  EXPECT_EQ(n->offset, 2000u);  // then the remaining new data
}

TEST(SendStream, AckedBytesNotRetransmitted) {
  SendStream s(3);
  s.write(seq_bytes(1000));
  (void)s.next_chunk(1000);
  s.on_range_acked(0, 600, false);
  s.on_range_lost(0, 1000, false);  // loss report overlapping the ack
  auto r = s.next_chunk(1000);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->offset, 600u);
  EXPECT_EQ(r->data.size(), 400u);
  EXPECT_FALSE(s.has_data_to_send());
}

// A long-lived stream holds about its unacked bytes: the acked prefix is
// dropped, while offsets, retransmitted bytes and the fin stay exact.
TEST(SendStream, AckedPrefixIsDropped) {
  SendStream s(3);
  const std::vector<uint8_t> data = seq_bytes(100'000, 7);
  s.write(data);
  while (s.next_chunk(1000)) {
  }
  s.on_range_acked(0, 80'000, false);
  EXPECT_EQ(s.bytes_written(), 100'000u);
  EXPECT_LE(s.bytes_retained(), 20'000u);
  // Lost bytes past the dropped prefix are resent as written; a loss
  // report overlapping it resends only the unacked part.
  s.on_range_lost(79'000, 2'000, false);
  auto r = s.next_chunk(5000);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->offset, 80'000u);
  EXPECT_EQ(vec(r->data), std::vector<uint8_t>(data.begin() + 80'000,
                                               data.begin() + 81'000));
  // New data keeps its offsets after the drop.
  EXPECT_EQ(s.write(seq_bytes(10), /*fin=*/true), 100'000u);
  auto n = s.next_chunk(5000);
  ASSERT_TRUE(n);
  EXPECT_EQ(n->offset, 100'000u);
  EXPECT_TRUE(n->fin);
  s.on_range_acked(80'000, 20'010, /*fin_acked=*/true);
  EXPECT_TRUE(s.all_acked());
  EXPECT_EQ(s.pending_bytes(), 0u);
}

TEST(SendStream, AllAckedTracksFin) {
  SendStream s(3);
  s.write(seq_bytes(100), true);
  auto c = s.next_chunk(1000);
  EXPECT_FALSE(s.all_acked());
  s.on_range_acked(0, 100, /*fin_acked=*/false);
  EXPECT_FALSE(s.all_acked());
  s.on_range_acked(0, 0, /*fin_acked=*/true);
  EXPECT_TRUE(s.all_acked());
  (void)c;
}

TEST(SendStream, LostFinIsResent) {
  SendStream s(3);
  s.write(seq_bytes(10), true);
  (void)s.next_chunk(100);
  s.on_range_lost(0, 10, /*fin_lost=*/true);
  auto r = s.next_chunk(100);
  ASSERT_TRUE(r);
  EXPECT_TRUE(r->fin);
}

TEST(SendStream, PendingBytesAccounting) {
  SendStream s(3);
  s.write(seq_bytes(500));
  EXPECT_EQ(s.pending_bytes(), 500u);
  (void)s.next_chunk(200);
  EXPECT_EQ(s.pending_bytes(), 300u);
  s.on_range_lost(0, 200, false);
  EXPECT_EQ(s.pending_bytes(), 500u);
}

TEST(RecvStream, InOrderDelivery) {
  RecvStream s(3);
  std::vector<uint8_t> got;
  bool fin = false;
  s.set_on_data([&](std::span<const uint8_t> d, bool f) {
    got.insert(got.end(), d.begin(), d.end());
    fin |= f;
  });
  s.on_frame(0, seq_bytes(100), false);
  s.on_frame(100, seq_bytes(50, 100), true);
  EXPECT_EQ(got.size(), 150u);
  EXPECT_TRUE(fin);
  EXPECT_TRUE(s.finished());
}

TEST(RecvStream, OutOfOrderReassembly) {
  RecvStream s(3);
  std::vector<uint8_t> got;
  s.set_on_data([&](std::span<const uint8_t> d, bool) {
    got.insert(got.end(), d.begin(), d.end());
  });
  const auto all = seq_bytes(300);
  s.on_frame(200, {all.begin() + 200, all.end()}, false);
  EXPECT_TRUE(got.empty());
  s.on_frame(100, {all.begin() + 100, all.begin() + 200}, false);
  EXPECT_TRUE(got.empty());
  s.on_frame(0, {all.begin(), all.begin() + 100}, false);
  EXPECT_EQ(got, all);
}

TEST(RecvStream, DuplicateAndOverlapTrimmed) {
  RecvStream s(3);
  std::vector<uint8_t> got;
  s.set_on_data([&](std::span<const uint8_t> d, bool) {
    got.insert(got.end(), d.begin(), d.end());
  });
  const auto all = seq_bytes(200);
  s.on_frame(0, {all.begin(), all.begin() + 120}, false);
  s.on_frame(80, {all.begin() + 80, all.end()}, false);  // overlaps 40 bytes
  s.on_frame(0, {all.begin(), all.begin() + 120}, false);  // full duplicate
  EXPECT_EQ(got, all);
  EXPECT_EQ(s.contiguous_bytes(), 200u);
}

TEST(RecvStream, HighestSeenTracksGaps) {
  RecvStream s(3);
  s.set_on_data([](std::span<const uint8_t>, bool) {});
  s.on_frame(500, seq_bytes(100), false);
  EXPECT_EQ(s.highest_seen(), 600u);
  EXPECT_EQ(s.contiguous_bytes(), 0u);
}

TEST(RecvStream, OutOfOrderDataSurvivesSourceBufferReuse) {
  // The copy boundary: on_frame copies out-of-order payloads into the
  // reassembly map, so mutating or freeing the source buffer afterwards
  // must not corrupt what is eventually delivered.
  RecvStream s(3);
  std::vector<uint8_t> got;
  s.set_on_data([&](std::span<const uint8_t> d, bool) {
    got.insert(got.end(), d.begin(), d.end());
  });
  const auto all = seq_bytes(200);
  {
    std::vector<uint8_t> tail(all.begin() + 100, all.end());
    s.on_frame(100, tail, false);
    std::fill(tail.begin(), tail.end(), 0xFF);  // mutate after hand-off
  }  // ...and free it
  {
    std::vector<uint8_t> head(all.begin(), all.begin() + 100);
    s.on_frame(0, head, false);
    std::fill(head.begin(), head.end(), 0xEE);
  }
  EXPECT_EQ(got, all);
}

TEST(RecvStream, InOrderFastPathDeliversBorrowedBytes) {
  // In-order data with an empty reassembly map is delivered zero-copy:
  // the callback span must alias the caller's buffer.
  RecvStream s(3);
  const uint8_t* seen = nullptr;
  size_t seen_len = 0;
  s.set_on_data([&](std::span<const uint8_t> d, bool) {
    seen = d.data();
    seen_len = d.size();
  });
  const auto data = seq_bytes(64);
  s.on_frame(0, data, false);
  ASSERT_EQ(seen_len, 64u);
  EXPECT_EQ(seen, data.data());
}

// The segment cache recycles reassembly map nodes and their buffers
// across streams (one cache per event loop in production).  Delivery
// must stay byte-identical while the graveyard absorbs retired nodes
// and hands them back, bounded by kMaxNodes.
TEST(RecvStream, SegmentCacheRecyclesAcrossStreams) {
  RecvSegmentCache cache;
  const auto all = seq_bytes(240);
  for (int round = 0; round < 3; ++round) {
    RecvStream s(3, &cache);
    std::vector<uint8_t> got;
    s.set_on_data([&](std::span<const uint8_t> d, bool) {
      got.insert(got.end(), d.begin(), d.end());
    });
    s.on_frame(160, {all.begin() + 160, all.end()}, false);
    s.on_frame(80, {all.begin() + 80, all.begin() + 160}, false);
    s.on_frame(0, {all.begin(), all.begin() + 80}, false);
    EXPECT_EQ(got, all) << "round " << round;
  }
  EXPECT_FALSE(cache.graveyard.empty());
  EXPECT_LE(cache.graveyard.size(), RecvSegmentCache::kMaxNodes);
}

// Segments still parked at stream destruction (a gap never filled) must
// land in the cache too, not leak or dangle.
TEST(RecvStream, SegmentCacheAbsorbsUndeliveredSegmentsAtDestruction) {
  RecvSegmentCache cache;
  {
    RecvStream s(3, &cache);
    s.set_on_data([](std::span<const uint8_t>, bool) {});
    s.on_frame(100, seq_bytes(50), false);  // never delivered: gap at 0
    EXPECT_TRUE(cache.graveyard.empty());
  }
  EXPECT_EQ(cache.graveyard.size(), 1u);
}

TEST(RecvStream, FinWithoutDataCompletes) {
  RecvStream s(3);
  bool fin = false;
  s.set_on_data([&](std::span<const uint8_t>, bool f) { fin |= f; });
  s.on_frame(0, seq_bytes(10), false);
  s.on_frame(10, {}, true);
  EXPECT_TRUE(fin);
  EXPECT_TRUE(s.finished());
}

}  // namespace
}  // namespace wira::quic
