// Application-layer integration tests: WiraServer + PlayerClient wired
// directly (no exp harness), covering the seams the session runner hides —
// corner case 1 timing, adversarial cookies, scheme plumbing, cookie
// lifecycle, playback conditions.
#include <gtest/gtest.h>

#include "app/player_client.h"
#include "app/wira_server.h"
#include "media/stream_source.h"
#include "sim/path.h"

namespace wira::app {
namespace {

struct Rig {
  sim::EventLoop loop;
  std::unique_ptr<sim::Path> path;
  media::LiveStream stream;
  std::unique_ptr<WiraServer> server;
  ClientCache cache;
  std::unique_ptr<PlayerClient> client;

  explicit Rig(ServerConfig server_cfg = {}, ClientConfig client_cfg = {},
               sim::PathConfig path_cfg = {})
      : stream(
            [] {
              media::StreamProfile p;
              p.stream_id = 1;
              p.iframe_mean_bytes = 50'000;
              p.iframe_intra_cv = 0.05;
              return p;
            }(),
            7) {
    path_cfg.loss_rate = 0;
    path = std::make_unique<sim::Path>(loop, path_cfg, 3);
    if (server_cfg.master_key == crypto::Key{}) {
      server_cfg.master_key = crypto::key_from_string("test-master");
    }
    server_cfg.expected_od_key = core::od_pair_key(
        client_cfg.client_id, client_cfg.server_id, client_cfg.network_type);
    server = std::make_unique<WiraServer>(
        loop, stream, server_cfg, [this](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          path->forward().send(std::move(dg));
        });
    client = std::make_unique<PlayerClient>(
        loop, client_cfg, cache, [this](std::vector<uint8_t> d) {
          sim::Datagram dg;
          dg.size = d.size();
          dg.payload = std::move(d);
          path->reverse().send(std::move(dg));
        });
    path->forward().set_receiver([this](std::span<sim::Datagram> batch) {
      for (sim::Datagram& d : batch) client->on_datagram(d.payload);
    });
    path->reverse().set_receiver([this](std::span<sim::Datagram> batch) {
      for (sim::Datagram& d : batch) server->on_datagram(d.payload);
    });
  }

  void prime_zero_rtt(uint64_t server_id = 1) {
    cache.server_configs[server_id] = server->server_config_id();
  }
};

TEST(App, ParserSeesFlvAndReportsFfSize) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_TRUE(rig.server->parser().complete());
  EXPECT_EQ(rig.server->parser().protocol(), core::ProtocolType::kFlv);
  EXPECT_GT(rig.server->parser().ff_size(), 40'000u);
  EXPECT_TRUE(rig.client->metrics().first_frame_done());
}

TEST(App, CornerCase1InitHappensTwice) {
  // With origin latency, header bytes reach L4 before the I frame: the
  // first apply_init runs with ff_pending, the second with the parsed
  // size.  We verify the end state reflects the parsed FF_Size.
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWiraFF;
  cfg.origin_latency = milliseconds(20);
  Rig rig(cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_TRUE(rig.server->last_init().used_ff_size);
  EXPECT_FALSE(rig.server->last_init().ff_pending);
  EXPECT_EQ(rig.server->last_init().init_cwnd,
            rig.server->parser().ff_size());
}

TEST(App, BaselineSchemeIgnoresSignals) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kBaseline;
  cfg.defaults.init_cwnd_exp = 43'000;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_EQ(rig.server->last_init().init_cwnd, 43'000u);
  EXPECT_FALSE(rig.server->last_init().used_ff_size);
  EXPECT_FALSE(rig.server->last_init().used_hx_qos);
}

TEST(App, ForgedCookieIsRejectedAndFallsBack) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  // Client presents random bytes as a "cookie" (a hostile client trying
  // to claim a huge MaxBW).
  rig.cache.cookies.store(rig.client->od_key(),
                          std::vector<uint8_t>(48, 0xEE), 0);
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_FALSE(rig.server->received_cookie().has_value());
  EXPECT_FALSE(rig.server->last_init().used_hx_qos);
  EXPECT_TRUE(rig.client->metrics().first_frame_done());  // fail-closed
}

TEST(App, CookieFromWrongOdPairRejected) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  // Seal a genuine cookie but bound to a different OD pair.
  core::CookieSealer sealer(crypto::key_from_string("test-master"));
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(40);
  rec.max_bw = mbps(50);
  rec.server_timestamp = 0;
  rec.od_key = core::od_pair_key(999, 999, 0);
  rig.cache.cookies.store(rig.client->od_key(), sealer.seal(rec), 0);
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_FALSE(rig.server->received_cookie().has_value());
}

TEST(App, GenuineCookieIsUsed) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  Rig rig(cfg);
  rig.prime_zero_rtt();
  core::CookieSealer sealer(crypto::key_from_string("test-master"));
  core::HxQosRecord rec;
  rec.min_rtt = milliseconds(40);
  rec.max_bw = mbps(9);
  rec.server_timestamp = 0;
  rec.od_key = rig.client->od_key();
  rig.cache.cookies.store(rig.client->od_key(), sealer.seal(rec), 0);
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_TRUE(rig.server->received_cookie().has_value());
  EXPECT_EQ(rig.server->received_cookie()->max_bw, mbps(9));
  EXPECT_TRUE(rig.server->last_init().used_hx_qos);
  EXPECT_EQ(rig.server->last_init().init_pacing, mbps(9));
}

TEST(App, ClientWithoutCookieSupportGetsNoSync) {
  ClientConfig ccfg;
  ccfg.supports_cookie_sync = false;
  Rig rig({}, ccfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(8));
  // Server still streams; client ends with no cookies.
  EXPECT_TRUE(rig.client->metrics().first_frame_done());
  EXPECT_EQ(rig.cache.cookies.size(), 0u);
}

TEST(App, CookieSyncUpdatesClientStore) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(8));
  EXPECT_GT(rig.server->cookies_synced(), 1u);
  ASSERT_EQ(rig.cache.cookies.size(), 1u);
  auto entry = rig.cache.cookies.lookup(rig.client->od_key());
  ASSERT_TRUE(entry.has_value());
  // The synced blob opens under the server's sealer and carries the
  // session's measured QoS.
  core::CookieSealer sealer(crypto::key_from_string("test-master"));
  auto rec = sealer.open(entry->sealed);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec->valid());
  EXPECT_EQ(rec->od_key, rig.client->od_key());
  EXPECT_NEAR(to_ms(rec->min_rtt), 50.0, 10.0);  // default path RTT
}

TEST(App, ThetaVfChangesPlaybackCondition) {
  ServerConfig scfg;
  scfg.theta_vf = 3;
  ClientConfig ccfg;
  ccfg.theta_vf = 3;
  Rig rig(scfg, ccfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_TRUE(rig.server->parser().complete());
  EXPECT_EQ(rig.server->parser().video_frames_seen(), 3u);
  EXPECT_EQ(rig.server->parser().ff_size(),
            rig.stream.first_frame_size(
                rig.client->metrics().request_sent_at, 3));
}

TEST(App, ManualInitOverrideBypassesScheme) {
  ServerConfig cfg;
  cfg.scheme = core::Scheme::kWira;
  cfg.manual_init = ServerConfig::ManualInit{99'000, mbps(5)};
  Rig rig(cfg);
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_EQ(rig.server->last_init().init_cwnd, 99'000u);
  EXPECT_EQ(rig.server->last_init().init_pacing, mbps(5));
}

TEST(App, OneRttClientCachesServerConfig) {
  Rig rig;  // no prime: 1-RTT
  rig.client->start();
  rig.loop.run_until(seconds(3));
  EXPECT_TRUE(rig.client->metrics().first_frame_done());
  EXPECT_FALSE(rig.client->metrics().zero_rtt);
  // The REJ's server config is now cached for next time.
  EXPECT_EQ(rig.cache.server_configs.count(1), 1u);
  EXPECT_EQ(rig.cache.server_configs[1], rig.server->server_config_id());
}

TEST(App, FirstFrameBytesMatchParserFfSize) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(3));
  ASSERT_TRUE(rig.client->metrics().first_frame_done());
  // The client's demuxer position at frame 1 equals the parser's FF_Size
  // minus the final PreviousTagSize field (the demuxer callback fires at
  // the end of the tag body; Algorithm 1 counts the trailing field too).
  EXPECT_EQ(rig.client->metrics().first_frame_bytes +
                media::kFlvPreviousTagSize,
            rig.server->parser().ff_size());
}

// A viewer's CONNECTION_CLOSE ends the server's origin work: the live
// tail stops re-arming and the cookie sync (every 3 s) stops, so the
// loop drains long before the 12 s stream horizon.
TEST(App, LiveTailStopsOnceTheViewerCloses) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  rig.loop.run_until(seconds(1));
  ASSERT_TRUE(rig.client->metrics().first_frame_done());
  rig.client->connection().close(0, "viewer left");
  rig.loop.run_until(seconds(4));
  EXPECT_TRUE(rig.server->connection().closed());
  EXPECT_TRUE(rig.loop.empty());
}

// Destroying a server mid-stream cancels everything it still has queued,
// so its loop may keep running.
TEST(App, DestroyedServerLeavesNothingQueued) {
  Rig rig;
  rig.prime_zero_rtt();
  rig.client->start();
  // Close mid-way through the tail's second second, so its deliveries
  // and next re-arm are queued when the close lands.
  rig.loop.run_until(milliseconds(1500));
  ASSERT_TRUE(rig.client->metrics().first_frame_done());
  rig.client->connection().close(0, "viewer left");
  rig.loop.run_until(milliseconds(1600));
  ASSERT_TRUE(rig.server->connection().closed());
  EXPECT_FALSE(rig.loop.empty());
  rig.server.reset();
  EXPECT_TRUE(rig.loop.empty());
}

// A server whose stream went on air at stream_epoch serves a viewer who
// joins t later exactly what an epoch-0 server serves a viewer joining at
// t: the joined GOP follows the epoch, not the absolute loop time.
TEST(App, StreamEpochAnchorsTheJoinedGop) {
  const auto first_frame = [](TimeNs start, TimeNs epoch) {
    ServerConfig cfg;
    cfg.stream_epoch = epoch;
    Rig rig(cfg);
    rig.prime_zero_rtt();
    rig.loop.run_until(start);
    rig.client->start();
    rig.loop.run_until(start + seconds(2));
    EXPECT_TRUE(rig.client->metrics().first_frame_done());
    return std::pair(rig.client->metrics().first_frame_bytes,
                     rig.server->parser().ff_size());
  };
  const TimeNs on_air = seconds(37);  // mid-GOP 18 of the 2 s GOPs
  EXPECT_EQ(first_frame(on_air + milliseconds(300), on_air),
            first_frame(milliseconds(300), 0));
  // Unanchored, the same join lands in a GOP with another I frame.
  EXPECT_NE(first_frame(on_air + milliseconds(300), 0),
            first_frame(milliseconds(300), 0));
}

}  // namespace
}  // namespace wira::app
