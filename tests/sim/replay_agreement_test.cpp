// Sim-vs-real agreement: the same WorkloadTrace replayed through the
// slotted simulator (sim::replay_sim) and against a live paced PeerServer
// over TCP (net::replay_live) must tell the same story — per-user goodput
// and Equation (2) shares within the ±15% tolerance of replay_agrees().
//
// Parameters are deliberately small and validated: 3 users over a
// 12-slot (0.6 s) horizon, 20000-byte files at 8 Mbit/s wire rate keep a
// full sim+live round under a couple of seconds while leaving each user
// several files of work, enough for pacing shares to express themselves.
#include <gtest/gtest.h>

#include <string>

#include "coding/params.hpp"
#include "net/replay_driver.hpp"
#include "sim/replay.hpp"
#include "sim/workload.hpp"

namespace {

using namespace fairshare;

constexpr std::uint64_t kFileBytes = 20000;
constexpr double kRateKbps = 8000.0;
constexpr double kSlotSeconds = 0.05;
const coding::CodingParams kParams{gf::FieldId::gf2_32, 256};

double overhead() {
  coding::FileInfo shape;
  shape.original_bytes = kFileBytes;
  shape.params = kParams;
  shape.k = coding::chunks_for_bytes(kFileBytes, kParams);
  return net::wire_overhead_factor(shape);
}

sim::ReplayReport run_sim(const sim::WorkloadTrace& trace) {
  sim::SimReplayConfig config;
  config.rate_kbps = kRateKbps;
  config.slot_seconds = kSlotSeconds;
  config.quantize_bytes = kFileBytes;
  config.wire_overhead = overhead();
  return sim::replay_sim(trace, config);
}

sim::ReplayReport run_live(const sim::WorkloadTrace& trace) {
  net::LiveReplayConfig config;
  config.rate_kbps = kRateKbps;
  config.slot_seconds = kSlotSeconds;
  return net::replay_live(trace, kFileBytes, kParams, config);
}

void expect_agreement(const sim::WorkloadTrace& trace, const char* family) {
  const sim::ReplayReport sim_report = run_sim(trace);
  const sim::ReplayReport live_report = run_live(trace);
  EXPECT_EQ(sim_report.transfers_failed, 0u) << family;
  EXPECT_EQ(live_report.transfers_failed, 0u) << family;
  std::string why;
  EXPECT_TRUE(
      sim::replay_agrees(sim_report, live_report, sim::AgreementOptions{}, &why))
      << family << ": " << why << "\nsim: " << sim::to_json(sim_report)
      << "\nlive: " << sim::to_json(live_report);
}

TEST(ReplayAgreement, PoissonFamily) {
  sim::PoissonConfig config;
  config.users = 3;
  config.horizon = 12;
  config.mean_bytes = kFileBytes;
  config.seed = 1;
  expect_agreement(sim::poisson_trace(config), "poisson");
}

TEST(ReplayAgreement, ZipfFamily) {
  sim::ZipfConfig config;
  config.users = 3;
  config.horizon = 12;
  config.events = 24;
  config.mean_bytes = kFileBytes;
  config.seed = 1;
  expect_agreement(sim::zipf_trace(config), "zipf");
}

TEST(ReplayAgreement, FlashCrowdFamily) {
  sim::FlashCrowdConfig config;
  config.users = 3;
  config.horizon = 12;
  config.mean_bytes = kFileBytes;
  config.seed = 1;
  expect_agreement(sim::flash_crowd_trace(config), "flash");
}

// The sim side alone must be bit-stable per seed: same trace + same config
// -> byte-identical JSON, the determinism half of the acceptance bar.
TEST(ReplayAgreement, SimReplayIsDeterministic) {
  sim::FlashCrowdConfig config;
  config.users = 3;
  config.horizon = 12;
  config.mean_bytes = kFileBytes;
  config.seed = 3;
  const sim::WorkloadTrace trace = sim::flash_crowd_trace(config);
  const std::string a = sim::to_json(run_sim(trace));
  const std::string b = sim::to_json(run_sim(trace));
  EXPECT_EQ(a, b);
}

// Negative control: replay_agrees must actually catch divergence and name
// the offending user/quantity, or the family tests above prove nothing.
TEST(ReplayAgreement, DetectsGoodputDivergence) {
  sim::PoissonConfig config;
  config.users = 3;
  config.horizon = 12;
  config.mean_bytes = kFileBytes;
  config.seed = 2;
  const sim::WorkloadTrace trace = sim::poisson_trace(config);
  const sim::ReplayReport a = run_sim(trace);
  sim::ReplayReport b = a;
  ASSERT_FALSE(b.users.empty());
  b.users[0].goodput_bps *= 1.4;  // 40% off, outside the 15% tolerance
  std::string why;
  EXPECT_FALSE(sim::replay_agrees(a, b, sim::AgreementOptions{}, &why));
  EXPECT_NE(why.find("goodput"), std::string::npos) << why;
}

}  // namespace
