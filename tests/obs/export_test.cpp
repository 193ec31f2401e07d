// The JSON exporter against its committed golden file, plus the
// structural guarantees downstream consumers rely on (line-oriented JSON,
// atomic dump_json).
//
// Regenerate the golden after an intentional format change with
//   FAIRSHARE_REGEN_GOLDEN=1 ./obs_export_test
// and review the diff before committing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

#ifndef OBS_GOLDEN_DIR
#define OBS_GOLDEN_DIR "."
#endif

namespace {

using namespace fairshare;

/// A registry whose exporter output is fully deterministic: fixed counter
/// and gauge values, fixed histogram samples, and spans pushed with pinned
/// timestamps (bypassing TraceSpan's real clock).
void fill_registry(obs::MetricsRegistry& reg) {
  reg.counter("fairshare_demo_requests_total", {{"peer", "1"}, {"user", "2"}})
      .add(5);
  reg.counter("fairshare_demo_requests_total", {{"peer", "2"}, {"user", "2"}})
      .add(7);
  reg.counter("plain_total").add(1);
  reg.gauge("fairshare_demo_rate_kbps", {{"user", "2"}}).set(768.25);
  // Exercise escaping in names and label values.
  reg.gauge("needs sanitizing!", {{"key", "quote\"back\\slash"}}).set(-1.5);
  obs::Histogram& h = reg.histogram("fairshare_demo_latency_ns");
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1000ull,
                          123456ull, (1ull << 40) + 5})
    h.record(v);
  obs::SpanRecord a;
  a.id = 11;
  a.parent = 0;
  a.start_ns = 1000;
  a.duration_ns = 500;
  a.name = "outer";
  reg.spans().push(a);
  obs::SpanRecord b;
  b.id = 12;
  b.parent = 11;
  b.start_ns = 1100;
  b.duration_ns = 200;
  b.name = "inner";
  reg.spans().push(b);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void compare_golden(const std::string& actual, const std::string& file) {
  const std::string path = std::string(OBS_GOLDEN_DIR) + "/" + file;
  if (std::getenv("FAIRSHARE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  EXPECT_EQ(actual, expected) << "exporter output drifted from " << path
                              << "; regenerate deliberately if intended";
}

TEST(Export, JsonMatchesGolden) {
  obs::MetricsRegistry reg;
  fill_registry(reg);
  compare_golden(obs::to_json(reg), "registry.json");
}

TEST(Export, JsonIsLineOriented) {
  obs::MetricsRegistry reg;
  fill_registry(reg);
  std::istringstream json(obs::to_json(reg));
  // Every sample occupies exactly one line beginning with '{' — the
  // contract fairshare_cli stats and the benches parse by.
  std::size_t samples = 0;
  for (std::string line; std::getline(json, line);) {
    if (line.empty() || line[0] != '{' ||
        line.find("\"name\":") == std::string::npos)
      continue;
    ++samples;
    const char last = line.back();
    EXPECT_TRUE(last == '}' || last == ',') << line;
  }
  EXPECT_EQ(samples, 3 + 2 + 1 + 2);  // counters + gauges + histogram + spans
}

TEST(Export, DumpJsonWritesAtomically) {
  obs::MetricsRegistry reg;
  reg.counter("c_total").add(9);
  const std::string path = "obs_export_test_dump.json";
  ASSERT_TRUE(obs::dump_json(reg, path));
  const std::string body = read_file(path);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"c_total\""), std::string::npos);
  // The temp file was renamed away, not left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
