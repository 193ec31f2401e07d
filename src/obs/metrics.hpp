// Process-wide observability: cheap thread-safe instruments behind one
// registry, so every layer (net, coding, alloc, sim) reports through the
// same surface and exporters (obs/export.hpp) render one uniform artifact.
//
// Cost model — instruments are safe on hot paths:
//  * Counter::add is one relaxed fetch_add on a per-thread shard (no
//    cache-line ping-pong between recording threads);
//  * Gauge::set is one relaxed store;
//  * Histogram::record is three relaxed fetch_adds plus two bounded CAS
//    loops (min/max) on a fixed log-linear bucket table — no allocation,
//    no locks, ~12.5% worst-case relative quantile error (8 sub-buckets
//    per power of two);
//  * instrument REGISTRATION takes the registry mutex and allocates —
//    callers resolve Counter*/Gauge*/Histogram* once at setup and keep the
//    pointer, never look up per event.  Returned references are stable for
//    the registry's lifetime.
//
// Identity: an instrument is (name, sorted labels).  Looking up the same
// identity twice returns the same instrument; the same name with different
// labels is a different time series (e.g. per-user byte counters).  Names
// follow the Prometheus convention (snake_case, `_total` suffix on
// counters); the JSON exporter writes them as they are.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace fairshare::obs {

/// Label set attached to an instrument; kept sorted by key internally.
using LabelList = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count, sharded so concurrent recorders
/// do not contend on one cache line.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr std::size_t kShards = 8;  // power of two
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t shard_index() noexcept {
    static thread_local const std::size_t idx =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) &
        (kShards - 1);
    return idx;
  }
  std::array<Shard, kShards> shards_;
};

/// Last-written value (rates, ranks, share sizes).  add() is for +1/-1
/// occupancy tracking from multiple threads.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-linear histogram over non-negative integer values
/// (typically nanoseconds): exact buckets below 8, then 8 linear
/// sub-buckets per power of two up to 2^40 (~18 minutes in ns), then one
/// overflow bucket.  record() never allocates or locks.
///
/// Edge semantics (tests/obs/histogram_test.cpp pins these):
///  * negative / NaN inputs clamp to 0 and land in the first bucket;
///  * values >= 2^40 land in the overflow bucket; quantiles falling there
///    report the tracked maximum;
///  * quantiles from an empty histogram are 0;
///  * quantiles are clamped into [min, max] of recorded values, so a
///    single-sample histogram reports that sample exactly;
///  * within one Snapshot, quantile(q) is monotone in q.
class Histogram {
 public:
  static constexpr int kSubBits = 3;            ///< 2^3 sub-buckets
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kMaxPow = 40;            ///< overflow at 2^40
  static constexpr std::size_t kOverflowIndex =
      static_cast<std::size_t>((kMaxPow - 1 - kSubBits) * 8 + 15) + 1;  // 304
  static constexpr std::size_t kBuckets = kOverflowIndex + 1;           // 305

  /// Point-in-time copy; all quantile math runs on one of these so
  /// concurrent recording cannot break per-snapshot monotonicity.
  struct Snapshot {
    std::uint64_t count = 0;     ///< sum of bucket counts at copy time
    std::uint64_t sum = 0;       ///< sum of recorded values
    std::uint64_t min = 0;       ///< 0 when count == 0
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double quantile(double q) const noexcept;
    double mean() const noexcept {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  void record(std::uint64_t v) noexcept {
    buckets_[index_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }
  /// Convenience for durations/ratios; negatives and NaN clamp to 0.
  void record(double v) noexcept {
    std::uint64_t u = 0;
    if (v > 0.0)
      u = v >= 9.2e18 ? UINT64_MAX : static_cast<std::uint64_t>(v);
    record(u);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  Snapshot snapshot() const noexcept;
  /// One-off quantile (takes a fresh snapshot; for correlated quantiles —
  /// p50 <= p95 <= p99 — take one Snapshot and query it).
  double quantile(double q) const noexcept { return snapshot().quantile(q); }

  /// Bucket index for a value (log-linear; monotone in v).
  static std::size_t index_of(std::uint64_t v) noexcept;
  /// Inclusive upper value bound of a bucket (overflow => UINT64_MAX).
  static std::uint64_t bound_of(std::size_t index) noexcept;

 private:
  void update_min(std::uint64_t v) noexcept {
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t v) noexcept {
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Everything an exporter needs, copied under the registry lock in
/// deterministic (sorted-identity) order.
struct RegistrySnapshot {
  struct CounterSample {
    std::string name;
    LabelList labels;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    LabelList labels;
    double value = 0.0;
  };
  struct HistogramSample {
    std::string name;
    LabelList labels;
    Histogram::Snapshot snap;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<SpanRecord> spans;       ///< most recent first-N, start order
  std::uint64_t spans_pushed = 0;      ///< lifetime pushes (ring may wrap)
};

/// Owner of every instrument plus the span ring.  Instrument getters are
/// find-or-create and thread-safe; returned references stay valid for the
/// registry's lifetime.  global() is the process-wide default every layer
/// reports to unless handed an explicit registry (tests isolate that way).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(std::size_t span_capacity = 4096)
      : spans_(span_capacity) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, LabelList labels = {});
  Gauge& gauge(std::string_view name, LabelList labels = {});
  Histogram& histogram(std::string_view name, LabelList labels = {});

  SpanRing& spans() noexcept { return spans_; }
  const SpanRing& spans() const noexcept { return spans_; }

  RegistrySnapshot snapshot(std::size_t max_spans = 256) const;

  /// Sum of one counter series' values across all label sets (snapshot
  /// convenience for tests/benches).
  std::uint64_t counter_total(std::string_view name) const;

  static MetricsRegistry& global();

 private:
  template <typename T>
  struct Entry {
    std::string name;
    LabelList labels;
    std::unique_ptr<T> metric;
  };
  template <typename T>
  using Table = std::map<std::string, Entry<T>, std::less<>>;

  static std::string key_of(std::string_view name, const LabelList& labels);
  template <typename T>
  static T& find_or_create(Table<T>& table, std::string_view name,
                           LabelList labels);

  mutable std::mutex mutex_;
  Table<Counter> counters_;
  Table<Gauge> gauges_;
  Table<Histogram> histograms_;
  SpanRing spans_;
};

}  // namespace fairshare::obs
