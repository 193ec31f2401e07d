// In-memory trace of one benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// the library (no library code is instrumented).  Every span carries the
// id of the operation (fetch or publish) it belongs to and the span that
// caused it, so per-layer self time can be computed offline.  Spans live
// in a buffer reserved up front and are written out once, when the run
// ends; a span that does not fit is counted as dropped, and the wrapper
// script fails the run when any was.
//
// Per-frame and per-message work (receive, wire decode, decoder add) is
// too frequent for spans; it is summed into LayerCounters at the same
// call sites instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds.
std::uint64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root of its operation
  std::uint64_t op = 0;      ///< the fetch or publish this span serves
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint64_t next_id() { return ++last_id_; }
  void record(const Span& span);

  /// The recorded spans; call once every recording thread has finished.
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mutex_;  // guards spans_ and dropped_
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span.  A null log makes it a no-op, so untraced code paths share
/// the call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op,
             std::uint64_t parent);
  ~ScopedSpan() { end(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void end();

 private:
  SpanLog* log_;
  Span span_;
  bool open_ = true;
};

/// Summed per-layer work, recorded where the work happens.
struct LayerCounters {
  std::atomic<std::uint64_t> recv_ns{0};  ///< inside recv_frame, coded frames
  std::atomic<std::uint64_t> frames{0};   ///< coded frames received
  std::atomic<std::uint64_t> wire_decode_ns{0};
  std::atomic<std::uint64_t> decoder_wait_ns{0};  ///< acquiring the mutex
  std::atomic<std::uint64_t> add_ns{0};   ///< inside CodecDecoder::add
  std::atomic<std::uint64_t> adds{0};     ///< messages handed to add
  std::atomic<std::uint64_t> accepted{0};  ///< add returned accepted
  std::atomic<std::uint64_t> encode_ns{0};
  std::atomic<std::uint64_t> encoded{0};
  std::atomic<std::uint64_t> store_ns{0};
  std::atomic<std::uint64_t> stored{0};
  std::atomic<std::uint64_t> md5_ns{0};   ///< re-hash after the fetch
  std::atomic<std::uint64_t> md5_bytes{0};
};

}  // namespace perfbench
