// Deterministic fault injection over the net::Transport seam.
//
// FaultyTransport wraps any Transport and perturbs the frame stream per a
// seeded FaultPlan: connection refusal, a hard reset after N frames,
// per-frame drop / delay / duplication, and single-byte corruption.  The
// corruption fault targets the payload region of a frame, so a corrupted
// coded message still parses — it must be caught by the decoder's MD5
// message digests, exercising the paper's on-the-fly authentication
// (Section III-C) exactly where a real packet-mangling adversary would
// strike.
//
// All randomness flows from one SplitMix64 stream seeded by the plan, and
// — crucially for retry/failover testing — a FaultInjector keeps that
// stream (and its statistics) alive *across* reconnects of the same peer,
// so a frame dropped on the first attempt is an independent coin flip on
// the second.  Same seed + same traffic => same fault schedule.
//
// Faults are injected in one place, the non-blocking frame calls.  A
// delay never sleeps: it is a deadline exposed through retry_after(),
// which the reactor turns into a timer and the blocking send_frame /
// recv_frame (transport.hpp) sleep out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "net/transport.hpp"
#include "sim/rng.hpp"

namespace fairshare::net {

/// What faults to inject, and when.  Rates are per-frame probabilities
/// drawn from the plan's seed.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Connection attempts fail outright (FaultInjector::admits_connection).
  bool refuse_connection = false;
  /// Hard reset after this many frames crossed the transport (either
  /// direction, dropped frames included); SIZE_MAX = never.  Counted per
  /// connection, so every reconnect gets a fresh budget.
  std::size_t reset_after_frames = SIZE_MAX;
  double drop_rate = 0.0;       ///< frame silently swallowed
  double duplicate_rate = 0.0;  ///< frame delivered twice
  double corrupt_rate = 0.0;    ///< one payload byte flipped
  double delay_rate = 0.0;      ///< frame delayed by delay_ms
  int delay_ms = 0;             ///< injected per-frame latency
};

/// Cumulative injection counters (for asserting a plan actually fired).
struct FaultStats {
  std::size_t connections_refused = 0;
  std::size_t connections_reset = 0;
  std::size_t frames_dropped = 0;
  std::size_t frames_corrupted = 0;
  std::size_t frames_duplicated = 0;
  std::size_t frames_delayed = 0;
};

/// Per-peer fault state shared by every connection to that peer: one RNG
/// stream + stats, surviving reconnects.  Thread-safe (a server-side
/// wrapper may serve concurrent sessions through one injector).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// False (and counted) when the plan refuses connections; callers treat
  /// it like ECONNREFUSED and never dial.
  bool admits_connection();

  /// Wrap one established connection in this injector's fault schedule.
  std::unique_ptr<Transport> wrap(std::unique_ptr<Transport> inner);

  FaultStats stats() const;

  /// Shared mutable state; public only for FaultyTransport.
  struct Shared {
    mutable std::mutex mutex;
    sim::SplitMix64 rng{0};
    FaultStats stats;
  };

 private:
  FaultPlan plan_;
  std::shared_ptr<Shared> shared_;
};

/// A Transport decorator executing a FaultPlan at frame granularity: it
/// overrides every frame call and forwards to the inner transport's, so
/// frames are where faults are observable and countable.  Faults for a
/// frame are drawn exactly once, on first touch, so the seeded schedule
/// is identical across retries of a delayed or backlogged frame.
class FaultyTransport final : public Transport {
 public:
  /// Standalone wrapper with its own RNG/stat state (unit tests).  Prefer
  /// FaultInjector::wrap when connections may be re-established.
  FaultyTransport(std::unique_ptr<Transport> inner, FaultPlan plan);
  FaultyTransport(std::unique_ptr<Transport> inner, FaultPlan plan,
                  std::shared_ptr<FaultInjector::Shared> shared);

  TryWrite try_write_frame(std::span<const std::byte> frame) override;
  /// Zero-copy callers fault identically to copying callers: the frame is
  /// materialised as head ++ ext (corruption may need to mutate it, and
  /// faults must not touch the caller's shared payload store) and pushed
  /// through try_write_frame — one budget charge, one fault draw.
  TryWrite try_write_frame_ext(std::span<const std::byte> head,
                               std::span<const std::byte> ext) override;
  IoStatus try_flush() override;
  TryRead try_read_frame(std::size_t max_len) override;
  bool want_write() const override;
  bool want_read() const override;
  std::optional<std::chrono::steady_clock::time_point> retry_after()
      const override;

  /// Ready at once for a pending duplicate or after a reset; otherwise
  /// the inner transport's readiness.
  bool wait_ready(bool write, int timeout_ms) override;
  void close() override;
  bool valid() const override;

  FaultStats stats() const;

 private:
  struct Faults {
    bool drop = false;
    bool corrupt = false;
    bool duplicate = false;
    bool delay = false;
    std::uint64_t corrupt_at = 0;  ///< raw draw for the flip position
  };
  /// Draw this frame's faults (fixed number of draws per frame, so the
  /// schedule depends only on the seed and the frame sequence).
  Faults draw_faults();
  void flip_payload_byte(std::vector<std::byte>& frame, std::uint64_t draw);
  /// Consume one frame of the reset budget; false once the budget is gone
  /// (the connection is torn down and counted on first exhaustion).
  bool consume_frame_budget();
  /// Forward an accepted outbound frame (post-faults) to the inner
  /// transport, duplicating when asked.
  TryWrite forward_write(std::span<const std::byte> frame,
                         const Faults& faults);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::shared_ptr<FaultInjector::Shared> shared_;
  std::size_t frames_used_ = 0;
  bool reset_ = false;

  // Outbound: faults drawn on first touch of a frame survive
  // {blocked,false} retries; a delay gates acceptance until
  // write_release_; a drawn duplicate becomes a second copy owed to the
  // inner transport (dup_out_frame_), drained by try_flush.  Inbound: a
  // delayed frame is stashed whole with its drawn faults and released
  // once read_release_ passes; a duplicate waits in pending_duplicate_.
  std::optional<std::vector<std::byte>> pending_duplicate_;
  std::optional<Faults> pending_write_faults_;
  std::vector<std::byte> ext_scratch_;  ///< head++ext image, capacity reused
  std::optional<std::chrono::steady_clock::time_point> write_release_;
  std::optional<std::vector<std::byte>> dup_out_frame_;
  std::optional<std::chrono::steady_clock::time_point> read_release_;
  std::optional<std::vector<std::byte>> delayed_read_frame_;
  std::optional<Faults> delayed_read_faults_;
};

}  // namespace fairshare::net
