// Live workload replay: the same WorkloadTrace the simulator runs, played
// against a real PeerServer over TCP.
//
// replay_live() stands up one paced server holding an encoded file, then
// walks the trace in wall time with ONE worker thread per user — the live
// form of the sim engine's closed-loop TraceDemand.  A worker sleeps until
// its next event's arrival instant (arrival_slot * slot_seconds), then
// performs ceil(bytes / file size) back-to-back full-file downloads via
// net::download_file; events that arrive while earlier ones are still
// transferring simply queue behind them, which is exactly the backlog the
// sim drains at the user's Equation (2) share (the server grants a user's
// whole share to its single open session).  Demand is quantized to whole
// files like sim::replay_sim with quantize_bytes = file size, and the
// resulting per-user goodput/share lands in the same ReplayReport schema —
// sim::replay_agrees() is the comparison.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "coding/message.hpp"
#include "coding/params.hpp"
#include "obs/metrics.hpp"
#include "sim/replay.hpp"

namespace fairshare::net {

namespace coding = fairshare::coding;

/// Framed-wire-bytes / payload-bytes factor of downloading one file: the
/// decode needs k coded messages, each framed with kCodedMessageHeaderBytes
/// ahead of message_bytes() of payload, while goodput counts only the
/// original_bytes reconstructed.  The server paces (and its Eq. (2) ledger
/// accrues) framed bytes, so sim capacity divides this factor out.
double wire_overhead_factor(const coding::FileInfo& info);

struct LiveReplayConfig {
  /// Server upload pacing in kbps (the wire rate, as PeerServer meters it).
  double rate_kbps = 4000.0;
  /// Wall seconds one trace slot stands for.
  double slot_seconds = 0.05;
  /// Server re-allocation period.  Replay transfers are short, and a fresh
  /// session waits up to one quantum for its first budget grant — at the
  /// stock 20 ms that wait alone skews single-file events, so replay runs
  /// a finer tick than a production server would.
  int pacing_quantum_ms = 5;
  /// Handshake nonce/session-key stream seed (auth is off for replay; the
  /// seed still names the client rng streams).
  std::uint64_t rng_seed = 1;
  /// Initial Eq. (2) ledger credits (user_id, framed-bytes) — forwarded to
  /// PeerServer::seed_contribution; give sim::replay_sim the same list.
  std::vector<std::pair<std::uint64_t, double>> seed_contributions;
  /// When set, the server and every download report into this registry and
  /// the run publishes sim::publish_replay_metrics there too.
  obs::MetricsRegistry* registry = nullptr;
};

/// Replay `trace` against a live server serving one file of `file_bytes`
/// encoded with `params`.  The trace must be normalized.  Blocks until
/// every transfer completes (or fails: counted in transfers_failed, never
/// retried past download_file's own retry policy).
sim::ReplayReport replay_live(const sim::WorkloadTrace& trace,
                              std::uint64_t file_bytes,
                              const coding::CodingParams& params,
                              const LiveReplayConfig& config);

}  // namespace fairshare::net
