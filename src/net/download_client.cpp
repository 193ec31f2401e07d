#include "net/download_client.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>

#include "coding/codec.hpp"
#include "crypto/auth.hpp"
#include "crypto/chacha20.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "p2p/wire.hpp"

namespace fairshare::net {

namespace {

// Frames a session hands the decoder at once: one pass of the 16-lane MD5.
constexpr std::size_t kMaxBatchFrames = 16;

/// How one connection attempt ended.
enum class Outcome {
  clean,             ///< decode done / stop sent / store served in full
  failed_retryable,  ///< connect, reset, timeout: another attempt may work
  failed_permanent,  ///< the peer failed authentication: do not go back
};

/// Add one peer's finished row to the client series labelled with that
/// peer and user.  The series are cumulative across downloads; the row is
/// where each event was counted.
void add_row(obs::MetricsRegistry& registry, std::uint64_t user_id,
             const PeerDownloadStats& ps) {
  const obs::LabelList labels = {{"peer", std::to_string(ps.peer_id)},
                                 {"user", std::to_string(user_id)}};
  const std::pair<std::string_view, std::uint64_t> series[] = {
      {"fairshare_client_attempts_total", ps.attempts},
      {"fairshare_client_retries_total", ps.sessions_retried},
      {"fairshare_client_frames_total", ps.frames_received},
      {"fairshare_client_bytes_received_total", ps.bytes_received},
      {"fairshare_client_frames_corrupt_total", ps.frames_corrupt},
      {"fairshare_client_messages_innovative_total", ps.messages_accepted},
      {"fairshare_client_messages_redundant_total", ps.messages_redundant},
      {"fairshare_client_messages_rejected_total", ps.messages_rejected},
  };
  for (const auto& [name, value] : series)
    registry.counter(name, labels).add(value);
}

}  // namespace

std::vector<PeerEndpoint> dedup_endpoints(std::vector<PeerEndpoint> peers) {
  std::unordered_set<PeerEndpoint, PeerEndpointHash> seen;
  seen.reserve(peers.size());
  std::erase_if(peers,
                [&](const PeerEndpoint& p) { return !seen.insert(p).second; });
  return peers;
}

DownloadReport download_file(const std::vector<PeerEndpoint>& raw_peers,
                             const coding::SecretKey& secret,
                             const coding::FileInfo& info,
                             const DownloadOptions& options) {
  // Resolved peer sets may list one server several times (owner record,
  // successor replica, static fallback); a duplicate session would fight
  // itself for the same pacing slot.
  const std::vector<PeerEndpoint> peers = dedup_endpoints(raw_peers);
  DownloadReport report;
  report.per_peer.resize(peers.size());
  obs::MetricsRegistry& registry =
      options.registry ? *options.registry : obs::MetricsRegistry::global();
  obs::TraceSpan download_span(&registry.spans(), "client.download");
  // One decoder for either codec (a dense file is one class); the download
  // loop is identical.
  coding::CodecDecoder decoder(secret, info);
  decoder.enable_metrics(registry, options.user_id);
  std::atomic<bool> done{false};
  // Completion broadcast: sessions parked in a retry backoff wake the
  // moment a sibling finishes the decode, instead of sleeping it out, and
  // the calling thread wakes to join the payload product.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t live_sessions = peers.size();  // guarded by done_mutex
  const auto mark_done = [&] {
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      done = true;
    }
    done_cv.notify_all();
  };

  const auto t0 = std::chrono::steady_clock::now();

  // One connection attempt, start to finish.  `salt` is unique per attempt
  // so re-established sessions use fresh handshake nonces.
  auto attempt_session = [&](const PeerEndpoint& peer, PeerDownloadStats& ps,
                             std::uint64_t salt) -> Outcome {
    obs::TraceSpan span(&registry.spans(), "client.session",
                        download_span.id());
    // An error observed after the decode already finished is shutdown
    // noise (the swarm is tearing down), not a failure event; counting it
    // would break the retried/failed partition documented in the header.
    const auto fail_retryable = [&] {
      return done.load() ? Outcome::clean : Outcome::failed_retryable;
    };
    std::unique_ptr<Transport> transport;
    if (options.transport_factory) {
      transport = options.transport_factory(peer);
    } else {
      auto socket = Socket::connect_to(peer.host, peer.port);
      if (socket) transport = std::make_unique<Socket>(std::move(*socket));
    }
    if (!transport || !transport->valid()) return fail_retryable();

    // Figure 4(b) transmission "1": mutual authentication.
    if (options.user_key != nullptr) {
      crypto::ChaCha20 rng = crypto::handshake_rng(options.rng_seed, salt);
      crypto::AuthInitiator initiator(options.user_id, *options.user_key,
                                      peer.identity, rng);
      if (!send_frame(*transport, p2p::wire::encode(initiator.hello())))
        return fail_retryable();
      const auto challenge_frame = recv_frame(*transport, 1 << 16);
      if (!challenge_frame) return fail_retryable();
      const auto challenge =
          p2p::wire::decode_auth_challenge(*challenge_frame);
      if (!challenge) return fail_retryable();
      const auto response = initiator.on_challenge(*challenge);
      // The peer failed to prove its identity: retrying would hand an
      // impersonator more chances, not recover a flaky link.
      if (!response) return Outcome::failed_permanent;
      if (!send_frame(*transport, p2p::wire::encode(*response)))
        return fail_retryable();
    }

    // Transmission "2"/"3": request the file.
    p2p::wire::FileRequest request;
    request.user_id = options.user_id;
    request.file_id = info.file_id;
    if (!send_frame(*transport, p2p::wire::encode(request)))
      return fail_retryable();

    // Transmission "4": consume coded messages until done.  The bounded
    // recv timeout lets a session blocked on a quiet peer notice that a
    // sibling finished the decode, so every session reaches the stop frame
    // below instead of hanging until the peer happens to send again.
    //
    // After each blocking receive, frames that have already arrived join
    // the batch without waiting: at most kMaxBatchFrames, and no more than
    // this session's share of the rows still missing, so one session does
    // not take every frame its peer pushed ahead of its siblings.  The
    // decoder verifies a batch in one multi-lane MD5 pass, reading each
    // message in place from its frame.
    transport->set_recv_timeout(options.recv_timeout_ms);
    std::vector<std::vector<std::byte>> frames;
    std::vector<coding::EncodedMessageView> batch;
    while (!done.load()) {
      auto first = recv_frame(*transport, p2p::wire::kMaxCodedFrameBytes);
      if (!first) {
        if (transport->timed_out()) continue;  // re-check done and retry
        // Reset or premature EOF: retryable — a reconnect re-streams the
        // peer's store, and messages already decoded fall out as
        // non-innovative (no double-count).
        return fail_retryable();
      }
      frames.clear();
      frames.push_back(std::move(*first));
      const std::size_t share =
          (decoder.rows_missing() + peers.size() - 1) / peers.size();
      bool broken = false;  // the drain met a dead connection
      while (frames.size() < std::min(kMaxBatchFrames, share)) {
        TryRead next =
            transport->try_read_frame(p2p::wire::kMaxCodedFrameBytes);
        if (next.status != IoStatus::ok) {
          broken = next.status != IoStatus::blocked;
          break;
        }
        frames.push_back(std::move(next.frame));
      }
      batch.clear();
      for (const std::vector<std::byte>& frame : frames) {
        ++ps.frames_received;
        ps.bytes_received += frame.size();
        const auto msg = p2p::wire::view_coded_message(frame);
        if (!msg) {
          ++ps.frames_corrupt;
          ++ps.messages_rejected;
          continue;
        }
        batch.push_back(*msg);
      }
      if (decoder.complete()) break;
      for (const coding::AddResult result : decoder.add(batch)) {
        switch (result) {
          case coding::AddResult::accepted:
            ++ps.messages_accepted;
            break;
          case coding::AddResult::bad_digest:
            // The paper's on-the-fly authentication: a flipped byte
            // anywhere in the frame fails the owner's MD5 and never
            // touches the solver.
            ++ps.frames_corrupt;
            ++ps.messages_rejected;
            break;
          case coding::AddResult::wrong_file:
          case coding::AddResult::bad_size:
            ++ps.messages_rejected;
            break;
          case coding::AddResult::non_innovative:
            ++ps.messages_redundant;
            break;
          case coding::AddResult::already_complete:
            break;
        }
      }
      if (decoder.complete()) {
        mark_done();
        break;
      }
      if (broken) return fail_retryable();
    }
    // Transmission "5": stop.
    p2p::wire::StopTransmission stop;
    stop.user_id = options.user_id;
    stop.file_id = info.file_id;
    (void)send_frame(*transport, p2p::wire::encode(stop));
    return Outcome::clean;
  };

  auto session = [&](std::size_t index) {
    const PeerEndpoint& peer = peers[index];
    PeerDownloadStats& ps = report.per_peer[index];
    ps.peer_id = peer.peer_id;
    const int max_attempts = std::max(1, options.retry.max_attempts);
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (done.load()) break;
      ++ps.attempts;
      const std::uint64_t salt =
          static_cast<std::uint64_t>(index + 1) |
          (static_cast<std::uint64_t>(attempt) << 32);
      const Outcome outcome = attempt_session(peer, ps, salt);
      if (outcome == Outcome::clean) break;
      // Counter partition (see download_client.hpp): this failed attempt
      // is counted below either as retried (another attempt follows) or,
      // exactly once per peer, as the terminal failure.
      if (outcome == Outcome::failed_permanent || attempt == max_attempts ||
          done.load()) {
        ps.gave_up = true;
        break;
      }
      const int delay = options.retry.delay_ms(
          attempt, options.rng_seed ^ (0xC0FFEEull * (index + 1)));
      // Completion gate before dialing again: wait out the backoff AND
      // re-check under the same mutex mark_done() holds, so a decode that
      // finishes between the timed wait and the next connect cannot slip
      // an extra (instantly-doomed) session onto the wire.
      bool finished;
      {
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait_for(lock, std::chrono::milliseconds(delay),
                         [&] { return done.load(); });
        finished = done.load();
      }
      if (finished) {  // the swarm finished while this peer backed off
        ps.gave_up = true;
        break;
      }
      ++ps.sessions_retried;
    }
    add_row(registry, options.user_id, ps);
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      --live_sessions;
    }
    done_cv.notify_all();
    // However this session ended, it joins the payload product (a no-op
    // unless the decode completed); a late one finds fewer strips left.
    decoder.solve();
  };

  // One thread per peer; each session keeps its thread across all retry
  // attempts, so re-dialing a flaky peer reuses the thread it already has.
  // The calling thread waits until the decode completes or every session
  // has ended, then claims strips of the payload product beside the
  // sessions.  The jthreads join when the block closes, after the product,
  // so reconstruct() below only hands the file over.
  {
    std::vector<std::jthread> threads;
    threads.reserve(peers.size());
    for (std::size_t i = 0; i < peers.size(); ++i)
      threads.emplace_back(session, i);
    {
      std::unique_lock<std::mutex> lock(done_mutex);
      done_cv.wait(lock, [&] { return done.load() || live_sessions == 0; });
    }
    decoder.solve();
  }

  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const PeerDownloadStats& ps : report.per_peer) {
    report.messages_rejected += ps.messages_rejected;
    report.frames_corrupt += ps.frames_corrupt;
    report.sessions_retried += ps.sessions_retried;
    report.bytes_received += ps.bytes_received;
    if (ps.gave_up) ++report.sessions_failed;
  }
  if (decoder.complete()) {
    report.success = true;
    report.data = decoder.reconstruct();
    report.messages_accepted = decoder.accepted();
  }
  return report;
}

}  // namespace fairshare::net
