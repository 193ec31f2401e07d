// The traced download client: the same public calls download_file makes
// (Socket::connect_to, crypto::AuthInitiator, send_frame/recv_frame,
// p2p::wire::decode_coded_message, coding::CodecDecoder::add under one
// shared mutex, then reconstruct), with a span or a counter around each.
// After the fetch, outside its timed path, every message the decoder took
// is hashed again into LayerCounters::md5_* and must match the owner's
// digest.  It has no retry loop: the benchmark's workloads never fail a session,
// and a session that does fail fails the fetch.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/message.hpp"
#include "crypto/rsa.hpp"
#include "net/download_client.hpp"
#include "obs/metrics.hpp"
#include "recorder.hpp"

namespace perfbench {

struct TracedFetchOptions {
  std::uint64_t user_id = 0;
  const fairshare::crypto::RsaKeyPair* user_key = nullptr;
  std::uint64_t rng_seed = 1;
  /// Receives the decoder's own instruments (fairshare_decoder_*).
  fairshare::obs::MetricsRegistry* registry = nullptr;
  SpanLog* spans = nullptr;
  LayerCounters* layers = nullptr;
  std::uint64_t op = 0;      ///< operation id stamped on every span
  std::uint64_t parent = 0;  ///< span the download hangs under
};

struct TracedFetchResult {
  bool success = false;
  std::vector<std::byte> data;
  std::uint64_t frames = 0;      ///< coded frames received, all sessions
  std::uint64_t innovative = 0;  ///< decoder.accepted()
  std::uint64_t end_ns = 0;      ///< when the verified bytes were ready
};

TracedFetchResult traced_fetch(
    const std::vector<fairshare::net::PeerEndpoint>& peers,
    const fairshare::coding::SecretKey& secret,
    const fairshare::coding::FileInfo& info, const TracedFetchOptions& options);

}  // namespace perfbench
