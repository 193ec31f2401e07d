#include "traced_fetch.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "coding/codec.hpp"
#include "crypto/auth.hpp"
#include "crypto/chacha20.hpp"
#include "net/socket.hpp"
#include "p2p/wire.hpp"

namespace perfbench {

using namespace fairshare;

namespace {

constexpr std::size_t kMaxServerFrame = 64 << 20;
constexpr int kRecvTimeoutMs = 100;  // download_file's default

crypto::ChaCha20 handshake_rng(std::uint64_t seed, std::uint64_t salt) {
  std::array<std::uint8_t, 32> key{};
  std::memcpy(key.data(), &seed, sizeof seed);
  std::memcpy(key.data() + 8, &salt, sizeof salt);
  const std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
  return crypto::ChaCha20(std::span<const std::uint8_t, 32>(key), nonce);
}

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t v) {
  std::uint64_t cur = target.load();
  while (v > cur && !target.compare_exchange_weak(cur, v)) {
  }
}

}  // namespace

TracedFetchResult traced_fetch(const std::vector<net::PeerEndpoint>& peers,
                               const coding::SecretKey& secret,
                               const coding::FileInfo& info,
                               const TracedFetchOptions& options) {
  SpanLog* const log = options.spans;
  LayerCounters discarded;
  LayerCounters& layers = options.layers ? *options.layers : discarded;
  ScopedSpan download(log, "fetch.download", options.op, options.parent);

  coding::CodecDecoder decoder(secret, info);
  if (options.registry)
    decoder.enable_metrics(*options.registry, options.user_id);
  std::mutex decoder_mutex;  // guards decoder and kept
  std::vector<coding::EncodedMessage> kept;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> done_ns{0};
  std::atomic<std::uint64_t> last_close_ns{0};
  std::atomic<std::uint64_t> frames{0};

  const auto session = [&](std::size_t index) {
    const net::PeerEndpoint& peer = peers[index];
    ScopedSpan span(log, "net.session", options.op, download.id());
    std::optional<net::Socket> socket;
    {
      ScopedSpan connect(log, "net.connect_auth", options.op, span.id());
      socket = net::Socket::connect_to(peer.host, peer.port);
      if (!socket || !socket->valid()) {
        failed = true;
        return;
      }
      crypto::ChaCha20 rng = handshake_rng(options.rng_seed, index + 1);
      crypto::AuthInitiator initiator(options.user_id, *options.user_key,
                                      peer.identity, rng);
      std::optional<crypto::AuthResponse> response;
      if (net::send_frame(*socket, p2p::wire::encode(initiator.hello())))
        if (const auto frame = net::recv_frame(*socket, 1 << 16))
          if (const auto challenge = p2p::wire::decode_auth_challenge(*frame))
            response = initiator.on_challenge(*challenge);
      if (!response ||
          !net::send_frame(*socket, p2p::wire::encode(*response))) {
        failed = true;
        return;
      }
    }

    p2p::wire::FileRequest request;
    request.user_id = options.user_id;
    request.file_id = info.file_id;
    if (!net::send_frame(*socket, p2p::wire::encode(request))) {
      failed = true;
      return;
    }
    const std::uint64_t request_ns = now_ns();
    bool first_frame = true;
    socket->set_recv_timeout(kRecvTimeoutMs);
    while (!done.load()) {
      const std::uint64_t t0 = now_ns();
      auto frame = net::recv_frame(*socket, kMaxServerFrame);
      if (!frame) {
        if (socket->timed_out()) continue;
        if (!done.load()) failed = true;
        break;
      }
      const std::uint64_t t1 = now_ns();
      if (first_frame && log)
        log->record(Span{log->next_id(), span.id(), options.op,
                         "net.first_frame", request_ns, t1});
      first_frame = false;
      layers.recv_ns += t1 - t0;
      ++layers.frames;
      ++frames;
      auto msg = p2p::wire::decode_coded_message(*frame);
      const std::uint64_t t2 = now_ns();
      layers.wire_decode_ns += t2 - t1;
      if (!msg) {
        failed = true;  // honest peers never send an unparseable frame
        break;
      }
      std::lock_guard<std::mutex> lock(decoder_mutex);
      const std::uint64_t t3 = now_ns();
      layers.decoder_wait_ns += t3 - t2;
      if (decoder.complete()) break;
      const coding::AddResult result = decoder.add(*msg);
      const std::uint64_t t4 = now_ns();
      layers.add_ns += t4 - t3;
      ++layers.adds;
      if (result == coding::AddResult::accepted) ++layers.accepted;
      if (result == coding::AddResult::accepted ||
          result == coding::AddResult::non_innovative)
        kept.push_back(std::move(*msg));
      if (decoder.complete()) {
        done_ns = t4;
        done = true;
        break;
      }
    }
    p2p::wire::StopTransmission stop;
    stop.user_id = options.user_id;
    stop.file_id = info.file_id;
    (void)net::send_frame(*socket, p2p::wire::encode(stop));
    socket->close();
    atomic_max(last_close_ns, now_ns());
  };

  {
    std::vector<std::jthread> sessions;
    sessions.reserve(peers.size());
    for (std::size_t i = 0; i < peers.size(); ++i)
      sessions.emplace_back(session, i);
  }

  TracedFetchResult result;
  result.frames = frames.load();
  if (!decoder.complete() || failed.load()) return result;
  if (log)
    log->record(Span{log->next_id(), download.id(), options.op, "net.stop",
                     done_ns.load(), last_close_ns.load()});
  {
    ScopedSpan span(log, "coding.reconstruct", options.op, download.id());
    result.data = decoder.reconstruct();
  }
  result.end_ns = now_ns();
  download.end();
  result.success = true;
  result.innovative = decoder.accepted();

  // Every kept message passed the decoder's digest check; hashing it
  // again must reproduce the owner's digest.
  const std::uint64_t t0 = now_ns();
  std::uint64_t bytes = 0;
  for (const coding::EncodedMessage& m : kept) {
    const auto it = info.message_digests.find(m.message_id);
    if (it == info.message_digests.end() || m.digest() != it->second)
      result.success = false;
    bytes += m.wire_size();
  }
  layers.md5_ns += now_ns() - t0;
  layers.md5_bytes += bytes;
  return result;
}

}  // namespace perfbench
