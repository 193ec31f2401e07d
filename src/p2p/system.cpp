#include "p2p/system.hpp"

#include <algorithm>
#include <cassert>
#include <deque>

#include "alloc/policies.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "sim/rng.hpp"

namespace fairshare::p2p {

namespace {

double wire_kilobits(const coding::EncodedMessage& msg) {
  return static_cast<double>(msg.wire_size()) * 8.0 / 1000.0;
}

}  // namespace

struct System::PeerState {
  MessageStore store;
  std::shared_ptr<alloc::AllocationPolicy> policy;
  std::optional<crypto::RsaKeyPair> identity;
  /// Key an impersonator presents instead of its registered identity.
  std::optional<crypto::RsaKeyPair> rogue;

  explicit PeerState(std::size_t store_limit) : store(store_limit) {}
};

struct System::FileRecord {
  PeerId owner = 0;
  std::uint64_t file_id = 0;
  coding::SecretKey secret{};
  coding::FileEncoder encoder;

  struct PendingUpload {
    PeerId target;
    coding::EncodedMessage message;
    double sent_kilobits = 0.0;
  };
  std::deque<PendingUpload> queue;
  std::size_t total_queued = 0;
  std::size_t uploaded = 0;

  FileRecord(PeerId owner_id, std::uint64_t fid, const coding::SecretKey& key,
             std::span<const std::byte> data,
             const coding::CodingParams& params)
      : owner(owner_id), file_id(fid), secret(key),
        encoder(key, fid, data, params) {}
};

struct System::Session {
  PeerId peer = 0;
  enum class State { handshaking, active, failed, closed } state =
      State::handshaking;
  std::uint64_t active_at = 0;  ///< slot when data may start flowing
  std::size_t cursor = 0;       ///< next stored message (non-owner peers)
  double bucket_kilobits = 0.0;
  crypto::SessionKey key{};
  bool has_key = false;
  /// Owner-generated message awaiting retransmission after a loss (stored
  /// messages need no copy; the cursor simply is not advanced).
  std::optional<coding::EncodedMessage> pending_retransmit;
};

struct System::Request {
  PeerId user = 0;
  std::uint64_t file_id = 0;
  double download_kbps = 0.0;
  coding::CodecDecoder decoder;
  std::vector<Session> sessions;
  RequestStats stats;
  bool done = false;
  std::vector<std::byte> result;

  Request(PeerId u, std::uint64_t fid, double dl,
          const coding::SecretKey& secret, const coding::FileInfo& info)
      : user(u), file_id(fid), download_kbps(dl), decoder(secret, info) {}
};

System::System(std::vector<PeerParams> peers, SystemConfig config)
    : config_(config), params_(std::move(peers)) {
  const std::size_t n = params_.size();
  assert(n > 0);
  crypto::Sha256 seed_hash;
  const std::uint8_t seed_bytes[8] = {
      static_cast<std::uint8_t>(config_.seed),
      static_cast<std::uint8_t>(config_.seed >> 8),
      static_cast<std::uint8_t>(config_.seed >> 16),
      static_cast<std::uint8_t>(config_.seed >> 24),
      static_cast<std::uint8_t>(config_.seed >> 32),
      static_cast<std::uint8_t>(config_.seed >> 40),
      static_cast<std::uint8_t>(config_.seed >> 48),
      static_cast<std::uint8_t>(config_.seed >> 56)};
  seed_hash.update(std::span<const std::uint8_t>(seed_bytes, 8));
  const crypto::Sha256Digest key = seed_hash.finish();
  const std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
  crypto::ChaCha20 rng{std::span<const std::uint8_t, 32>(key), nonce};

  peers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto state = std::make_unique<PeerState>(params_[i].store_limit_per_file);
    state->policy = params_[i].policy
                        ? params_[i].policy
                        : std::make_shared<
                              alloc::ProportionalContributionPolicy>(n);
    if (config_.auth == AuthMode::full) {
      state->identity = crypto::RsaKeyPair::generate(config_.rsa_bits, rng);
      if (params_[i].impersonates)
        state->rogue = crypto::RsaKeyPair::generate(config_.rsa_bits, rng);
    }
    peers_.push_back(std::move(state));
  }
  download_trace_.resize(n);
  slot_delivered_kb_.resize(n);
  loss_rng_ = sim::SplitMix64(config_.seed ^ 0xA5A5A5A5A5A5A5A5ull);
  online_.assign(n, true);
  // Every peer joins the content-location ring.
  ring_id_.resize(n);
  for (PeerId i = 0; i < n; ++i) {
    ring_id_[i] = dht::ring_hash_u64(i, config_.seed ^ 0x70656572);  // "peer"
    locator_.handle_join(ring_id_[i]);
  }
}

System::~System() = default;

void System::set_online(PeerId peer, bool online) {
  assert(peer < n());
  if (online_[peer] == online) return;
  online_[peer] = online;
  if (online)
    locator_.handle_join(ring_id_[peer]);
  else
    locator_.handle_leave(ring_id_[peer]);
}

System::FileRecord* System::find_file(std::uint64_t file_id) {
  for (auto& f : files_)
    if (f->file_id == file_id) return f.get();
  return nullptr;
}

const System::FileRecord* System::find_file(std::uint64_t file_id) const {
  for (const auto& f : files_)
    if (f->file_id == file_id) return f.get();
  return nullptr;
}

void System::share_file(PeerId owner, std::uint64_t file_id,
                        std::span<const std::byte> data,
                        const coding::CodingParams& params) {
  assert(owner < n());
  assert(find_file(file_id) == nullptr && "file id already in use");

  // Derive the owner's per-file secret from the system seed (deterministic
  // runs); a deployment would draw it from the OS entropy pool.
  crypto::Sha256 h;
  static constexpr char kLabel[] = "fairshare-file-secret";
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kLabel), sizeof(kLabel) - 1));
  std::uint8_t ids[24];
  for (int i = 0; i < 8; ++i) {
    ids[i] = static_cast<std::uint8_t>(config_.seed >> (8 * i));
    ids[8 + i] = static_cast<std::uint8_t>(file_id >> (8 * i));
    ids[16 + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(owner) >>
                                            (8 * i));
  }
  h.update(std::span<const std::uint8_t>(ids, 24));
  coding::SecretKey secret;
  const crypto::Sha256Digest digest = h.finish();
  std::copy(digest.begin(), digest.end(), secret.begin());

  auto record =
      std::make_unique<FileRecord>(owner, file_id, secret, data, params);

  // Queue k messages for every peer other than the owner ("up to k
  // messages per peer"), respecting each target's storage limit.
  const std::size_t k = record->encoder.k();
  for (PeerId target = 0; target < n(); ++target) {
    if (target == owner) continue;
    const std::size_t count =
        std::min(k, peers_[target]->store.per_file_limit());
    for (std::size_t c = 0; c < count; ++c) {
      record->queue.push_back(
          {target, record->encoder.next_message(), 0.0});
    }
  }
  record->total_queued = record->queue.size();
  files_.push_back(std::move(record));
}

double System::dissemination_progress(std::uint64_t file_id) const {
  const FileRecord* f = find_file(file_id);
  assert(f != nullptr);
  if (f->total_queued == 0) return 1.0;
  return static_cast<double>(f->uploaded) /
         static_cast<double>(f->total_queued);
}

bool System::open_sessions(Request& req) {
  // Locate holders via the DHT, then contact them plus the owner (who can
  // always serve fresh messages, Section III-A's client-server fallback).
  // The user is at a remote machine: route from its own peer's ring node
  // when that peer is online, otherwise from any live ring node.
  const FileRecord* file = find_file(req.file_id);
  dht::ContentLocator::LocateResult located;
  if (locator_.ring().contains(ring_id_[req.user])) {
    located = locator_.locate(req.file_id, ring_id_[req.user]);
  } else if (locator_.ring().size() > 0) {
    located = locator_.locate(req.file_id, locator_.ring().nodes().front());
  }
  req.stats.locate_hops = located.hops;
  std::vector<bool> contact(n(), false);
  for (std::uint64_t peer : located.peers) contact[peer] = true;
  contact[file->owner] = true;

  for (PeerId peer = 0; peer < n(); ++peer) {
    Session session;
    session.peer = peer;
    session.active_at = slot_ + config_.handshake_slots;
    if (!contact[peer]) {
      session.state = Session::State::closed;  // never contacted
      req.sessions.push_back(session);
      continue;
    }
    ++req.stats.peers_contacted;

    if (config_.auth == AuthMode::full) {
      // Run the real mutual handshake of Figure 4(b).  The user side signs
      // with the requesting user's identity; the peer side with its own —
      // or with a bogus key when it is an impersonator.  The user always
      // verifies against the peer's *registered* public key.
      const crypto::RsaKeyPair& user_key = *peers_[req.user]->identity;
      const crypto::RsaKeyPair& registered_key = *peers_[peer]->identity;
      const crypto::RsaKeyPair& presented_key =
          peers_[peer]->rogue ? *peers_[peer]->rogue : registered_key;

      // Fresh deterministic randomness for nonces/session key.
      crypto::Sha256 h;
      static constexpr char kLabel[] = "fairshare-handshake";
      h.update(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(kLabel), sizeof(kLabel) - 1));
      std::uint8_t ctx[24];
      for (int i = 0; i < 8; ++i) {
        ctx[i] = static_cast<std::uint8_t>(slot_ >> (8 * i));
        ctx[8 + i] =
            static_cast<std::uint8_t>(static_cast<std::uint64_t>(peer) >>
                                      (8 * i));
        ctx[16 + i] =
            static_cast<std::uint8_t>(static_cast<std::uint64_t>(req.user) >>
                                      (8 * i));
      }
      h.update(std::span<const std::uint8_t>(ctx, 24));
      const crypto::Sha256Digest hk = h.finish();
      const std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
      crypto::ChaCha20 rng{std::span<const std::uint8_t, 32>(hk), nonce};

      crypto::AuthInitiator initiator(req.user, user_key, registered_key.pub,
                                      rng);
      crypto::AuthResponder responder(peer, presented_key, user_key.pub, rng);
      const crypto::AuthHello hello = initiator.hello();
      const crypto::AuthChallenge challenge = responder.on_hello(hello);
      const auto response = initiator.on_challenge(challenge);
      if (!response || !responder.on_response(*response)) {
        session.state = Session::State::failed;
        ++req.stats.auth_failures;
        req.sessions.push_back(session);
        continue;
      }
      session.key = initiator.session_key();
      session.has_key = true;
    }
    req.sessions.push_back(session);
  }
  return true;
}

std::size_t System::request_file(PeerId user, std::uint64_t file_id,
                                 double download_kbps) {
  assert(user < n());
  FileRecord* file = find_file(file_id);
  assert(file != nullptr && "request for unshared file");
#ifndef NDEBUG
  for (const auto& r : requests_)
    assert((r->done || r->user != user) &&
           "one active request per user at a time");
#endif

  auto req = std::make_unique<Request>(user, file_id, download_kbps,
                                       file->secret, file->encoder.info());
  req->stats.started_slot = slot_;
  open_sessions(*req);
  requests_.push_back(std::move(req));
  return requests_.size() - 1;
}

bool System::complete(std::size_t request) const {
  return requests_[request]->done;
}

std::vector<std::byte> System::data(std::size_t request) const {
  assert(requests_[request]->done);
  return requests_[request]->result;
}

const RequestStats& System::stats(std::size_t request) const {
  return requests_[request]->stats;
}

std::size_t System::store_bytes(PeerId peer) const {
  return peers_[peer]->store.bytes_used();
}

std::size_t System::stored_messages(PeerId peer,
                                    std::uint64_t file_id) const {
  return peers_[peer]->store.count(file_id);
}

void System::deliver(Request& req, PeerId peer,
                     coding::EncodedMessage message) {
  if (params_[peer].tampers) {
    // Corrupt one payload byte; MD5 authentication must catch it.
    if (!message.payload.empty()) message.payload[0] ^= std::byte{0x01};
  }

  // Note: the session HMAC (auth.hpp) protects against third-party
  // in-flight tampering, but a *malicious authenticated sender* tags the
  // corrupted bytes itself — which is exactly why the paper authenticates
  // messages with owner-stored MD5 digests (Section III-C).  The decoder's
  // digest check below is the defense exercised here.
  switch (req.decoder.add(message)) {
    case coding::AddResult::accepted:
      ++req.stats.messages_accepted;
      break;
    case coding::AddResult::non_innovative:
      ++req.stats.messages_non_innovative;
      break;
    case coding::AddResult::bad_digest:
      ++req.stats.messages_bad_digest;
      break;
    default:
      break;
  }

  if (req.decoder.complete() && !req.done) {
    // "User u sends a stop transmission ... and reconstructs file X."
    req.result = req.decoder.reconstruct();
    req.done = true;
    req.stats.completed_slot = slot_ + 1;
    for (Session& s : req.sessions)
      if (s.state != Session::State::failed) s.state = Session::State::closed;
  }
}

void System::serve_sessions(std::vector<double>& used_upload) {
  const std::size_t count = n();
  std::fill(slot_delivered_kb_.begin(), slot_delivered_kb_.end(), 0.0);

  // Which user is actively downloadable from which peer this slot.
  // requesting[u] per peer; also remember the request driving it.
  std::vector<Request*> active_request(count, nullptr);
  for (auto& rp : requests_) {
    Request& req = *rp;
    if (!req.done) active_request[req.user] = &req;
  }

  // Allocation matrix mu[peer][user].
  std::vector<double> matrix(count * count, 0.0);
  std::vector<std::uint8_t> requesting(count, 0);
  std::vector<double> declared(count);
  std::vector<double> row(count);
  for (std::size_t i = 0; i < count; ++i) declared[i] = params_[i].upload_kbps;

  for (PeerId peer = 0; peer < count; ++peer) {
    // Build this peer's requester set.
    std::fill(requesting.begin(), requesting.end(), 0);
    bool any = false;
    for (PeerId user = 0; user < count; ++user) {
      Request* req = active_request[user];
      if (!req) continue;
      Session& s = req->sessions[peer];
      if (s.state != Session::State::active &&
          s.state != Session::State::handshaking)
        continue;
      if (slot_ < s.active_at) continue;
      s.state = Session::State::active;
      const FileRecord* file = find_file(req->file_id);
      const bool servable =
          online_[peer] &&
          ((peer == file->owner) ||
           s.cursor < peers_[peer]->store.count(req->file_id));
      if (!servable) continue;
      requesting[user] = 1;
      any = true;
    }
    if (!any || params_[peer].upload_kbps <= 0.0) continue;

    alloc::PeerContext ctx;
    ctx.self = peer;
    ctx.slot = slot_;
    ctx.capacity = params_[peer].upload_kbps;
    ctx.requesting = requesting;
    ctx.declared = declared;
    peers_[peer]->policy->allocate(ctx, row);

    double sum = 0.0;
    for (std::size_t u = 0; u < count; ++u) {
      if (!requesting[u] || row[u] < 0.0) row[u] = 0.0;
      sum += row[u];
    }
    if (sum > ctx.capacity && sum > 0.0) {
      const double scale = ctx.capacity / sum;
      for (std::size_t u = 0; u < count; ++u) row[u] *= scale;
    }
    for (std::size_t u = 0; u < count; ++u) matrix[peer * count + u] = row[u];
  }

  // Enforce each user's download capacity (TCP backpressure).
  for (PeerId user = 0; user < count; ++user) {
    Request* req = active_request[user];
    if (!req) continue;
    double total = 0.0;
    for (PeerId peer = 0; peer < count; ++peer)
      total += matrix[peer * count + user];
    if (total > req->download_kbps && total > 0.0) {
      const double scale = req->download_kbps / total;
      for (PeerId peer = 0; peer < count; ++peer)
        matrix[peer * count + user] *= scale;
    }
  }

  // Move bytes: fill each session's bucket, deliver completed messages.
  for (PeerId peer = 0; peer < count; ++peer) {
    for (PeerId user = 0; user < count; ++user) {
      const double rate = matrix[peer * count + user];
      if (rate <= 0.0) continue;
      Request* req = active_request[user];
      Session& s = req->sessions[peer];
      used_upload[peer] += rate;
      slot_delivered_kb_[user] += rate;
      s.bucket_kilobits += rate;  // kbps * 1 s = kilobits

      FileRecord* file = find_file(req->file_id);
      const double loss = params_[peer].loss_rate;
      for (;;) {
        if (req->done) break;
        coding::EncodedMessage next;
        if (peer == file->owner) {
          if (s.pending_retransmit) {
            // A previously lost owner-generated message goes out again.
            const double need = wire_kilobits(*s.pending_retransmit);
            if (s.bucket_kilobits < need) break;
            s.bucket_kilobits -= need;
            next = *s.pending_retransmit;
          } else {
            // The owner encodes on demand (unbounded fresh supply); peek
            // cost by generating only when the bucket can pay for one.
            const double need =
                static_cast<double>(16 +
                                    file->encoder.params().message_bytes()) *
                8.0 / 1000.0;
            if (s.bucket_kilobits < need) break;
            next = file->encoder.next_message();
            // The user's decoder learns the fresh digest from its (online)
            // own peer, as Section III-C allows.
            req->decoder.add_digest(next.message_id, next.digest());
            s.bucket_kilobits -= need;
          }
          if (loss > 0.0 && loss_rng_.next_double() < loss) {
            // Bandwidth spent, message dropped in transit; retransmit.
            ++req->stats.messages_lost;
            s.pending_retransmit = std::move(next);
            continue;
          }
          s.pending_retransmit.reset();
        } else {
          if (s.cursor >= peers_[peer]->store.count(req->file_id)) break;
          const coding::EncodedMessage& stored =
              peers_[peer]->store.at(req->file_id, s.cursor);
          const double need = wire_kilobits(stored);
          if (s.bucket_kilobits < need) break;
          s.bucket_kilobits -= need;
          if (loss > 0.0 && loss_rng_.next_double() < loss) {
            // Cursor not advanced: the verbatim store retransmits.
            ++req->stats.messages_lost;
            continue;
          }
          next = stored;
          ++s.cursor;
        }
        deliver(*req, peer, std::move(next));
      }
    }
  }

  for (PeerId user = 0; user < count; ++user)
    download_trace_[user].append(slot_delivered_kb_[user]);

  // Local feedback to every peer's policy: what its user received.
  std::vector<double> received(count);
  for (PeerId user = 0; user < count; ++user) {
    for (PeerId peer = 0; peer < count; ++peer)
      received[peer] = matrix[peer * count + user];
    alloc::SlotFeedback fb;
    fb.slot = slot_;
    fb.received = received;
    peers_[user]->policy->observe(fb);
  }
}

void System::disseminate(const std::vector<double>& used_upload) {
  // Leftover upload capacity drives the initialization phase.
  std::vector<double> leftover(n());
  for (PeerId i = 0; i < n(); ++i)
    leftover[i] = std::max(0.0, params_[i].upload_kbps - used_upload[i]);

  for (auto& fp : files_) {
    FileRecord& file = *fp;
    if (!online_[file.owner]) continue;
    double& budget = leftover[file.owner];
    while (!file.queue.empty() && budget > 0.0) {
      auto& pending = file.queue.front();
      if (!online_[pending.target]) {
        // Rotate offline targets to the back so online ones still fill.
        file.queue.push_back(std::move(pending));
        file.queue.pop_front();
        // Avoid spinning when everyone left is offline.
        bool any_online = false;
        for (const auto& q : file.queue)
          if (online_[q.target]) any_online = true;
        if (!any_online) break;
        continue;
      }
      const double need = wire_kilobits(pending.message) - pending.sent_kilobits;
      if (budget < need) {
        pending.sent_kilobits += budget;
        budget = 0.0;
        break;
      }
      budget -= need;
      const PeerId target = pending.target;
      const bool had_any =
          peers_[target]->store.count(file.file_id) > 0;
      peers_[target]->store.store(std::move(pending.message));
      if (!had_any)  // first message landed: advertise on the ring
        locator_.announce(file.file_id, target);
      file.queue.pop_front();
      ++file.uploaded;
    }
  }
}

void System::step() {
  std::vector<double> used_upload(n(), 0.0);
  serve_sessions(used_upload);
  disseminate(used_upload);
  ++slot_;
}

void System::run(std::uint64_t slots) {
  for (std::uint64_t s = 0; s < slots; ++s) step();
}

bool System::run_until_complete(std::size_t request, std::uint64_t max_slots) {
  for (std::uint64_t s = 0; s < max_slots && !complete(request); ++s) step();
  return complete(request);
}

}  // namespace fairshare::p2p
