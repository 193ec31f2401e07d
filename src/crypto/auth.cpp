#include "crypto/auth.hpp"

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace fairshare::crypto {

namespace {

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

// Transcript through message 2 (what the peer signs).
std::vector<std::uint8_t> challenge_transcript(const AuthHello& hello,
                                               std::uint64_t peer_id,
                                               const Nonce& peer_nonce) {
  std::vector<std::uint8_t> t;
  t.reserve(8 + 32 + 8 + 32);
  append_u64(t, hello.user_id);
  t.insert(t.end(), hello.user_nonce.begin(), hello.user_nonce.end());
  append_u64(t, peer_id);
  t.insert(t.end(), peer_nonce.begin(), peer_nonce.end());
  return t;
}

// Full transcript (what the user signs): the challenge transcript plus the
// encrypted session key, binding key transport to this handshake.
std::vector<std::uint8_t> response_transcript(
    const AuthHello& hello, std::uint64_t peer_id, const Nonce& peer_nonce,
    const std::vector<std::uint8_t>& encrypted_key) {
  std::vector<std::uint8_t> t = challenge_transcript(hello, peer_id,
                                                     peer_nonce);
  t.insert(t.end(), encrypted_key.begin(), encrypted_key.end());
  return t;
}

}  // namespace

ChaCha20 handshake_rng(std::uint64_t seed, std::uint64_t salt) {
  Sha256 h;
  std::uint8_t buf[16];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(seed >> (8 * i));
    buf[8 + i] = static_cast<std::uint8_t>(salt >> (8 * i));
  }
  h.update(std::span<const std::uint8_t>(buf, 16));
  const Sha256Digest key = h.finish();
  const std::array<std::uint8_t, ChaCha20::kNonceSize> nonce{};
  return ChaCha20(std::span<const std::uint8_t, 32>(key), nonce);
}

AuthInitiator::AuthInitiator(std::uint64_t user_id, const RsaKeyPair& user_key,
                             const RsaPublicKey& peer_public_key,
                             ChaCha20& rng)
    : user_id_(user_id),
      user_key_(user_key),
      peer_public_key_(peer_public_key),
      rng_(rng) {}

AuthHello AuthInitiator::hello() {
  rng_.generate(user_nonce_);
  hello_sent_ = true;
  return AuthHello{user_id_, user_nonce_};
}

std::optional<AuthResponse> AuthInitiator::on_challenge(
    const AuthChallenge& challenge) {
  if (!hello_sent_) return std::nullopt;
  const AuthHello hello{user_id_, user_nonce_};
  const auto transcript =
      challenge_transcript(hello, challenge.peer_id, challenge.peer_nonce);
  if (!rsa_verify(peer_public_key_, transcript, challenge.signature))
    return std::nullopt;  // peer failed to prove identity

  rng_.generate(session_key_);
  auto encrypted = rsa_encrypt(peer_public_key_, session_key_);
  if (!encrypted) return std::nullopt;  // modulus too small for the key

  const auto full = response_transcript(hello, challenge.peer_id,
                                        challenge.peer_nonce, *encrypted);
  AuthResponse response;
  response.signature = rsa_sign(user_key_, full);
  response.encrypted_session_key = std::move(*encrypted);
  established_ = true;
  return response;
}

AuthResponder::AuthResponder(std::uint64_t peer_id, const RsaKeyPair& peer_key,
                             const RsaPublicKey& user_public_key,
                             ChaCha20& rng)
    : peer_id_(peer_id),
      peer_key_(peer_key),
      user_public_key_(user_public_key),
      rng_(rng) {}

AuthChallenge AuthResponder::on_hello(const AuthHello& hello) {
  hello_ = hello;
  rng_.generate(peer_nonce_);
  challenged_ = true;
  AuthChallenge challenge;
  challenge.peer_id = peer_id_;
  challenge.peer_nonce = peer_nonce_;
  challenge.signature =
      rsa_sign(peer_key_, challenge_transcript(hello_, peer_id_, peer_nonce_));
  return challenge;
}

bool AuthResponder::on_response(const AuthResponse& response) {
  if (!challenged_) return false;
  const auto full = response_transcript(hello_, peer_id_, peer_nonce_,
                                        response.encrypted_session_key);
  if (!rsa_verify(user_public_key_, full, response.signature)) return false;
  const auto key = rsa_decrypt(peer_key_, response.encrypted_session_key);
  if (!key || key->size() != session_key_.size()) return false;
  std::copy(key->begin(), key->end(), session_key_.begin());
  established_ = true;
  return true;
}

Sha256Digest session_tag(const SessionKey& key,
                         std::span<const std::uint8_t> payload) {
  return hmac_sha256(std::span<const std::uint8_t>(key.data(), key.size()),
                     payload);
}

}  // namespace fairshare::crypto
