// Mutual public-key challenge-response authentication.
//
// Implements transmission "1" of Figure 4(b): before a peer contributes
// messages to a downloading user, "user u authenticates itself to peer j
// ... Ideally, this authentication should go both ways (i.e., peer j
// should authenticate to user u as well) in order to prevent
// man-in-the-middle or IP spoofing attacks."  (Section III-B.)
//
// Three-message handshake:
//   1. user -> peer : Hello      (user id, 32-byte user nonce)
//   2. peer -> user : Challenge  (peer nonce, RSA signature over the
//                                 transcript so far — authenticates peer)
//   3. user -> peer : Response   (RSA signature over the full transcript —
//                                 authenticates user — plus a fresh session
//                                 key RSA-encrypted to the peer)
// Both sides then hold a shared 32-byte session key; subsequent messages
// of the session carry HMAC-SHA256 tags under that key.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/chacha20.hpp"
#include "crypto/rsa.hpp"

namespace fairshare::crypto {

using Nonce = std::array<std::uint8_t, 32>;
using SessionKey = std::array<std::uint8_t, 32>;

struct AuthHello {
  std::uint64_t user_id = 0;
  Nonce user_nonce{};
};

struct AuthChallenge {
  std::uint64_t peer_id = 0;
  Nonce peer_nonce{};
  std::vector<std::uint8_t> signature;  // over Hello || peer_id || peer_nonce
};

struct AuthResponse {
  std::vector<std::uint8_t> signature;  // over the full transcript
  std::vector<std::uint8_t> encrypted_session_key;
};

/// User side of the handshake.
class AuthInitiator {
 public:
  /// `rng` supplies the nonce and session key and must outlive the object.
  AuthInitiator(std::uint64_t user_id, const RsaKeyPair& user_key,
                const RsaPublicKey& peer_public_key, ChaCha20& rng);

  /// Message 1.
  AuthHello hello();

  /// Handle message 2.  Returns message 3, or nullopt when the peer's
  /// signature does not verify (handshake must be aborted).
  std::optional<AuthResponse> on_challenge(const AuthChallenge& challenge);

  /// Valid only after on_challenge succeeded.
  const SessionKey& session_key() const { return session_key_; }
  bool established() const { return established_; }

 private:
  std::uint64_t user_id_;
  const RsaKeyPair& user_key_;
  const RsaPublicKey& peer_public_key_;
  ChaCha20& rng_;
  Nonce user_nonce_{};
  SessionKey session_key_{};
  bool hello_sent_ = false;
  bool established_ = false;
};

/// Peer side of the handshake.
class AuthResponder {
 public:
  AuthResponder(std::uint64_t peer_id, const RsaKeyPair& peer_key,
                const RsaPublicKey& user_public_key, ChaCha20& rng);

  /// Handle message 1, produce message 2.
  AuthChallenge on_hello(const AuthHello& hello);

  /// Handle message 3.  Returns true when the user is authenticated and a
  /// session key has been agreed.
  bool on_response(const AuthResponse& response);

  const SessionKey& session_key() const { return session_key_; }
  bool established() const { return established_; }

 private:
  std::uint64_t peer_id_;
  const RsaKeyPair& peer_key_;
  const RsaPublicKey& user_public_key_;
  ChaCha20& rng_;
  AuthHello hello_{};
  Nonce peer_nonce_{};
  SessionKey session_key_{};
  bool challenged_ = false;
  bool established_ = false;
};

/// Deterministic nonce and session-key stream for one handshake: ChaCha20
/// keyed by SHA-256(seed || salt), both little-endian, under a zero nonce.
/// Clients and servers both draw their handshake randomness from it, each
/// with its own seed and a salt unique to the connection attempt.
ChaCha20 handshake_rng(std::uint64_t seed, std::uint64_t salt);

/// HMAC tag over a session message (payload framing helper shared by both
/// sides once the handshake completes).
Sha256Digest session_tag(const SessionKey& key,
                         std::span<const std::uint8_t> payload);

}  // namespace fairshare::crypto
