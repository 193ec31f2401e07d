// Set-up of one benchmark world: identities, the owner's encode into peer
// stores, and a federation of discovery nodes and serving peers over
// loopback TCP.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "coding/message.hpp"
#include "crypto/rsa.hpp"
#include "disco/client.hpp"
#include "disco/node.hpp"
#include "net/download_client.hpp"
#include "net/peer_server.hpp"
#include "obs/metrics.hpp"
#include "p2p/store.hpp"
#include "recorder.hpp"

namespace perfbench {

/// RSA identities of every server and user, generated once per process
/// from the seed (512-bit, the library's demo key size).  Peer i has
/// peer_id server_peer_id(i); user u has user id user_id(u).
struct Identities {
  std::vector<fairshare::crypto::RsaKeyPair> servers;
  std::vector<fairshare::crypto::RsaKeyPair> users;

  static Identities generate(std::uint64_t seed, std::size_t servers,
                             std::size_t users);
};

inline std::uint64_t server_peer_id(std::size_t i) { return 100 + i; }
inline std::uint64_t user_id(std::size_t u) { return 1 + u; }

/// Deterministic pseudo-random file contents.
std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed);

/// The owner's upload (Section III-A): encode `data` once and store k
/// coded messages in each of `stores`.  Returns the decoding metadata,
/// whose digest table covers every stored message.  Encode and store time
/// are summed into `layers` when it is non-null.
fairshare::coding::FileInfo publish(
    const fairshare::coding::SecretKey& secret, std::uint64_t file_id,
    std::span<const std::byte> data, fairshare::coding::CodecKind codec,
    std::span<fairshare::p2p::MessageStore> stores, LayerCounters* layers);

/// One authenticated PeerServer per store, optionally behind discovery
/// nodes (each server announcing its files through one of them).  The
/// constructor returns once every file in `file_ids` resolves to every
/// server; it throws std::runtime_error when the world cannot be brought
/// up.
class Swarm {
 public:
  struct Config {
    double rate_kbps = 0.0;  ///< per-server upload pacing; 0 = unpaced
    std::size_t discovery_nodes = 0;  ///< 0 = static peer lists only
    std::uint64_t seed = 1;
  };

  Swarm(const Config& config, const Identities& ids,
        std::vector<fairshare::p2p::MessageStore> stores,
        std::span<const std::uint64_t> file_ids,
        fairshare::obs::MetricsRegistry& registry);
  ~Swarm();

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  fairshare::disco::ClientConfig disco_config() const;
  /// Every server as a download endpoint, identities attached.
  std::vector<fairshare::net::PeerEndpoint> endpoints() const;
  /// Fill in each endpoint's RSA identity from the out-of-band key table
  /// (discovery does not distribute keys).
  void attach_identities(std::vector<fairshare::net::PeerEndpoint>& peers) const;
  fairshare::net::PeerServer& server(std::size_t i) { return *servers_[i]; }

 private:
  const Identities& ids_;
  std::vector<std::shared_ptr<fairshare::disco::DiscoveryNode>> nodes_;
  std::vector<std::unique_ptr<fairshare::net::PeerServer>> servers_;
};

}  // namespace perfbench
