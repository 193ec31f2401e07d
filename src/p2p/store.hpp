// Per-peer message storage (the "File-id.dat" store of Figure 3).
//
// Peers hold other users' coded messages verbatim: "rather than having
// peers transferring linear combinations of their information to others on
// the network, peers transmit exactly what was uploaded to their storage
// area ... peers do not need to perform any computation when messages are
// requested from them; they simply forward what they have stored"
// (Section III-A, technical difference 2).
//
// A per-file storage limit models the k' < k mode of Section III-D, where
// a peer "conserves storage space" and downloads must make up the deficit
// from other peers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coding/message.hpp"

namespace fairshare::p2p {

class MessageStore {
 public:
  /// `per_file_limit`: maximum messages stored per file id (k' of Section
  /// III-D); additional uploads are rejected.
  explicit MessageStore(std::size_t per_file_limit = SIZE_MAX)
      : per_file_limit_(per_file_limit) {}

  /// Store a message verbatim.  Returns false (and drops it) when the
  /// per-file limit is reached or the exact message id is already held.
  bool store(coding::EncodedMessage message);

  /// Stored messages of one file.
  std::size_t count(std::uint64_t file_id) const;
  /// Messages of one file in storage order; index < count(file_id).
  const coding::EncodedMessage& at(std::uint64_t file_id,
                                   std::size_t index) const;

  /// All file ids with at least one stored message (sorted).
  std::vector<std::uint64_t> file_ids() const;

  /// Total bytes of stored payloads (the paper's "disk-space for
  /// bandwidth" trade).
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t per_file_limit() const { return per_file_limit_; }

 private:
  std::size_t per_file_limit_;
  std::size_t bytes_used_ = 0;
  std::unordered_map<std::uint64_t, std::vector<coding::EncodedMessage>>
      files_;
};

}  // namespace fairshare::p2p
