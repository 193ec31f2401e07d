// Binary wire formats for every protocol message the system exchanges.
//
// The in-process simulation passes C++ objects around for speed, but a
// deployable system (and the paper's Figure 4(b) timeline) needs concrete
// frames: the three handshake messages, the file request (transmission
// "2"/"3"), coded data ("4"), the stop message ("5"), and the metadata
// (FileInfo) the user carries to a remote machine.  All integers are
// little-endian; every decoder is bounds-checked and total (malformed
// input yields nullopt, never UB) — exercised by mutation tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "coding/message.hpp"
#include "crypto/auth.hpp"

namespace fairshare::p2p::wire {

/// Frame type tags (first byte of every frame).
enum class MessageType : std::uint8_t {
  auth_hello = 1,
  auth_challenge = 2,
  auth_response = 3,
  file_request = 4,       ///< Figure 4(b) transmission "2"/"3"
  coded_message = 5,      ///< transmission "4"
  stop_transmission = 6,  ///< transmission "5"
  file_info = 8,          ///< user-carried metadata (7 is retired)
};

/// Transmission "2"/"3": an authenticated user asks a peer for a file's
/// messages.  `max_rate_kbps` keeps its place in the frame, but servers
/// never read it: Eq. (2) pacing alone sets a session's rate, so this
/// untrusted value reaches no arithmetic.
struct FileRequest {
  std::uint64_t user_id = 0;
  std::uint64_t file_id = 0;
  double max_rate_kbps = 0.0;

  bool operator==(const FileRequest&) const = default;
};

/// Transmission "5": enough messages decoded; stop sending.
struct StopTransmission {
  std::uint64_t user_id = 0;
  std::uint64_t file_id = 0;

  bool operator==(const StopTransmission&) const = default;
};

// --------------------------------------------------------------- encoders
std::vector<std::byte> encode(const crypto::AuthHello& msg);
std::vector<std::byte> encode(const crypto::AuthChallenge& msg);
std::vector<std::byte> encode(const crypto::AuthResponse& msg);
std::vector<std::byte> encode(const FileRequest& msg);
std::vector<std::byte> encode(const StopTransmission& msg);
std::vector<std::byte> encode(const coding::EncodedMessage& msg);

/// The largest coded_message frame a client accepts (download_file's
/// receive bound), and so the largest message a FileInfo may describe:
/// decode_file_info rejects geometry whose message_bytes() plus framing
/// exceeds it, before any decoder sizes its slots by it.
inline constexpr std::size_t kMaxCodedFrameBytes = std::size_t{64} << 20;

/// The most chunks (k), and the widest class, a FileInfo may describe.  A
/// decoder keeps state for every row of every class, and a class's
/// coefficient matrix grows with the square of its width, so
/// decode_file_info rejects metadata past these caps before any decoder
/// is sized by it.  The widest class is k for a dense file and
/// min(k, class_size) for a chunked one.  At the paper's defaults
/// (GF(2^32), m = 2^15, 128 KiB messages) a 1 GiB dense file is exactly
/// kMaxClassWidth chunks, and a chunked file may reach 16 GiB.
inline constexpr std::uint64_t kMaxChunks = std::uint64_t{1} << 17;
inline constexpr std::uint64_t kMaxClassWidth = std::uint64_t{1} << 13;
/// The most decoder state a FileInfo may describe: the sum over its
/// classes of the squared class width, capped at the state of the widest
/// admitted class (a dense file is one class of width k).  This bounds a
/// chunked schedule's overlap, which the other caps do not: classes of 64
/// at stride 1 over kMaxChunks chunks are 131009 classes and about 4 GiB
/// of solver rows.  A 1 GiB chunked file at the default 64/8 schedule
/// needs under 1% of the cap.  The cap implies the kMaxClassWidth one.
inline constexpr std::uint64_t kMaxClassState =
    kMaxClassWidth * kMaxClassWidth;

/// Bytes of a coded_message frame ahead of its payload length: the type
/// tag and both u64 ids.
inline constexpr std::size_t kCodedMessageIdBytes = 1 + 8 + 8;
/// Framing bytes of a coded_message frame ahead of the payload: the ids
/// prefix and the u32 payload length.
inline constexpr std::size_t kCodedMessageHeaderBytes =
    kCodedMessageIdBytes + 4;

/// Encode only the coded_message framing, for scatter-gather sends: the
/// returned header followed by msg.payload is byte-identical to
/// encode(msg), so the serving path can reference the payload in place
/// instead of copying it into a frame.
std::array<std::byte, kCodedMessageHeaderBytes> encode_coded_message_header(
    const coding::EncodedMessage& msg);
std::vector<std::byte> encode(const coding::FileInfo& info);

// --------------------------------------------------------------- decoders
// Each consumes a full frame produced by the matching encode().
std::optional<crypto::AuthHello> decode_auth_hello(
    std::span<const std::byte> frame);
std::optional<crypto::AuthChallenge> decode_auth_challenge(
    std::span<const std::byte> frame);
std::optional<crypto::AuthResponse> decode_auth_response(
    std::span<const std::byte> frame);
std::optional<FileRequest> decode_file_request(
    std::span<const std::byte> frame);
std::optional<StopTransmission> decode_stop_transmission(
    std::span<const std::byte> frame);
/// A coded_message frame read in place: the view's payload points into
/// `frame`, so it is valid only while `frame` is.  decode_coded_message is
/// this parser plus a copy of the payload.
std::optional<coding::EncodedMessageView> view_coded_message(
    std::span<const std::byte> frame);
std::optional<coding::EncodedMessage> decode_coded_message(
    std::span<const std::byte> frame);
std::optional<coding::FileInfo> decode_file_info(
    std::span<const std::byte> frame);

/// Type tag of a frame (nullopt when empty or unknown).
std::optional<MessageType> peek_type(std::span<const std::byte> frame);

}  // namespace fairshare::p2p::wire
