// MD5 message digest (RFC 1321), implemented from the specification.
//
// The paper stores a 128-bit MD5 hash of every uploaded coded message on
// the originating peer and uses it to authenticate messages on the fly
// during download (Section III-C), at a cost of "128 hash bytes per
// megabyte" for the paper's example parameters.  MD5 is used here for
// protocol fidelity with the paper; it is NOT collision resistant by
// modern standards (see sha256.hpp for the alternative the library also
// supports).
//
// Many equal-length messages hash at once through md5_many: on hosts with
// AVX-512 each of a zmm register's sixteen 32-bit lanes carries one
// message's MD5 state, so one pass of the round function advances sixteen
// messages by one 64-byte block.  Its digests are bit-identical to Md5's;
// Md5 is the reference, and the tier a batch of one runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fairshare::crypto {

/// A 16-byte MD5 digest.
using Md5Digest = std::array<std::uint8_t, 16>;

/// Incremental MD5 hasher.
///
///   Md5 h;
///   h.update(buf1); h.update(buf2);
///   Md5Digest d = h.finish();
///
/// finish() may be called once; the object can be reused after reset().
class Md5 {
 public:
  Md5() { reset(); }

  void reset();
  void update(std::span<const std::byte> data);
  void update(std::span<const std::uint8_t> data);
  Md5Digest finish();

  /// One-shot convenience.
  static Md5Digest hash(std::span<const std::byte> data);
  static Md5Digest hash(std::span<const std::uint8_t> data);
  static Md5Digest hash(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_;
  std::uint64_t length_ = 0;  // total bytes seen
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
};

/// One input of md5_many: the message head || body, hashed as one stream
/// (a coded message's 16 id bytes and its payload, without joining them).
struct Md5Input {
  std::span<const std::byte> head;
  std::span<const std::byte> body;
};

/// One implementation of md5_many, hashing `lanes` inputs per pass.
struct Md5Tier {
  const char* name;   ///< "scalar" or "avx512"
  std::size_t lanes;  ///< inputs per pass: 1, or 16 for avx512
  std::vector<Md5Digest> (*run)(std::span<const Md5Input> inputs);
};

/// Every md5_many tier this host can run, scalar first and the dispatched
/// one last (the avx512 tier needs AVX-512F, checked at run time), so tests
/// and benchmarks compare tiers in one process.  Built once, thread-safely;
/// the span has static storage duration.
std::span<const Md5Tier> md5_tiers();

/// The MD5 of every input, in order: out[i] is bit-identical to Md5 over
/// inputs[i].head then inputs[i].body.  Every input must have the same head
/// length and the same body length.  Runs md5_tiers().back(), in passes of
/// its lane count (lanes past the last input repeat input 0), except that
/// a batch of one runs the scalar Md5.  Reads only its arguments, so any
/// number of threads may call it at once.
std::vector<Md5Digest> md5_many(std::span<const Md5Input> inputs);

/// Lowercase hex rendering of a digest, e.g. for logging/tests.
std::string to_hex(std::span<const std::uint8_t> digest);

}  // namespace fairshare::crypto
