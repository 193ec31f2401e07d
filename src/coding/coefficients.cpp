#include "coding/coefficients.hpp"

#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"

namespace fairshare::coding {

namespace {

// 256-bit ChaCha20 key = SHA-256(secret || "fairshare-coef" || file_id ||
// message_id); the message id is the "cryptographic hash of i" seed input
// the paper describes.
crypto::Sha256Digest derive_key(const SecretKey& secret, std::uint64_t file_id,
                                std::uint64_t message_id) {
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(secret.data(), secret.size()));
  static constexpr char kLabel[] = "fairshare-coef";
  h.update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kLabel), sizeof(kLabel) - 1));
  std::uint8_t ids[16];
  for (int i = 0; i < 8; ++i) {
    ids[i] = static_cast<std::uint8_t>(file_id >> (8 * i));
    ids[8 + i] = static_cast<std::uint8_t>(message_id >> (8 * i));
  }
  h.update(std::span<const std::uint8_t>(ids, 16));
  return h.finish();
}

}  // namespace

CoefficientGenerator::CoefficientGenerator(const SecretKey& secret,
                                           std::uint64_t file_id,
                                           const CodingParams& params,
                                           std::size_t k)
    : secret_(secret), file_id_(file_id), field_(params.field), k_(k) {}

std::vector<std::byte> CoefficientGenerator::row(std::uint64_t message_id,
                                                 std::size_t width) const {
  const auto& f = gf::field_view(field_);
  const crypto::Sha256Digest key = derive_key(secret_, file_id_, message_id);
  const std::array<std::uint8_t, crypto::ChaCha20::kNonceSize> nonce{};
  crypto::ChaCha20 rng(std::span<const std::uint8_t, 32>(key), nonce);

  std::vector<std::byte> packed(f.row_bytes(width), std::byte{0});
  // Symbol widths are powers of two <= 32 bits, so raw keystream bits are
  // already uniform over F_q; no rejection needed.
  for (std::size_t j = 0; j < width; ++j) {
    std::uint64_t v;
    switch (field_) {
      case gf::FieldId::gf2_4: v = rng.next_byte() & 0xF; break;
      case gf::FieldId::gf2_8: v = rng.next_byte(); break;
      case gf::FieldId::gf2_16:
        v = rng.next_byte() | (std::uint64_t{rng.next_byte()} << 8);
        break;
      default: v = rng.next_u32(); break;
    }
    f.set(packed.data(), j, v);
  }
  return packed;
}

std::vector<std::uint64_t> CoefficientGenerator::row_symbols(
    std::uint64_t message_id) const {
  const auto& f = gf::field_view(field_);
  const std::vector<std::byte> packed = row(message_id);
  std::vector<std::uint64_t> out(k_);
  for (std::size_t j = 0; j < k_; ++j) out[j] = f.get(packed.data(), j);
  return out;
}

}  // namespace fairshare::coding
