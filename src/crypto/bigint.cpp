#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>

#include "crypto/chacha20.hpp"

namespace fairshare::crypto {

namespace {
constexpr std::uint64_t kBase = std::uint64_t{1} << 32;
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  BigUInt out;
  for (char c : hex) {
    unsigned digit;
    if (c >= '0' && c <= '9')
      digit = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      digit = static_cast<unsigned>(c - 'A' + 10);
    else
      throw std::invalid_argument("BigUInt::from_hex: bad digit");
    // out = out * 16 + digit
    std::uint64_t carry = digit;
    for (auto& limb : out.limbs_) {
      const std::uint64_t v = (static_cast<std::uint64_t>(limb) << 4) | carry;
      limb = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  return out;
}

BigUInt BigUInt::from_bytes_be(std::span<const std::uint8_t> bytes) {
  BigUInt out;
  const std::size_t n = bytes.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t pos = n - 1 - i;  // byte significance
    out.limbs_[pos / 4] |= static_cast<std::uint32_t>(bytes[i])
                           << (8 * (pos % 4));
  }
  out.trim();
  return out;
}

BigUInt BigUInt::random_bits(std::size_t bits, ChaCha20& rng) {
  assert(bits >= 1);
  BigUInt out;
  out.limbs_.assign((bits + 31) / 32, 0);
  for (auto& limb : out.limbs_) limb = rng.next_u32();
  const std::size_t top = (bits - 1) % 32;
  // Mask off excess bits, then force the top bit so bit_length() == bits.
  out.limbs_.back() &= (top == 31) ? ~std::uint32_t{0}
                                   : ((std::uint32_t{1} << (top + 1)) - 1);
  out.limbs_.back() |= std::uint32_t{1} << top;
  return out;
}

BigUInt BigUInt::random_below(const BigUInt& bound, ChaCha20& rng) {
  assert(!bound.is_zero());
  const std::size_t bits = bound.bit_length();
  for (;;) {
    BigUInt candidate;
    candidate.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : candidate.limbs_) limb = rng.next_u32();
    const std::size_t excess = candidate.limbs_.size() * 32 - bits;
    if (excess > 0) candidate.limbs_.back() >>= excess;
    candidate.trim();
    if (candidate < bound) return candidate;
  }
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4)
      out.push_back(kHex[(limbs_[i] >> shift) & 0xF]);
  }
  const std::size_t nz = out.find_first_not_of('0');
  return out.substr(nz);
}

std::vector<std::uint8_t> BigUInt::to_bytes_be(std::size_t min_len) const {
  std::vector<std::uint8_t> out;
  const std::size_t total_bytes = (bit_length() + 7) / 8;
  const std::size_t len = std::max(total_bytes, min_len);
  out.assign(len, 0);
  for (std::size_t pos = 0; pos < total_bytes; ++pos) {
    out[len - 1 - pos] = static_cast<std::uint8_t>(
        limbs_[pos / 4] >> (8 * (pos % 4)));
  }
  return out;
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 32 * (limbs_.size() - 1) +
         (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUInt::low_u64() const {
  std::uint64_t v = limbs_.empty() ? 0 : limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

std::strong_ordering BigUInt::operator<=>(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size())
    return limbs_.size() <=> other.limbs_.size();
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUInt BigUInt::operator+(const BigUInt& other) const {
  BigUInt out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = carry;
    if (i < limbs_.size()) v += limbs_[i];
    if (i < other.limbs_.size()) v += other.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(v));
    carry = v >> 32;
  }
  if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUInt BigUInt::operator-(const BigUInt& other) const {
  assert(*this >= other);
  BigUInt out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t v = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) v -= other.limbs_[i];
    borrow = 0;
    if (v < 0) {
      v += static_cast<std::int64_t>(kBase);
      borrow = 1;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(v));
  }
  assert(borrow == 0);
  out.trim();
  return out;
}

BigUInt BigUInt::operator*(const BigUInt& other) const {
  if (is_zero() || other.is_zero()) return BigUInt{};
  BigUInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const std::uint64_t v = ai * other.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    out.limbs_[i + other.limbs_.size()] = static_cast<std::uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const unsigned bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::operator>>(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const unsigned bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigUInt{};
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >>
                      bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

DivMod BigUInt::divmod(const BigUInt& dividend, const BigUInt& divisor) {
  assert(!divisor.is_zero());
  if (dividend < divisor) return {BigUInt{}, dividend};

  // Single-limb divisor: straightforward short division.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigUInt q;
    q.limbs_.assign(dividend.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = dividend.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | dividend.limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {std::move(q), BigUInt{rem}};
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1).
  const unsigned shift =
      static_cast<unsigned>(std::countl_zero(divisor.limbs_.back()));
  const BigUInt un_big = dividend << shift;
  const BigUInt vn = divisor << shift;
  const std::size_t n = vn.limbs_.size();
  const std::size_t m = dividend.limbs_.size() - n +
                        (un_big.limbs_.size() > dividend.limbs_.size() ? 1 : 0);

  // u gets an explicit extra high limb.
  std::vector<std::uint32_t> u = un_big.limbs_;
  u.resize(dividend.limbs_.size() + 1, 0);
  const std::vector<std::uint32_t>& v = vn.limbs_;

  BigUInt q;
  q.limbs_.assign(u.size() - n, 0);

  for (std::size_t j = u.size() - n; j-- > 0;) {
    // Estimate qhat from the top two limbs of the current remainder window.
    const std::uint64_t top =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = top / v[n - 1];
    std::uint64_t rhat = top % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract u[j .. j+n] -= qhat * v.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                             static_cast<std::int64_t>(p & 0xFFFFFFFF) -
                             borrow;
      u[i + j] = static_cast<std::uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    u[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large; add v back.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      u[j + n] += static_cast<std::uint32_t>(c);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  (void)m;

  q.trim();
  BigUInt r;
  r.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  return {std::move(q), r >> shift};
}

BigUInt BigUInt::operator/(const BigUInt& other) const {
  return divmod(*this, other).quotient;
}

BigUInt BigUInt::operator%(const BigUInt& other) const {
  return divmod(*this, other).remainder;
}

namespace {

__extension__ typedef unsigned __int128 u128;  // GCC/Clang builtin

// 32-bit limbs zero-extended into `out.size()` 64-bit limbs.
void pack64(std::span<const std::uint32_t> in, std::span<std::uint64_t> out) {
  std::fill(out.begin(), out.end(), 0);
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i / 2] |= static_cast<std::uint64_t>(in[i]) << (32 * (i % 2));
}

// Montgomery multiplication modulo an odd n of s 64-bit limbs, with
// R = 2^(64 s).  Working storage is allocated once, by the constructor.
class Montgomery {
 public:
  explicit Montgomery(std::span<const std::uint32_t> n)
      : s_((n.size() + 1) / 2), n_(s_), t_(s_ + 2) {
    pack64(n, n_);
    // Newton's iteration for n^-1 mod 2^64: n * n == 1 (mod 8) for odd n,
    // and each step doubles the correct low bits (3, 6, ..., 96).
    std::uint64_t inv = n_[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - n_[0] * inv;
    n0inv_ = 0 - inv;
  }

  std::size_t limbs() const { return s_; }

  // out = a b / R mod n, for a, b < n; out may alias a or b.  Coarsely
  // integrated operand scanning (Koc, Acar & Kaliski): each step adds
  // a b[i], then the multiple of n that zeroes the low limb, and drops
  // that limb.  The sum stays below 2n, so one subtraction finishes.
  void mul(std::uint64_t* out, const std::uint64_t* a,
           const std::uint64_t* b) {
    const std::size_t s = s_;
    const std::uint64_t* n = n_.data();
    const std::uint64_t n0inv = n0inv_;
    std::uint64_t* t = t_.data();
    std::fill_n(t, s + 2, 0);
    for (std::size_t i = 0; i < s; ++i) {
      const std::uint64_t bi = b[i];
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < s; ++j) {
        const u128 p = static_cast<u128>(a[j]) * bi + t[j] + carry;
        t[j] = static_cast<std::uint64_t>(p);
        carry = static_cast<std::uint64_t>(p >> 64);
      }
      u128 p = static_cast<u128>(t[s]) + carry;
      t[s] = static_cast<std::uint64_t>(p);
      t[s + 1] = static_cast<std::uint64_t>(p >> 64);

      const std::uint64_t m = t[0] * n0inv;
      p = static_cast<u128>(m) * n[0] + t[0];
      carry = static_cast<std::uint64_t>(p >> 64);
      for (std::size_t j = 1; j < s; ++j) {
        p = static_cast<u128>(m) * n[j] + t[j] + carry;
        t[j - 1] = static_cast<std::uint64_t>(p);
        carry = static_cast<std::uint64_t>(p >> 64);
      }
      p = static_cast<u128>(t[s]) + carry;
      t[s - 1] = static_cast<std::uint64_t>(p);
      t[s] = t[s + 1] + static_cast<std::uint64_t>(p >> 64);
    }
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const u128 d = static_cast<u128>(t[j]) - n[j] - borrow;
      out[j] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
    if (t[s] == 0 && borrow != 0) std::copy_n(t, s, out);  // t < n
  }

 private:
  std::size_t s_;
  std::vector<std::uint64_t> n_;
  std::uint64_t n0inv_ = 0;  // -n^-1 mod 2^64
  std::vector<std::uint64_t> t_;
};

}  // namespace

BigUInt BigUInt::mod_exp(const BigUInt& base, const BigUInt& exp,
                         const BigUInt& modulus) {
  assert(!modulus.is_zero());
  if (modulus == BigUInt{1}) return BigUInt{};
  if (exp.is_zero()) return BigUInt{1};

  if (!modulus.is_odd()) {
    // Right-to-left square-and-multiply.  No protocol modulus is even.
    BigUInt result{1};
    BigUInt b = base % modulus;
    for (std::size_t i = 0; i < exp.bit_length(); ++i) {
      if (exp.bit(i)) result = (result * b) % modulus;
      b = (b * b) % modulus;
    }
    return result;
  }

  // Montgomery form x R mod n, with a fixed 4-bit window over the exponent
  // from the top: table[w] = base^w, four squarings per window.
  const auto window = [&exp](std::size_t i) -> std::size_t {
    return (exp.limbs_[i / 8] >> (4 * (i % 8))) & 0xF;
  };
  const std::size_t windows = (exp.bit_length() + 3) / 4;
  std::size_t top = 1;  // a short exponent such as 65537 needs base^0, base^1
  for (std::size_t i = 0; i < windows; ++i) top = std::max(top, window(i));

  Montgomery mont(modulus.limbs_);
  const std::size_t s = mont.limbs();
  std::vector<std::uint64_t> table(16 * s);
  pack64(((BigUInt{1} << (64 * s)) % modulus).limbs_, {table.data(), s});
  pack64(((base << (64 * s)) % modulus).limbs_, {table.data() + s, s});
  for (std::size_t w = 2; w <= top; ++w)
    mont.mul(&table[w * s], &table[(w - 1) * s], &table[s]);

  std::vector<std::uint64_t> acc(s);
  std::copy_n(&table[window(windows - 1) * s], s, acc.begin());
  for (std::size_t i = windows - 1; i-- > 0;) {
    for (int k = 0; k < 4; ++k) mont.mul(acc.data(), acc.data(), acc.data());
    if (const std::size_t w = window(i); w != 0)
      mont.mul(acc.data(), acc.data(), &table[w * s]);
  }

  // Leave Montgomery form: multiply by 1.
  std::vector<std::uint64_t> one(s, 0);
  one[0] = 1;
  mont.mul(acc.data(), acc.data(), one.data());
  BigUInt out;
  out.limbs_.resize(2 * s);
  for (std::size_t i = 0; i < s; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(acc[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(acc[i] >> 32);
  }
  out.trim();
  return out;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<BigUInt> BigUInt::mod_inverse(const BigUInt& a,
                                            const BigUInt& m) {
  // Extended Euclid with explicit signs on the Bezout coefficient for a.
  BigUInt old_r = a % m, r = m;
  BigUInt old_s{1}, s{};
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    const auto [q, rem] = divmod(old_r, r);
    old_r = std::move(r);
    r = rem;
    // (old_s, s) <- (s, old_s - q*s) with sign tracking.
    BigUInt qs = q * s;
    BigUInt new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      // old_s - qs where both have sign `old_s_neg`.
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }
  if (old_r != BigUInt{1}) return std::nullopt;  // not coprime
  BigUInt inv = old_s % m;
  if (old_s_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

namespace {

// Small primes for trial division before Miller-Rabin.
constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103,
    107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173,
    179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241,
    251, 257, 263, 269, 271, 277, 281, 283, 293};

bool miller_rabin_round(const BigUInt& n, const BigUInt& n_minus_1,
                        const BigUInt& d, std::size_t s, const BigUInt& a) {
  BigUInt x = BigUInt::mod_exp(a, d, n);
  if (x == BigUInt{1} || x == n_minus_1) return true;
  for (std::size_t i = 1; i < s; ++i) {
    x = (x * x) % n;
    if (x == n_minus_1) return true;
  }
  return false;
}

}  // namespace

bool is_probable_prime(const BigUInt& n, ChaCha20& rng, int rounds) {
  if (n < BigUInt{2}) return false;
  if (n == BigUInt{2} || n == BigUInt{3}) return true;
  if (!n.is_odd()) return false;
  for (std::uint32_t p : kSmallPrimes) {
    const BigUInt bp{p};
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }

  const BigUInt n_minus_1 = n - BigUInt{1};
  BigUInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  if (!miller_rabin_round(n, n_minus_1, d, s, BigUInt{2})) return false;
  const BigUInt span = n - BigUInt{4};  // witnesses in [2, n-2]
  for (int i = 0; i < rounds; ++i) {
    const BigUInt a = BigUInt::random_below(span, rng) + BigUInt{2};
    if (!miller_rabin_round(n, n_minus_1, d, s, a)) return false;
  }
  return true;
}

BigUInt generate_prime(std::size_t bits, ChaCha20& rng) {
  assert(bits >= 16);
  for (;;) {
    BigUInt candidate = BigUInt::random_bits(bits, rng);
    if (!candidate.is_odd()) candidate = candidate + BigUInt{1};
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace fairshare::crypto
