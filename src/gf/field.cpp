#include "gf/field.hpp"

#include <bit>
#include <cassert>
#include <utility>
#include <vector>

namespace fairshare::gf {

namespace {

// Log/exp tables for a field whose element x (== 2) is primitive.
// exp_table has 2*(q-1) entries so that exp[log(a)+log(b)] needs no
// modular reduction of the exponent sum.
template <unsigned Bits>
struct LogExpTables {
  using Elem = typename FieldTraits<Bits>::Elem;
  std::vector<Elem> exp_table;           // size 2*(q-1)
  std::vector<std::uint32_t> log_table;  // size q; log_table[0] unused

  LogExpTables() {
    constexpr std::uint64_t q = std::uint64_t{1} << Bits;
    constexpr std::uint64_t gm1 = q - 1;
    exp_table.resize(2 * gm1);
    log_table.assign(q, 0);
    std::uint64_t v = 1;
    for (std::uint64_t i = 0; i < gm1; ++i) {
      exp_table[i] = static_cast<Elem>(v);
      exp_table[i + gm1] = static_cast<Elem>(v);
      log_table[v] = static_cast<std::uint32_t>(i);
      v = detail::polymul_mod(v, 2, FieldTraits<Bits>::modulus, Bits);
    }
    assert(v == 1 && "x must be primitive for the chosen modulus");
  }
};

template <unsigned Bits>
const LogExpTables<Bits>& log_exp_tables() {
  static const LogExpTables<Bits> tables;
  return tables;
}

// Full q x q multiplication tables for the two byte-sized fields; these are
// small (256 B and 64 KiB) and make symbol-wise multiply a single lookup.
template <unsigned Bits>
struct MulTable {
  using Elem = typename FieldTraits<Bits>::Elem;
  static constexpr std::size_t q = std::size_t{1} << Bits;
  std::vector<Elem> table;  // table[a*q + b] = a*b

  MulTable() : table(q * q) {
    for (std::size_t a = 0; a < q; ++a)
      for (std::size_t b = 0; b < q; ++b)
        table[a * q + b] = static_cast<Elem>(
            detail::polymul_mod(a, b, FieldTraits<Bits>::modulus, Bits));
  }
};

template <unsigned Bits>
const MulTable<Bits>& mul_table() {
  static const MulTable<Bits> t;
  return t;
}

}  // namespace

template <unsigned Bits>
typename GF<Bits>::Elem GF<Bits>::mul(Elem a, Elem b) {
  if constexpr (Bits <= 8) {
    return mul_table<Bits>().table[(std::size_t{a} << Bits) + b];
  } else if constexpr (Bits == 16) {
    if (a == 0 || b == 0) return 0;
    const auto& t = log_exp_tables<16>();
    return t.exp_table[t.log_table[a] + t.log_table[b]];
  } else {
    return static_cast<Elem>(detail::polymul_mod(a, b, modulus, Bits));
  }
}

template <unsigned Bits>
typename GF<Bits>::Elem GF<Bits>::pow(Elem a, std::uint64_t e) {
  Elem result = 1;
  Elem base = a;
  while (e != 0) {
    if (e & 1) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

template <unsigned Bits>
typename GF<Bits>::Elem GF<Bits>::inv(Elem a) {
  assert(a != 0);
  if constexpr (Bits <= 16) {
    const auto& t = log_exp_tables<Bits>();
    return t.exp_table[group_order - t.log_table[a]];
  } else {
    // Extended Euclid over GF(2)[x] (Hankerson, Menezes and Vanstone,
    // Alg. 2.48): at most 2 * Bits shift-xor steps, where a^(q-2) would
    // take 62 bit-serial multiplies — about 11 us, paid once per pivot by
    // every GF(2^32) elimination.
    std::uint64_t u = a, v = modulus, g1 = 1, g2 = 0;
    while (u != 1) {
      int j = static_cast<int>(std::bit_width(u)) -
              static_cast<int>(std::bit_width(v));
      if (j < 0) {
        std::swap(u, v);
        std::swap(g1, g2);
        j = -j;
      }
      u ^= v << j;
      g1 ^= g2 << j;
    }
    return static_cast<Elem>(g1);
  }
}

template <unsigned Bits>
std::uint32_t GF<Bits>::log(Elem a)
  requires(Bits <= 16)
{
  assert(a != 0);
  return log_exp_tables<Bits>().log_table[a];
}

template <unsigned Bits>
typename GF<Bits>::Elem GF<Bits>::exp(std::uint32_t e)
  requires(Bits <= 16)
{
  const auto& t = log_exp_tables<Bits>();
  return t.exp_table[e % group_order];
}

template class GF<4>;
template class GF<8>;
template class GF<16>;
template class GF<32>;

}  // namespace fairshare::gf
