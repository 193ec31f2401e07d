// Extension: empirical innovation probability vs field size.
//
// Section III-A claims random beta rows are "almost surely linearly
// independent [34]" and that the encoder can guarantee exactly k messages
// by screening.  Here we measure, per field, the probability that an
// UNSCREENED random row is dependent given current rank r — theory says
// q^{r-k} — and the aggregate overhead of decoding from unscreened
// messages, plus the encoder's observed screening skip rate.
#include <cstdio>
#include <vector>

#include "coding/coefficients.hpp"
#include "coding/encoder.hpp"
#include "common.hpp"
#include "linalg/progressive.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

}  // namespace

int main() {
  bench::header("Extension: innovation probability",
                "dependent-row rates vs field size (the [34] claim, measured)");

  const std::size_t k = 16;
  std::printf("field,unscreened_dependent_rate,theory_worst(1/q),"
              "avg_msgs_to_decode,encoder_skip_rate\n");
  bool matches_theory = true;
  bool big_fields_never_skip = true;
  for (gf::FieldId field : gf::kAllFields) {
    const coding::CodingParams params{field, 64};
    const auto& f = gf::field_view(field);
    sim::SplitMix64 rng(static_cast<std::uint64_t>(field) + 100);

    // Unscreened: random rows into a rank tracker (a solver with no
    // payload, as the encoder screens) until full; count dependent
    // draws.  (Worst-case dependent probability at rank k-1 is
    // q^{-1}; earlier ranks are far smaller, so the mean rate is < 1/q.)
    std::size_t dependent = 0, draws = 0;
    double msgs_total = 0;
    const int trials = field == gf::FieldId::gf2_4 ? 2000 : 200;
    for (int t = 0; t < trials; ++t) {
      linalg::ProgressiveSolver tracker(field, k, 0);
      std::size_t msgs = 0;
      while (!tracker.complete()) {
        std::vector<std::byte> row(f.row_bytes(k));
        for (std::size_t j = 0; j < k; ++j)
          f.set(row.data(), j, rng.next() & (f.order - 1));
        ++draws;
        ++msgs;
        if (!tracker.add_row(row.data(), nullptr)) ++dependent;
      }
      msgs_total += static_cast<double>(msgs);
    }
    const double dep_rate = static_cast<double>(dependent) /
                            static_cast<double>(draws);
    const double theory = 1.0 / static_cast<double>(f.order);

    // Encoder-side screening skip rate over many batches.
    std::vector<std::byte> data(1024);
    for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};
    coding::SecretKey secret{};
    secret[0] = static_cast<std::uint8_t>(field);
    coding::FileEncoder enc(secret, 1, data, params);
    enc.generate(20 * enc.k());
    const double skip_rate =
        1.0 - static_cast<double>(enc.messages_generated()) /
                  static_cast<double>(enc.ids_examined());

    std::printf("%s,%.6f,%.6f,%.2f,%.6f\n",
                std::string(gf::field_name(field)).c_str(), dep_rate, theory,
                msgs_total / trials, skip_rate);

    // Dependent rate must be within a small factor of 1/q (and ~0 for the
    // big fields).
    if (field == gf::FieldId::gf2_4 && (dep_rate > 5 * theory)) {
      matches_theory = false;
    }
    if ((field == gf::FieldId::gf2_16 || field == gf::FieldId::gf2_32) &&
        skip_rate > 0.0)
      big_fields_never_skip = false;
  }

  bench::shape_check(matches_theory,
                     "unscreened dependent-row rate is within a small factor "
                     "of the 1/q theory bound");
  bench::shape_check(big_fields_never_skip,
                     "over GF(2^16)/GF(2^32) the encoder's screening never "
                     "fires — rows are 'almost surely' independent [34]");
  return 0;
}
