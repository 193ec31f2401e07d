// Overlapping-class codec (coding/chunked.hpp): class-map geometry and
// schedule invariants, bit-exact agreement with the dense codec, the
// donation cascade under in-order / shuffled / recoded delivery, the one
// decoder under both codecs' FileInfo, the registry wiring for the
// chunked metrics, and several threads feeding one decoder at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace fairshare::coding {
namespace {

SecretKey secret(std::uint8_t tag) {
  SecretKey s{};
  s[0] = tag;
  return s;
}

std::vector<std::byte> random_data(std::size_t n, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return out;
}

ChunkedSchedule schedule(std::uint32_t class_size, std::uint32_t overlap,
                         std::uint64_t seed = 7) {
  ChunkedSchedule s;
  s.class_size = class_size;
  s.overlap = overlap;
  s.seed = seed;
  return s;
}

// A chunked FileInfo carrying only what ClassMap reads.
FileInfo geometry(std::size_t k, const ChunkedSchedule& s) {
  FileInfo info;
  info.k = k;
  info.codec = CodecKind::chunked;
  info.schedule = s;
  return info;
}

// ------------------------------------------------------------- geometry

void check_map_invariants(std::size_t k, const ChunkedSchedule& s) {
  SCOPED_TRACE(::testing::Message() << "k=" << k << " L=" << s.class_size
                                    << " v=" << s.overlap);
  const chunked::ClassMap map(geometry(k, s));
  const std::size_t n = map.classes();
  ASSERT_GE(n, 1u);

  // Window geometry: widths are class_size except the last, which stays
  // strictly wider than the overlap (otherwise it would be a subset of its
  // neighbour); windows tile [0, k) exactly.
  for (std::size_t c = 0; c + 1 < n; ++c)
    EXPECT_EQ(map.width(c), std::min<std::size_t>(s.class_size, k));
  EXPECT_GT(map.width(n - 1), n == 1 ? 0u : s.overlap);
  EXPECT_LE(map.width(n - 1), s.class_size);
  EXPECT_EQ(map.start(n - 1) + map.width(n - 1), k);
  std::size_t widest = 0;
  for (std::size_t c = 0; c < n; ++c) widest = std::max(widest, map.width(c));
  EXPECT_EQ(map.max_width(), widest);

  // Every chunk is covered, and classes_containing agrees with contains()
  // and is sorted ascending.
  for (std::size_t j = 0; j < k; ++j) {
    const auto owners = map.classes_containing(j);
    ASSERT_GE(owners.size(), 1u) << "chunk " << j << " uncovered";
    EXPECT_TRUE(std::is_sorted(owners.begin(), owners.end()));
    for (std::size_t c = 0; c < n; ++c) {
      const bool listed =
          std::find(owners.begin(), owners.end(), c) != owners.end();
      EXPECT_EQ(listed, map.contains(c, j)) << "chunk " << j << " class " << c;
    }
  }

  // Quota schedule: over one period of k ids, class c appears exactly
  // q_c = w_c - (c > 0 ? overlap : 0) times, and the quotas sum to k — the
  // identity that makes in-order delivery land ~zero overhead.
  std::vector<std::size_t> visits(n, 0);
  for (std::size_t id = 0; id < k; ++id) {
    const std::size_t c = map.class_of(id);
    ASSERT_LT(c, n);
    ++visits[c];
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t quota = map.width(c) - (c > 0 ? s.overlap : 0);
    EXPECT_EQ(visits[c], quota) << "class " << c;
    total += visits[c];
  }
  EXPECT_EQ(total, k);

  // The schedule is periodic in k, so recoders agree on classes for ids
  // far past the first period.
  for (std::uint64_t id = 0; id < std::min<std::size_t>(k, 64); ++id)
    EXPECT_EQ(map.class_of(id), map.class_of(id + 3 * k));
}

TEST(ClassMap, InvariantsAcrossGeometries) {
  // k < L, k == L, k % stride != 0, short last chunk, zero overlap,
  // overlap wider than the stride (chunks owned by 3+ classes).
  check_map_invariants(5, schedule(16, 4));
  check_map_invariants(16, schedule(16, 4));
  check_map_invariants(100, schedule(16, 4));
  check_map_invariants(97, schedule(16, 4));
  check_map_invariants(100, schedule(16, 0));
  check_map_invariants(60, schedule(16, 12));
  check_map_invariants(101, schedule(7, 3, 99));
  check_map_invariants(64, schedule(64, 8));  // defaults, single class
}

TEST(ClassMap, SingleClassWhenFileIsSmall) {
  const chunked::ClassMap map(geometry(10, schedule(16, 4)));
  EXPECT_EQ(map.classes(), 1u);
  EXPECT_EQ(map.width(0), 10u);
  EXPECT_EQ(map.max_width(), 10u);
  for (std::uint64_t id = 0; id < 40; ++id) EXPECT_EQ(map.class_of(id), 0u);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_EQ(map.classes_containing(j), std::vector<std::size_t>{0});
}

TEST(ClassMap, SeedChangesInterleavingNotQuotas) {
  const chunked::ClassMap a(geometry(100, schedule(16, 4, 1)));
  const chunked::ClassMap b(geometry(100, schedule(16, 4, 2)));
  std::map<std::size_t, std::size_t> visits_a, visits_b;
  bool any_difference = false;
  for (std::uint64_t id = 0; id < 100; ++id) {
    ++visits_a[a.class_of(id)];
    ++visits_b[b.class_of(id)];
    any_difference = any_difference || a.class_of(id) != b.class_of(id);
  }
  EXPECT_EQ(visits_a, visits_b);  // quotas are seed-independent
  EXPECT_TRUE(any_difference);    // the interleaving is not
}

// ------------------------------------------------------------- decoding

TEST(Chunked, InOrderExactlyKMessagesDecode) {
  // The quota schedule's contract: k in-order messages complete the file
  // with zero reception overhead — class 0 fills from its quota, and every
  // later class fills from its quota plus the overlap donation cascade.
  // Fully deterministic (ChaCha coefficients + seeded schedule), so this
  // strict form cannot flake.
  const CodingParams params{gf::FieldId::gf2_32, 64};  // 256 B chunks
  const auto data = random_data(12700, 3);             // k = 50, padded tail
  chunked::Encoder encoder(secret(3), 500, data, params, schedule(16, 4));
  const std::size_t k = encoder.k();
  ASSERT_EQ(k, 50u);
  ASSERT_GT(encoder.class_map().classes(), 2u);

  const auto messages = encoder.generate(k);  // also publishes digests
  CodecDecoder decoder(secret(3), encoder.info());
  std::size_t fed = 0;
  for (const auto& msg : messages) {
    ASSERT_FALSE(decoder.complete());
    EXPECT_EQ(decoder.add(msg), AddResult::accepted) << "message " << fed;
    ++fed;
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(fed, k);
  EXPECT_EQ(decoder.accepted(), k);
  EXPECT_EQ(decoder.classes_complete(), decoder.class_map().classes());
  EXPECT_EQ(decoder.reconstruct(), data);

  // rank() counts every class's full width: k plus one overlap per seam.
  std::size_t width_sum = 0;
  for (std::size_t c = 0; c < decoder.class_map().classes(); ++c)
    width_sum += decoder.class_map().width(c);
  EXPECT_EQ(decoder.rank(), width_sum);
}

TEST(Chunked, MatchesDenseDecoderBitExactly) {
  // Differential test: both codecs on identical payload bytes must agree
  // with each other and the source exactly.
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = random_data(6350, 4);  // k = 100
  const auto key = secret(4);

  FileEncoder dense_enc(key, 77, data, params);
  const auto dense_messages = dense_enc.generate(dense_enc.k());
  CodecDecoder dense_dec(key, dense_enc.info());
  for (const auto& msg : dense_messages) dense_dec.add(msg);
  ASSERT_TRUE(dense_dec.complete());

  chunked::Encoder chunked_enc(key, 77, data, params, schedule(16, 4));
  ASSERT_EQ(chunked_enc.k(), dense_enc.k());
  const auto chunked_messages = chunked_enc.generate(2 * chunked_enc.k());
  CodecDecoder chunked_dec(key, chunked_enc.info());
  for (const auto& msg : chunked_messages) {
    if (chunked_dec.complete()) break;
    chunked_dec.add(msg);
  }
  ASSERT_TRUE(chunked_dec.complete());

  const auto via_dense = dense_dec.reconstruct();
  const auto via_chunked = chunked_dec.reconstruct();
  EXPECT_EQ(via_dense, data);
  EXPECT_EQ(via_chunked, data);
  EXPECT_EQ(via_chunked, via_dense);
}

struct GeometryCase {
  gf::FieldId field;
  // Zero, not padding: the byte dump gtest prints for this parameter is
  // the test's name, which must not pick up stack garbage.
  std::array<std::uint8_t, 7> zero_pad{};
  std::size_t m;
  std::size_t data_bytes;
  std::uint32_t class_size;
  std::uint32_t overlap;
};
static_assert(std::has_unique_object_representations_v<GeometryCase>);

class ChunkedGeometryTest : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(ChunkedGeometryTest, ShuffledDeliveryDecodes) {
  const auto& c = GetParam();
  const CodingParams params{c.field, c.m};
  const auto data = random_data(c.data_bytes, 5);
  chunked::Encoder encoder(secret(5), 42, data, params,
                           schedule(c.class_size, c.overlap));

  // Three periods shuffled: every class sees enough rows regardless of
  // where the cut lands, and the cascade handles completion in any order.
  auto messages = encoder.generate(3 * encoder.k());
  sim::SplitMix64 rng(0xABCDEF);
  for (std::size_t i = messages.size(); i > 1; --i)
    std::swap(messages[i - 1], messages[rng.next_below(i)]);

  CodecDecoder decoder(secret(5), encoder.info());
  std::size_t fed = 0;
  for (const auto& msg : messages) {
    if (decoder.complete()) break;
    decoder.add(msg);
    ++fed;
  }
  ASSERT_TRUE(decoder.complete()) << "after " << fed << " of "
                                  << messages.size();
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_GE(fed, encoder.k());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChunkedGeometryTest,
    ::testing::Values(
        // k = 100 with a short (width-4+) last class.
        GeometryCase{.field = gf::FieldId::gf2_8, .m = 64, .data_bytes = 6400,
                     .class_size = 16, .overlap = 4},
        // k = 50 not divisible by the stride, padded final chunk.
        GeometryCase{.field = gf::FieldId::gf2_32, .m = 64, .data_bytes = 12700,
                     .class_size = 16, .overlap = 4},
        // Disjoint classes: no donations, quotas alone must suffice.
        GeometryCase{.field = gf::FieldId::gf2_16, .m = 64, .data_bytes = 12800,
                     .class_size = 20, .overlap = 0},
        // Overlap wider than the stride: chunks shared by 4 classes.
        GeometryCase{.field = gf::FieldId::gf2_8, .m = 32, .data_bytes = 1900,
                     .class_size = 16, .overlap = 12},
        // Single class: degenerates to the dense decoder's behaviour.
        GeometryCase{.field = gf::FieldId::gf2_8, .m = 64, .data_bytes = 640,
                     .class_size = 16, .overlap = 4},
        // Nibble-packed field, tiny classes.
        GeometryCase{.field = gf::FieldId::gf2_4, .m = 128, .data_bytes = 4000,
                     .class_size = 8, .overlap = 2}));

// ------------------------------------------------------------ recoding

TEST(Chunked, RecodedClassLocalPacketsDecode) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(12800, 6);  // k = 50
  chunked::Encoder encoder(secret(6), 43, data, params, schedule(16, 4));
  const auto pool = encoder.generate(2 * encoder.k());
  const chunked::ClassMap& map = encoder.class_map();

  // A peer recodes inside each class; the decoder expands the packets
  // against that class's solver and the cascade finishes the file.
  CodecDecoder decoder(secret(6), encoder.info());
  sim::SplitMix64 rng(99);
  std::size_t attempts = 0;
  while (!decoder.complete()) {
    ASSERT_LT(attempts, 40 * map.classes()) << "recoded decode stalled";
    const std::size_t cls = attempts % map.classes();
    ++attempts;
    const auto packet =
        chunked::recode_class_local(map, cls, pool, params, rng);
    decoder.add_recoded(packet);
  }
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_EQ(decoder.rejected_auth(), 0u);
}

TEST(Chunked, CrossClassRecodedPacketRejected) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(12800, 7);
  chunked::Encoder encoder(secret(7), 44, data, params, schedule(16, 4));
  const auto pool = encoder.generate(encoder.k());
  const chunked::ClassMap& map = encoder.class_map();
  ASSERT_GE(map.classes(), 2u);

  // Find one message of class 0 and one of another class and combine them:
  // under the chunked protocol that packet is malformed.
  RecodedMessage cross;
  cross.file_id = 44;
  for (const auto& msg : pool) {
    const std::size_t cls = map.class_of(msg.message_id);
    if ((cls == 0 && cross.combination.empty()) ||
        (cls != 0 && cross.combination.size() == 1)) {
      cross.combination.emplace_back(msg.message_id, 1);
      if (cross.payload.empty())
        cross.payload = msg.payload;  // payload content is irrelevant here
    }
    if (cross.combination.size() == 2) break;
  }
  ASSERT_EQ(cross.combination.size(), 2u);

  CodecDecoder decoder(secret(7), encoder.info());
  EXPECT_EQ(decoder.add_recoded(cross), AddResult::bad_digest);
  RecodedMessage empty;
  empty.file_id = 44;
  empty.payload = cross.payload;
  EXPECT_EQ(decoder.add_recoded(empty), AddResult::bad_digest);
  EXPECT_EQ(decoder.rejected_auth(), 2u);
  EXPECT_EQ(decoder.accepted(), 0u);
}

// -------------------------------------------------------- authentication

TEST(Chunked, TamperedAndForeignMessagesRejected) {
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = random_data(3200, 8);  // k = 50
  chunked::Encoder encoder(secret(8), 45, data, params, schedule(16, 4));
  auto messages = encoder.generate(encoder.k());
  CodecDecoder decoder(secret(8), encoder.info());

  auto tampered = messages[0];
  tampered.payload[5] ^= std::byte{0x40};
  EXPECT_EQ(decoder.add(tampered), AddResult::bad_digest);

  auto unknown = messages[1];
  unknown.message_id += 1000 * encoder.k();  // owner never published a digest
  EXPECT_EQ(decoder.add(unknown), AddResult::bad_digest);

  auto foreign = messages[2];
  foreign.file_id = 999;
  EXPECT_EQ(decoder.add(foreign), AddResult::wrong_file);

  auto short_payload = messages[3];
  short_payload.payload.resize(short_payload.payload.size() - 1);
  EXPECT_EQ(decoder.add(short_payload), AddResult::bad_size);

  EXPECT_EQ(decoder.accepted(), 0u);
  EXPECT_EQ(decoder.rejected_auth(), 2u);

  // The untouched batch still decodes afterwards.
  for (const auto& msg : messages) decoder.add(msg);
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);

  // Replays after completion are acknowledged as such.
  EXPECT_EQ(decoder.add(messages[0]), AddResult::already_complete);
}

// ---------------------------------------------------------- codec switch

TEST(CodecDecoder, DispatchesOnFileInfoCodec) {
  // One decoder, two geometries.  A dense FileInfo decodes as one class of
  // width k — here k = 100, past the default class_size of 64, so the
  // schedule the FileInfo carries must not split it — and a chunked one
  // as overlapping classes.
  const CodingParams params{gf::FieldId::gf2_8, 64};
  const auto data = random_data(6400, 10);
  const auto key = secret(10);

  FileEncoder dense_enc(key, 47, data, params);
  ASSERT_EQ(dense_enc.info().codec, CodecKind::dense);
  ASSERT_EQ(dense_enc.k(), 100u);
  ASSERT_GT(dense_enc.k(), dense_enc.info().schedule.class_size);
  const auto dense_messages = dense_enc.generate(dense_enc.k());
  CodecDecoder dense_dec(key, dense_enc.info());
  obs::MetricsRegistry registry;
  dense_dec.enable_metrics(registry, /*user_id=*/1);
  ASSERT_EQ(dense_dec.class_map().classes(), 1u);
  EXPECT_EQ(dense_dec.class_map().width(0), dense_enc.k());
  for (const auto& msg : dense_messages)
    EXPECT_EQ(dense_dec.add(msg), AddResult::accepted);
  ASSERT_TRUE(dense_dec.complete());
  EXPECT_EQ(dense_dec.rank(), dense_enc.k());
  const obs::LabelList dense_labels = {
      {"codec", "dense"}, {"file", "47"}, {"user", "1"}};
  // The payload product runs after the last arrival, inside reconstruct().
  EXPECT_EQ(
      registry.histogram("fairshare_decoder_solve_ns", dense_labels).count(),
      0u);
  EXPECT_EQ(dense_dec.reconstruct(), data);
  // A dense decode exports only the codec="dense" decoder series.
  const auto snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& g : snap.gauges) names.push_back(g.name);
  for (const auto& c : snap.counters) names.push_back(c.name);
  for (const auto& h : snap.histograms) names.push_back(h.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"fairshare_decoder_eliminate_ns",
                                             "fairshare_decoder_rank",
                                             "fairshare_decoder_solve_ns"}));
  // 64-byte chunks are one strip of the product: one timed sample.
  for (const auto& h : snap.histograms) {
    if (h.name != "fairshare_decoder_solve_ns") continue;
    EXPECT_EQ(h.labels, dense_labels);
    EXPECT_EQ(h.snap.count, 1u);
    EXPECT_GT(h.snap.sum, 0u);
  }

  chunked::Encoder chunked_enc(key, 47, data, params, schedule(16, 4));
  ASSERT_EQ(chunked_enc.info().codec, CodecKind::chunked);
  ASSERT_EQ(chunked_enc.info().schedule, schedule(16, 4));
  const auto chunked_messages = chunked_enc.generate(2 * chunked_enc.k());
  CodecDecoder chunked_dec(key, chunked_enc.info());
  EXPECT_GT(chunked_dec.class_map().classes(), 1u);
  for (const auto& msg : chunked_messages) {
    if (chunked_dec.complete()) break;
    chunked_dec.add(msg);
  }
  ASSERT_TRUE(chunked_dec.complete());
  EXPECT_EQ(chunked_dec.reconstruct(), data);
  EXPECT_EQ(chunked_dec.k(), chunked_enc.k());
  EXPECT_GE(chunked_dec.accepted(), chunked_enc.k());
}

// -------------------------------------------------------------- metrics

TEST(Chunked, MetricsMirrorDecoderState) {
  const CodingParams params{gf::FieldId::gf2_32, 64};
  const auto data = random_data(12800, 11);  // k = 50
  chunked::Encoder encoder(secret(11), 48, data, params, schedule(16, 4));
  const chunked::ClassMap& map = encoder.class_map();

  const auto messages = encoder.generate(encoder.k());
  obs::MetricsRegistry registry;
  CodecDecoder decoder(secret(11), encoder.info());
  decoder.enable_metrics(registry, /*user_id=*/9);
  for (const auto& msg : messages) decoder.add(msg);
  ASSERT_TRUE(decoder.complete());

  // Registry must equal the decoder's own report exactly: the total-rank
  // gauge (split from dense by the codec label), one gauge per class at
  // its full width, and the classes-complete counter.
  const auto snap = registry.snapshot();
  bool saw_rank = false;
  std::size_t class_gauges = 0;
  for (const auto& g : snap.gauges) {
    if (g.name == "fairshare_decoder_rank") {
      saw_rank = true;
      const obs::LabelList want = {{"codec", "chunked"},
                                   {"file", "48"},
                                   {"user", "9"}};
      EXPECT_EQ(g.labels, want);
      EXPECT_EQ(g.value, static_cast<double>(decoder.rank()));
    } else if (g.name == "fairshare_chunked_class_rank") {
      ASSERT_EQ(g.labels.size(), 3u);
      ASSERT_EQ(g.labels[0].first, "class");
      const std::size_t cls = std::stoul(g.labels[0].second);
      ASSERT_LT(cls, map.classes());
      EXPECT_EQ(g.value, static_cast<double>(map.width(cls)))
          << "class " << cls << " not at full rank";
      ++class_gauges;
    }
  }
  EXPECT_TRUE(saw_rank);
  EXPECT_EQ(class_gauges, map.classes());
  EXPECT_EQ(
      registry.counter_total("fairshare_chunked_classes_complete_total"),
      decoder.classes_complete());

  // The decode-time histogram carries the codec label and one sample per
  // timed elimination.  In this deterministic in-order run every
  // elimination was innovative — k coded rows plus the donated overlap
  // rows — so the sample count equals the total rank exactly.
  ASSERT_EQ(decoder.non_innovative(), 0u);
  const obs::LabelList want = {{"codec", "chunked"},
                               {"file", "48"},
                               {"user", "9"}};
  bool saw_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name != "fairshare_decoder_eliminate_ns") continue;
    saw_hist = true;
    EXPECT_EQ(h.labels, want);
    EXPECT_EQ(h.snap.count, decoder.rank());
  }
  EXPECT_TRUE(saw_hist);

  // The payload product is timed per strip, under the same labels, and
  // only once the file is rebuilt: 256-byte chunks make one strip.
  obs::Histogram& solve_ns = registry.histogram("fairshare_decoder_solve_ns", want);
  EXPECT_EQ(solve_ns.count(), 0u);
  EXPECT_EQ(decoder.reconstruct(), data);
  EXPECT_EQ(solve_ns.count(), 1u);
}

// ---------------------------------------------------------- concurrency

// Three threads feed one decoder at once, each its own seeded shuffle of a
// distinct k-message share of the file, with duplicates of some of its
// messages and a few copies whose payload was corrupted.  Whatever the
// interleaving, the file must come back byte-exact, and the decoder's
// counters, the registry and the threads' tallies of the AddResults they
// were handed must all agree.
void check_concurrent_feed(CodecKind codec, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "codec=" << to_string(codec)
                                    << " seed=" << seed);
  constexpr std::size_t kThreads = 3;
  const CodingParams params{gf::FieldId::gf2_32, 256};  // 1 KiB chunks
  const auto data = random_data(64 * 1024 - 100, seed);  // k = 64
  const auto key = secret(12);
  const std::uint64_t file_id = 49 + seed;
  std::vector<EncodedMessage> pool;
  FileInfo info;
  if (codec == CodecKind::dense) {
    FileEncoder encoder(key, file_id, data, params);
    pool = encoder.generate(kThreads * encoder.k());
    info = encoder.info();
  } else {
    chunked::Encoder encoder(key, file_id, data, params,
                             schedule(16, 4, seed));
    pool = encoder.generate(kThreads * encoder.k());
    info = encoder.info();
  }
  const std::size_t k = info.k;
  const chunked::ClassMap map(info);
  ASSERT_EQ(map.classes(), codec == CodecKind::dense ? 1u : 5u);

  std::vector<std::vector<EncodedMessage>> feeds(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    sim::SplitMix64 rng(seed * 1000 + t);
    auto& feed = feeds[t];
    feed.assign(pool.begin() + t * k, pool.begin() + (t + 1) * k);
    for (std::size_t i = 0; i < k; i += 4) feed.push_back(feed[i]);
    for (std::size_t i = 0; i < 3; ++i) {
      EncodedMessage bad = feed[rng.next_below(k)];
      bad.payload[rng.next_below(bad.payload.size())] ^= std::byte{0x5a};
      feed.push_back(std::move(bad));
    }
    for (std::size_t i = feed.size(); i > 1; --i)
      std::swap(feed[i - 1], feed[rng.next_below(i)]);
  }

  obs::MetricsRegistry registry;
  CodecDecoder decoder(key, info);
  decoder.enable_metrics(registry, /*user_id=*/3);
  using Tally = std::array<std::size_t, 6>;  // indexed by AddResult
  std::vector<Tally> tallies(kThreads, Tally{});
  {
    std::latch start(kThreads + 1);
    std::atomic<std::size_t> fed_out{0};  // feeders done adding
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        // Feed in batches of 1 to 16 messages, as a download session hands
        // over the frames already queued on its connection.
        sim::SplitMix64 sizes(seed * 77 + t);
        std::vector<EncodedMessageView> batch;
        start.arrive_and_wait();
        for (std::size_t i = 0; i < feeds[t].size(); i += batch.size()) {
          const std::size_t n = std::min<std::size_t>(
              1 + sizes.next_below(16), feeds[t].size() - i);
          batch.clear();
          for (std::size_t j = i; j < i + n; ++j)
            batch.push_back(feeds[t][j].view());
          for (const AddResult r : decoder.add(batch))
            ++tallies[t][static_cast<std::size_t>(r)];
        }
        fed_out.fetch_add(1);
        // Each feeder then joins the payload product, as a download
        // session does after its stop frame; strips go to whichever
        // feeder claims them first, possibly while siblings still add.
        decoder.solve();
      });
    // The starting thread solves beside the feeders, as download_file's
    // caller does once the decode completes or every feeder is done.
    start.arrive_and_wait();
    while (!decoder.complete() && fed_out.load() < kThreads)
      std::this_thread::yield();
    decoder.solve();
  }

  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.reconstruct(), data);
  std::size_t width_sum = 0;
  for (std::size_t c = 0; c < map.classes(); ++c) width_sum += map.width(c);
  EXPECT_EQ(decoder.rank(), width_sum);

  Tally total{};
  std::size_t fed = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    fed += feeds[t].size();
    for (std::size_t r = 0; r < total.size(); ++r) total[r] += tallies[t][r];
  }
  std::size_t returned = 0;
  for (std::size_t n : total) returned += n;
  EXPECT_EQ(returned, fed);
  const auto count = [&](AddResult r) {
    return total[static_cast<std::size_t>(r)];
  };
  EXPECT_EQ(decoder.accepted(), count(AddResult::accepted));
  EXPECT_EQ(decoder.non_innovative(), count(AddResult::non_innovative));
  EXPECT_EQ(decoder.rejected_auth(), count(AddResult::bad_digest));
  EXPECT_EQ(count(AddResult::wrong_file), 0u);
  EXPECT_EQ(count(AddResult::bad_size), 0u);
  EXPECT_GE(decoder.accepted(), k);

  bool saw_rank = false;
  for (const auto& g : registry.snapshot().gauges) {
    if (g.name != "fairshare_decoder_rank") continue;
    saw_rank = true;
    EXPECT_EQ(g.value, static_cast<double>(decoder.rank()));
  }
  EXPECT_TRUE(saw_rank);
  if (codec == CodecKind::chunked) {
    EXPECT_EQ(
        registry.counter_total("fairshare_chunked_classes_complete_total"),
        decoder.classes_complete());
  }
}

TEST(Chunked, ConcurrentFeedersAgreeWithDecoder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    check_concurrent_feed(CodecKind::chunked, seed);
}

TEST(CodecDecoder, ConcurrentFeedersAgreeOnDenseFile) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    check_concurrent_feed(CodecKind::dense, seed);
}

// ------------------------------------------------------------- encoder

// generate() splits a batch's payload work across threads once it passes a
// few grains of row-block product, while next_message() runs on the
// calling thread alone, so a batch and the same messages one at a time
// must agree in ids, payloads and digests.  The chunked file is large
// enough that the constructor hashes its content digest beside the chunk
// layout, and its messages span two product strips; the dense batch
// prepares its blocks in more than one wave.
void check_threaded_encode(chunked::Encoder& batch, chunked::Encoder& single,
                           std::span<const std::byte> data,
                           std::size_t count) {
  EXPECT_EQ(batch.info().content_digest, crypto::Md5::hash(data));
  const std::vector<EncodedMessage> messages = batch.generate(count);
  ASSERT_EQ(messages.size(), count);
  for (const EncodedMessage& want : messages) {
    const EncodedMessage got = single.next_message();
    ASSERT_EQ(got.message_id, want.message_id);
    EXPECT_EQ(got.payload, want.payload);
    EXPECT_EQ(batch.info().message_digests.at(want.message_id),
              want.digest());
  }
  EXPECT_EQ(batch.info().message_digests, single.info().message_digests);
}

TEST(Chunked, ThreadedEncodeMatchesOneMessageAtATime) {
  const SecretKey key = secret(21);
  {
    SCOPED_TRACE("chunked");
    const auto data = random_data(8u << 20, 31);
    const CodingParams params{gf::FieldId::gf2_32, 4096};
    chunked::Encoder batch(key, 1, data, params, schedule(16, 4));
    chunked::Encoder single(key, 1, data, params, schedule(16, 4));
    check_threaded_encode(batch, single, data, batch.k());
  }
  {
    SCOPED_TRACE("dense");
    const auto data = random_data(256u << 10, 32);
    const CodingParams params{gf::FieldId::gf2_32, 256};
    FileEncoder batch(key, 2, data, params);
    FileEncoder single(key, 2, data, params);
    check_threaded_encode(batch, single, data, 2 * batch.k());
  }
}

}  // namespace
}  // namespace fairshare::coding
