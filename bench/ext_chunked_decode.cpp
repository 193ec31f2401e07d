// Extension: chunked vs dense decode at file sizes the paper never ran,
// and the owner's chunked encode at the same sizes.
//
// Dense RLNC decode is O(k^2 * m) field operations, which is fine at the
// paper's 1 MB / k = 8 operating point and crippling at k = 8192 (1 GB):
// the coefficient matrix alone stops fitting in cache and every new row
// eliminates against thousands of pivots.  The overlapping-class codec
// (coding/chunked.hpp) bounds every elimination to one class of
// `class_size` chunks, so decode cost grows linearly with file size.
// This bench measures both codecs' decode throughput (one decoder,
// coding/codec.hpp, under either FileInfo) and reception overhead
// (messages consumed beyond k) at 10 MB / 100 MB / 1 GB, plus an opt-in
// 10 GB point (FAIRSHARE_BENCH_10G=1).
//
// Decode work only: instead of running the O(k^2 * m) dense *encode* to
// produce a measurable stream, the decoder is fed synthetic messages —
// sequential ids whose coefficient rows come from the real secret-keyed
// ChaCha generator, over one shared payload buffer — with digest checks
// relaxed.  Decode cost depends only on the coefficient rows, never on
// payload content, so the timings match a real stream while setup stays
// O(file size).  The timed region ends after reconstruct(), so it covers
// the whole decode whatever share of it runs after the last arrival.
//
// BM_ChunkedEncode times the other end of a download's codec: building a
// chunked::Encoder over the file (the content digest and the chunk
// layout) and one peer's share, generate(k), at the paper's geometry.
// The encoder splits its payload work across cores, so its rows depend on
// the host's core count (recorded in the baseline's host block).
//
// The chunked decode and encode points and the 10 MB dense decode run
// five repetitions of at least half a second of iterations each and
// report the median, which tools/bench_to_json.py commits: one sample of
// a 25-55 ms decode swung past the compare threshold on noise alone, and
// the encode's first iterations after a single-threaded stretch ran up to
// twice as long on a 4-vCPU VM whose idle vCPUs were slow to pick up its
// threads.  The larger dense points stay single-shot: the 100 MB one
// takes seconds.
//
// Wired into BENCH_kernels.json by the bench_baseline target as two
// sections: runs.chunked_decode (10/100 MB, refreshed and compared in
// CI's bench-smoke) and runs.chunked_decode_huge (the 1 GB acceptance
// point and the optional 10 GB one; baseline-only, too slow for CI).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/codec.hpp"
#include "coding/params.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

// The paper's field/message geometry (Section III-C): 128 KiB messages
// over GF(2^32), so 1 GB lands at k = 8192.
const coding::CodingParams kParams{gf::FieldId::gf2_32, 1u << 15};

coding::SecretKey bench_secret() {
  coding::SecretKey s{};
  s[0] = 99;
  return s;
}

coding::FileInfo synthetic_info(std::size_t bytes, coding::CodecKind codec) {
  coding::FileInfo info;
  info.file_id = 1;
  info.original_bytes = bytes;
  info.params = kParams;
  info.k = coding::chunks_for_bytes(bytes, kParams);
  info.codec = codec;  // chunked keeps the default 64/8 schedule
  return info;
}

std::vector<std::byte> payload_buffer() {
  std::vector<std::byte> payload(kParams.message_bytes());
  sim::SplitMix64 rng(0xBE);
  for (auto& b : payload) b = std::byte{static_cast<std::uint8_t>(rng.next())};
  return payload;
}

// One decoder runs both codecs; only the FileInfo differs.  Unscreened
// sequential ids decode either codec at ~k consumed (the chunked quota
// schedule makes in-order delivery complete there too); the 3-period cap
// only guards against a pathological rng draw.
void run_decode(benchmark::State& state, coding::CodecKind codec) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0)) << 20;
  const coding::FileInfo info = synthetic_info(bytes, codec);
  coding::EncodedMessage msg;
  msg.file_id = info.file_id;
  msg.payload = payload_buffer();

  std::size_t consumed = 0;
  std::size_t classes = 0;
  for (auto _ : state) {
    coding::CodecDecoder decoder(bench_secret(), info,
                                 /*require_digests=*/false);
    consumed = 0;
    for (std::uint64_t id = 0; !decoder.complete(); ++id) {
      if (id >= 3 * static_cast<std::uint64_t>(info.k)) {
        state.SkipWithError("decode did not converge in 3 periods");
        return;
      }
      msg.message_id = id;
      decoder.add(msg);
      ++consumed;
    }
    benchmark::DoNotOptimize(decoder.reconstruct());
    classes = decoder.class_map().classes();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["k"] = static_cast<double>(info.k);
  state.counters["consumed"] = static_cast<double>(consumed);
  state.counters["overhead_pct"] =
      100.0 * static_cast<double>(consumed - info.k) /
      static_cast<double>(info.k);
  state.counters["classes"] = static_cast<double>(classes);
}

void BM_DenseDecode(benchmark::State& state) {
  run_decode(state, coding::CodecKind::dense);
}

void BM_ChunkedDecode(benchmark::State& state) {
  run_decode(state, coding::CodecKind::chunked);
}

// One iteration is what the owner does before a peer can serve the file:
// construct the encoder (default 64/8 schedule) and generate one peer's k
// messages.  The file's bytes are drawn once, outside the timed region.
void BM_ChunkedEncode(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0)) << 20;
  std::vector<std::byte> data(bytes);
  sim::SplitMix64 rng(0xE7);
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(data.data() + i, &word, std::min<std::size_t>(8, bytes - i));
  }

  std::size_t k = 0;
  std::size_t classes = 0;
  for (auto _ : state) {
    coding::chunked::Encoder encoder(bench_secret(), 1, data, kParams,
                                     coding::ChunkedSchedule{});
    benchmark::DoNotOptimize(encoder.generate(encoder.k()));
    k = encoder.k();
    classes = encoder.class_map().classes();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["k"] = static_cast<double>(k);
  state.counters["classes"] = static_cast<double>(classes);
}

// Registers `fn` under `name` at each file size (MB) in `sizes`, as
// repeated medians or single-shot.
void register_points(const char* name, void (*fn)(benchmark::State&),
                     bool repeated, const std::vector<std::int64_t>& sizes) {
  auto* b = benchmark::RegisterBenchmark(name, fn);
  b->Unit(benchmark::kMillisecond);
  if (repeated)
    b->MinTime(0.5)->Repetitions(5)->ReportAggregatesOnly();
  else
    b->Iterations(1);
  for (const std::int64_t mb : sizes) b->Arg(mb);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("fairshare_build_type", "release");
#else
  benchmark::AddCustomContext("fairshare_build_type", "debug");
#endif
  // The 1 GB+ args only exist when the caller asks for them, so CI's
  // bench-smoke filter never has to know they exist and --compare's
  // missing-name check stays meaningful per section.
  std::vector<std::int64_t> chunked{10, 100}, dense_once{100};
  const bool ten_gb = std::getenv("FAIRSHARE_BENCH_10G") != nullptr;
  if (ten_gb || std::getenv("FAIRSHARE_BENCH_HUGE") != nullptr) {
    chunked.push_back(1024);
    dense_once.push_back(1024);
  }
  // The 10 GB point needs ~25 GB of RAM and the better part of an hour
  // for the dense side; strictly opt-in.
  if (ten_gb) {
    chunked.push_back(10240);
    dense_once.push_back(10240);
  }
  register_points("BM_ChunkedDecode", BM_ChunkedDecode, true, chunked);
  register_points("BM_DenseDecode", BM_DenseDecode, true, {10});
  register_points("BM_DenseDecode", BM_DenseDecode, false, dense_once);
  register_points("BM_ChunkedEncode", BM_ChunkedEncode, true, {10, 100});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
