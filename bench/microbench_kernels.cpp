// google-benchmark microbenchmarks of the hot kernels underlying Table II:
// field row operations (the O(m k^2) elimination inner loop), the full
// decode pipeline those kernels feed, scalar multiplication, hashing, the
// ChaCha20 coefficient stream, and the RSA operations of the Section III-B
// handshake.
//
// Row-kernel benchmarks carry a `simd` axis over gf::kernel_tiers: simd=0
// runs the first tier (the portable scalar kernels, gf::scalar_field_view),
// simd=1 the last (gf::field_view, what this host dispatched); each row's
// label records the kernel tier actually measured.  BM_DecodePipeline
// exercises the real coding::CodecDecoder, so it always runs the
// dispatched tier.  tools/bench_to_json.py condenses a run into the
// committed BENCH_kernels.json baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "coding/codec.hpp"
#include "coding/encoder.hpp"
#include "common.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "gf/row_ops.hpp"
#include "linalg/matrix.hpp"
#include "net/peer_server.hpp"
#include "net/socket.hpp"
#include "p2p/store.hpp"
#include "p2p/wire.hpp"
#include "sim/rng.hpp"

namespace {

using namespace fairshare;

const gf::FieldView& view_for(std::int64_t simd, gf::FieldId id) {
  return simd ? gf::field_view(id) : gf::scalar_field_view(id);
}

void BM_RowAxpy(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const auto& f = view_for(state.range(2), field);
  auto dst = bench::random_row(f, m, 1);
  const auto src = bench::random_row(f, m, 2);
  // Masking the constant into the field keeps it nonzero for every field
  // (low byte 0x67), so the kernels stay on their general path.
  const std::uint64_t c = 0x1234567 & (f.order - 1);
  for (auto _ : state) {
    f.axpy(dst.data(), src.data(), c, m);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel(f.kernel);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.row_bytes(m)));
}
// m = 256 is a coefficient row's length: there the per-call scalar
// preparation, not the row sweep, sets the cost.
BENCHMARK(BM_RowAxpy)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 8, 1 << 13, 1 << 15}, {0, 1}})
    ->ArgNames({"field", "m", "simd"});

// The decoder's payload kernel: one class's worth of outputs, each the
// combination of `sources` rows of m symbols, with the scalars prepared
// once outside the timed loop (as a decoder does per class).  Bytes count
// every (output, source) pair, so the rate compares with BM_RowAxpy's.
void BM_RowBlockProduct(benchmark::State& state) {
  const auto field = gf::FieldId::gf2_32;
  const std::size_t sources = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const auto& f = view_for(state.range(2), field);
  std::vector<std::vector<std::byte>> src_rows, dst_rows;
  std::vector<const std::byte*> src, coeffs;
  std::vector<std::byte*> dst;
  const auto scalars = bench::random_row(f, sources * sources, 4);
  for (std::size_t j = 0; j < sources; ++j) {
    src_rows.push_back(bench::random_row(f, m, 10 + j));
    src.push_back(src_rows.back().data());
    dst_rows.emplace_back(f.row_bytes(m));
    dst.push_back(dst_rows.back().data());
    coeffs.push_back(scalars.data() + f.row_bytes(sources) * j);
  }
  const gf::RowBlock block(f, coeffs, sources);
  for (auto _ : state) {
    f.row_block_product(block, dst.data(), src.data(), 0, f.row_bytes(m));
    benchmark::DoNotOptimize(dst.front());
    benchmark::ClobberMemory();
  }
  state.SetLabel(f.kernel);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources * sources) *
                          static_cast<std::int64_t>(f.row_bytes(m)));
}
BENCHMARK(BM_RowBlockProduct)
    ->ArgsProduct({{64}, {1 << 15}, {0, 1}})
    ->ArgNames({"sources", "m", "simd"})
    ->Unit(benchmark::kMillisecond);

void BM_RowScale(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const auto& f = view_for(state.range(2), field);
  auto row = bench::random_row(f, m, 3);
  const std::uint64_t c = 0x1234567 & (f.order - 1);
  for (auto _ : state) {
    f.scale(row.data(), c, m);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetLabel(f.kernel);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.row_bytes(m)));
}
BENCHMARK(BM_RowScale)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 15}, {0, 1}})
    ->ArgNames({"field", "m", "simd"});

// Full decode pipeline at Table II parameters: decode 1 MB from k fresh
// coded messages through the real coding::CodecDecoder (coefficient
// regeneration, digest checks, elimination) and rebuild the file.  The
// paper's example point is (q = 2^32, m = 2^15); we sweep all four fields
// at m = 2^15.  Kernels come from the process-wide dispatch — the label
// records which variant ran.
void BM_DecodePipeline(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));

  sim::SplitMix64 rng(42);
  std::vector<std::byte> data(1u << 20);
  for (auto& b : data) b = std::byte{static_cast<std::uint8_t>(rng.next())};

  const coding::CodingParams params{field, m};
  coding::SecretKey secret{};
  secret[0] = 7;
  coding::FileEncoder encoder(secret, 1, data, params);
  const auto messages = encoder.generate(encoder.k());

  for (auto _ : state) {
    coding::CodecDecoder decoder(secret, encoder.info());
    for (const auto& msg : messages) decoder.add(msg);
    if (!decoder.complete())
      state.SkipWithError("decode incomplete");
    else
      benchmark::DoNotOptimize(decoder.reconstruct());
  }
  state.SetLabel(gf::field_view(field).kernel);
  state.counters["k"] = static_cast<double>(encoder.k());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_DecodePipeline)
    ->ArgsProduct({{0, 1, 2, 3}, {1 << 15}})
    ->ArgNames({"field", "m"})
    ->Unit(benchmark::kMillisecond);

// End-to-end serve pipeline, the twin of BM_DecodePipeline on the other
// side of the wire: a client drains one whole stored file from a running
// PeerServer over loopback TCP per iteration, through the reactor's
// zero-copy scatter-gather path (21 framing bytes staged, payloads
// referenced in the MessageStore and gathered by sendmsg).  Unpaced and
// unauthenticated, so the number measures the serve path itself.
void BM_ServePipeline(benchmark::State& state) {
  constexpr std::size_t kMessages = 256;
  constexpr std::size_t kPayload = 4096;
  sim::SplitMix64 rng(9);
  p2p::MessageStore store;
  std::size_t stream_bytes = 0;
  for (std::size_t i = 0; i < kMessages; ++i) {
    coding::EncodedMessage m;
    m.file_id = 1;
    m.message_id = i;
    m.payload.resize(kPayload);
    for (auto& b : m.payload)
      b = std::byte{static_cast<std::uint8_t>(rng.next())};
    stream_bytes += p2p::wire::kCodedMessageHeaderBytes + m.payload.size();
    store.store(std::move(m));
  }
  net::PeerServer::Config config;
  config.require_auth = false;
  net::PeerServer server(config, std::move(store));
  if (!server.start()) {
    state.SkipWithError("server start failed");
    return;
  }
  for (auto _ : state) {
    auto client = net::Socket::connect_to("127.0.0.1", server.port());
    if (!client) {
      state.SkipWithError("connect failed");
      break;
    }
    p2p::wire::FileRequest request;
    request.user_id = 7;
    request.file_id = 1;
    if (!net::send_frame(*client, p2p::wire::encode(request))) {
      state.SkipWithError("request failed");
      break;
    }
    client->set_recv_timeout(5000);
    std::size_t frames = 0;
    while (auto frame = net::recv_frame(*client, 1u << 20)) {
      benchmark::DoNotOptimize(frame->data());
      ++frames;
    }
    if (frames != kMessages) {
      state.SkipWithError("short stream");
      break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream_bytes));
  server.stop();
}
BENCHMARK(BM_ServePipeline)->Unit(benchmark::kMillisecond);

void BM_ScalarMul(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const auto& f = gf::field_view(field);
  std::uint64_t a = 0x9E3779B9 & (f.order - 1), b = 0x85EBCA77 & (f.order - 1);
  if (a == 0) a = 3;
  if (b == 0) b = 5;
  for (auto _ : state) {
    a = f.mul(a, b) | 1;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarMul)->DenseRange(0, 3)->ArgNames({"field"});

void BM_MatrixInvert(benchmark::State& state) {
  const auto field = static_cast<gf::FieldId>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const auto& f = gf::field_view(field);
  sim::SplitMix64 rng(7);
  linalg::Matrix m(field, k, k);
  for (std::size_t r = 0; r < k; ++r)
    for (std::size_t c = 0; c < k; ++c)
      m.set(r, c, rng.next() & (f.order - 1));
  for (auto _ : state) {
    auto inv = linalg::invert(m);
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_MatrixInvert)
    ->ArgsProduct({{1, 3}, {8, 32, 128}})
    ->ArgNames({"field", "k"});

void BM_Md5(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n, 0xAB);
  for (auto _ : state) {
    auto d = crypto::Md5::hash(std::span<const std::uint8_t>(data));
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Md5)->Arg(1 << 17)->ArgNames({"bytes"});

// md5_many on the dispatched tier: `lanes` coded messages (16 id bytes plus
// a `bytes` payload) per call.  Per-message time is real_time / lanes; the
// label names the tier, as the row kernels' do.
void BM_Md5Many(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const std::array<std::byte, 16> head{};
  std::vector<std::vector<std::byte>> bodies(lanes,
                                             std::vector<std::byte>(n));
  std::vector<crypto::Md5Input> inputs;
  for (std::size_t i = 0; i < lanes; ++i) {
    std::fill(bodies[i].begin(), bodies[i].end(),
              std::byte{static_cast<std::uint8_t>(0xAB + i)});
    inputs.push_back({head, bodies[i]});
  }
  for (auto _ : state) {
    auto d = crypto::md5_many(inputs);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes * (16 + n)));
  state.SetLabel(crypto::md5_tiers().back().name);
}
BENCHMARK(BM_Md5Many)
    ->ArgsProduct({{2, 16}, {1 << 17}})
    ->ArgNames({"lanes", "bytes"});

void BM_Sha256(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n, 0xCD);
  for (auto _ : state) {
    auto d = crypto::Sha256::hash(std::span<const std::uint8_t>(data));
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sha256)->Arg(1 << 17)->ArgNames({"bytes"});

void BM_ChaCha20Stream(benchmark::State& state) {
  std::array<std::uint8_t, 32> key{};
  std::array<std::uint8_t, 12> nonce{};
  crypto::ChaCha20 rng(key, nonce, 0);
  std::vector<std::uint8_t> buf(1 << 16);
  for (auto _ : state) {
    rng.generate(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ChaCha20Stream);

// One RSA key per modulus size, generated once from a fixed seed, outside
// every timed loop.
const crypto::RsaKeyPair& rsa_key(std::int64_t bits) {
  static std::map<std::int64_t, crypto::RsaKeyPair> keys;
  auto it = keys.find(bits);
  if (it == keys.end()) {
    std::array<std::uint8_t, 32> seed{};
    seed[0] = static_cast<std::uint8_t>(bits >> 8);
    crypto::ChaCha20 rng(seed, std::array<std::uint8_t, 12>{}, 0);
    it = keys.emplace(bits, crypto::RsaKeyPair::generate(
                                static_cast<std::size_t>(bits), rng))
             .first;
  }
  return it->second;
}

// A handshake transcript is 80 bytes before the session key is appended.
const std::vector<std::uint8_t> kTranscript(80, 0x5A);

// One private-key operation; each handshake does three in series (the
// challenge signature, the response signature, the session-key decrypt).
void BM_RsaPrivate(benchmark::State& state) {
  const auto& key = rsa_key(state.range(0));
  if (!crypto::rsa_verify(key.pub, kTranscript,
                          crypto::rsa_sign(key, kTranscript))) {
    state.SkipWithError("signature does not verify");
    return;
  }
  for (auto _ : state) {
    auto signature = crypto::rsa_sign(key, kTranscript);
    benchmark::DoNotOptimize(signature.data());
  }
}
BENCHMARK(BM_RsaPrivate)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->ArgNames({"bits"})
    ->Unit(benchmark::kMicrosecond);

// One public-key operation (e = 65537): a signature check.
void BM_RsaPublic(benchmark::State& state) {
  const auto& key = rsa_key(state.range(0));
  const auto signature = crypto::rsa_sign(key, kTranscript);
  if (!crypto::rsa_verify(key.pub, kTranscript, signature)) {
    state.SkipWithError("signature does not verify");
    return;
  }
  for (auto _ : state) {
    bool ok = crypto::rsa_verify(key.pub, kTranscript, signature);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RsaPublic)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->ArgNames({"bits"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // The library_build_type the benchmark library self-reports describes
  // how *libbenchmark* was compiled (Debian ships a debug one), not this
  // binary; record our own optimisation state so tools/bench_to_json.py
  // can refuse to bless a debug-build baseline.
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("fairshare_build_type", "release");
#else
  benchmark::AddCustomContext("fairshare_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
