#include "workloads.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "coding/codec.hpp"
#include "disco/client.hpp"
#include "json.hpp"
#include "net/download_client.hpp"
#include "recorder.hpp"
#include "sim/rng.hpp"
#include "swarm.hpp"
#include "traced_fetch.hpp"

namespace perfbench {

using namespace fairshare;

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
// A 25 s traced small_fetch records ~15k spans; a full log drops (and
// fails the run) rather than reallocating mid-measurement.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 17;
constexpr int kWarmupFetches = 1;

// small_fetch
constexpr std::size_t kSmallFiles = 32;
constexpr std::size_t kSmallServers = 3;
constexpr std::size_t kPublishEvery = 8;  // one operation in 8 publishes
constexpr double kZipfExponent = 1.0;
constexpr int kSmallSetupPasses = 5;
// bulk_fetch
constexpr std::size_t kBulkBytes = 64 * kMiB;
constexpr std::size_t kBulkServers = 3;
constexpr int kBulkSetupPasses = 3;
// paced_share
constexpr std::size_t kPacedUsers = 4;
constexpr std::size_t kPacedFiles = 8;
constexpr double kPacedRateKbps = 80'000.0;
constexpr double kContributionUnit = 1u << 30;  // ledger seed: (u+1) GiB
constexpr int kPacedSetupPasses = 5;
constexpr std::uint64_t kShareSampleNs = 20'000'000;

coding::SecretKey secret_for(std::uint64_t seed) {
  coding::SecretKey s{};
  sim::SplitMix64 rng(seed ^ 0x5ec2e7);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
  return s;
}

struct CpuSample {
  double cpu_s = 0.0;
  double max_rss_mb = 0.0;
};

CpuSample cpu_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// One fetch or publish as the loop saw it.
struct Op {
  const char* kind = "fetch";
  std::uint64_t id = 0;
  std::size_t user = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool checked = false;  ///< Run::check has judged its output
  bool ok = false;       ///< completed, and its output verified
  bool traced = false;
  std::uint64_t bytes = 0;   ///< verified file bytes
  std::uint64_t frames = 0;  ///< traced fetches: coded frames received
  std::uint64_t k = 0;
  int hops = -1;  ///< resolved fetches: discovery routing hops
};

/// A file as the owner published it.
struct File {
  std::uint64_t id = 0;
  std::vector<std::byte> data;
  coding::FileInfo info;
};

/// Server-side instrument totals, summed over the serving loops.
struct ServerTotals {
  std::uint64_t loop_busy_ns = 0;
  std::uint64_t loop_wait_ns = 0;
  std::uint64_t loop_wakeups = 0;
  obs::Histogram::Snapshot quantum;
};

ServerTotals server_totals(const obs::MetricsRegistry& registry) {
  const obs::RegistrySnapshot snap = registry.snapshot(0);
  const auto serving_loop = [](const obs::LabelList& labels) {
    for (const auto& [k, v] : labels)
      if (k == "loop") return v.rfind("disco.", 0) != 0;
    return false;
  };
  ServerTotals t;
  for (const auto& c : snap.counters) {
    if (!serving_loop(c.labels)) continue;
    if (c.name == "fairshare_loop_busy_ns_total") t.loop_busy_ns += c.value;
    if (c.name == "fairshare_loop_wait_ns_total") t.loop_wait_ns += c.value;
    if (c.name == "fairshare_loop_wakeups_total") t.loop_wakeups += c.value;
  }
  for (const auto& h : snap.histograms)
    if (h.name == "fairshare_server_quantum_ns") {
      t.quantum.count += h.snap.count;
      t.quantum.sum += h.snap.sum;
      t.quantum.max = std::max(t.quantum.max, h.snap.max);
      for (std::size_t i = 0; i < h.snap.buckets.size(); ++i)
        t.quantum.buckets[i] += h.snap.buckets[i];
    }
  return t;
}

/// Instrument growth between two totals; quantiles of the difference are
/// clamped to [0, later max].
ServerTotals delta(const ServerTotals& a, const ServerTotals& b) {
  ServerTotals d;
  d.loop_busy_ns = b.loop_busy_ns - a.loop_busy_ns;
  d.loop_wait_ns = b.loop_wait_ns - a.loop_wait_ns;
  d.loop_wakeups = b.loop_wakeups - a.loop_wakeups;
  d.quantum.count = b.quantum.count - a.quantum.count;
  d.quantum.sum = b.quantum.sum - a.quantum.sum;
  d.quantum.max = b.quantum.max;
  for (std::size_t i = 0; i < d.quantum.buckets.size(); ++i)
    d.quantum.buckets[i] = b.quantum.buckets[i] - a.quantum.buckets[i];
  return d;
}

/// Everything one run records.
class Run {
 public:
  explicit Run(const Args& a) : args(a), spans_(a.trace ? kSpanCapacity : 0) {}

  const Args& args;
  obs::MetricsRegistry servers;  ///< peer servers, their loops, discovery
  obs::MetricsRegistry clients;  ///< download_file's own instruments
  obs::MetricsRegistry traced;   ///< the traced client's decoder
  LayerCounters layers;
  std::vector<double> setup_s;
  std::atomic<std::uint64_t> next_op{1};
  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> mismatched{0};
  /// Input preparation and output checks inside the window: wall time
  /// (summed over load threads) and the CPU time of those threads.
  std::atomic<std::uint64_t> excluded_ns{0};
  std::atomic<std::uint64_t> excluded_cpu_ns{0};
  /// Load-generating threads; with one, excluded wall time comes off the
  /// window.
  std::size_t load_threads = 1;

  SpanLog* spans() { return args.trace ? &spans_ : nullptr; }
  LayerCounters* trace_layers() { return args.trace ? &layers : nullptr; }
  const SpanLog& span_log() const { return spans_; }

  /// A traced run alternates traced and untraced operations on each load
  /// thread (`i` counts that thread's operations), so both halves see the
  /// same conditions and users, and their difference is the tracing
  /// overhead.
  bool traced_op(std::uint64_t i) const { return args.trace && i % 2 == 1; }

  void record(const Op& op) {
    std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back(op);
  }
  const std::vector<Op>& ops() const { return ops_; }

  /// Judge an operation's output; the only place an operation becomes
  /// ok.  A completed operation whose output differs from its source is a
  /// correctness failure, not merely a failed operation.
  void check(Op& op, bool completed, bool matches) {
    op.checked = true;
    op.ok = completed && matches;
    if (op.ok) ++verified;
    if (completed && !matches) ++mismatched;
  }

 private:
  SpanLog spans_;
  std::mutex mutex_;  // guards ops_
  std::vector<Op> ops_;
};

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Scope whose wall and CPU time is kept out of the measurement.
class Excluded {
 public:
  explicit Excluded(Run& run)
      : run_(run), wall0_(now_ns()), cpu0_(thread_cpu_ns()) {}
  ~Excluded() {
    run_.excluded_ns += now_ns() - wall0_;
    run_.excluded_cpu_ns += thread_cpu_ns() - cpu0_;
  }

  Excluded(const Excluded&) = delete;
  Excluded& operator=(const Excluded&) = delete;

 private:
  Run& run_;
  std::uint64_t wall0_;
  std::uint64_t cpu0_;
};

/// Time `passes` full set-ups, tearing each down before the next, and
/// keep the last world.  A traced run sets up once, counting encode and
/// store work.
template <typename SetUp>
auto timed_setup(Run& run, int passes, SetUp set_up) {
  decltype(set_up(nullptr)) world;
  if (run.args.trace) passes = 1;
  for (int p = 0; p < passes; ++p) {
    world.reset();
    const std::uint64_t t0 = now_ns();
    world = set_up(run.trace_layers());
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return world;
}

struct FetchTarget {
  const File* file = nullptr;
  const Swarm* swarm = nullptr;
  /// Set: resolve the peers through discovery before each fetch.
  std::optional<disco::ClientConfig> discovery;
  std::vector<net::PeerEndpoint> static_peers;
};

Op fetch(Run& run, const FetchTarget& t, const coding::SecretKey& secret,
         std::size_t user, const crypto::RsaKeyPair& key, bool traced) {
  Op op;
  op.id = run.next_op++;
  op.user = user;
  op.traced = traced;
  op.k = t.file->info.k;
  SpanLog* const log = op.traced ? run.spans() : nullptr;
  const std::uint64_t root = log ? log->next_id() : 0;
  op.start_ns = now_ns();

  std::vector<net::PeerEndpoint> peers;
  if (t.discovery) {
    ScopedSpan span(log, "disco.resolve", op.id, root);
    peers = disco::resolve_peers(t.file->id, *t.discovery, {}, &op.hops);
    t.swarm->attach_identities(peers);
  } else {
    peers = t.static_peers;
  }

  bool completed = false;
  std::vector<std::byte> data;
  if (op.traced) {
    TracedFetchOptions o;
    o.user_id = user_id(user);
    o.user_key = &key;
    o.rng_seed = op.id;
    o.registry = &run.traced;
    o.spans = log;
    o.layers = &run.layers;
    o.op = op.id;
    o.parent = root;
    TracedFetchResult r = traced_fetch(peers, secret, t.file->info, o);
    op.end_ns = r.end_ns ? r.end_ns : now_ns();
    completed = r.success;
    op.frames = r.frames;
    data = std::move(r.data);
    log->record(Span{root, 0, op.id, "op.fetch", op.start_ns, op.end_ns});
  } else {
    net::DownloadOptions o;
    o.user_id = user_id(user);
    o.user_key = &key;
    o.rng_seed = op.id;
    o.registry = &run.clients;
    net::DownloadReport r = net::download_file(peers, secret, t.file->info, o);
    op.end_ns = now_ns();
    completed = r.success;
    data = std::move(r.data);
  }
  const Excluded checking(run);
  run.check(op, completed, data == t.file->data);
  op.bytes = op.ok ? data.size() : 0;
  return op;
}

/// The owner publishes a fresh file into new stores for `peers` peers.
/// Afterwards every store must hold k digest-covered messages, and the
/// messages must decode back to the file.
Op publish_op(Run& run, const coding::SecretKey& secret, std::uint64_t file_id,
              std::size_t peers) {
  std::vector<std::byte> data;
  {
    const Excluded preparing(run);
    data = random_bytes(kMiB, file_id ^ run.args.seed);
  }

  Op op;
  op.kind = "publish";
  op.id = run.next_op++;
  std::vector<p2p::MessageStore> stores(peers);
  op.start_ns = now_ns();
  const coding::FileInfo info =
      publish(secret, file_id, data, coding::CodecKind::dense, stores,
              run.trace_layers());
  op.end_ns = now_ns();
  op.k = info.k;

  const Excluded checking(run);
  // Every stored message must carry the owner's digest; the decoder
  // (digests required) rebuilds the file from the first k independent.
  bool digests_ok = info.message_digests.size() == peers * info.k;
  coding::CodecDecoder decoder(secret, info);
  for (const p2p::MessageStore& store : stores) {
    digests_ok = digests_ok && store.count(file_id) == info.k;
    for (std::size_t i = 0; i < store.count(file_id); ++i) {
      const coding::EncodedMessage& m = store.at(file_id, i);
      const auto it = info.message_digests.find(m.message_id);
      digests_ok = digests_ok && it != info.message_digests.end() &&
                   it->second == m.digest();
      if (!decoder.complete()) decoder.add(m);
    }
  }
  const bool completed = decoder.complete();
  run.check(op, completed,
            digests_ok && completed && decoder.reconstruct() == data);
  op.bytes = op.ok ? data.size() : 0;
  return op;
}

/// Traced runs only: the traced client against download_file on one
/// file.  From a single peer the stream is deterministic, so bytes, frame
/// and innovative counts must all agree exactly.  From every peer the
/// sessions race, and two runs of the same client already differ in
/// their counts; there the bytes must agree, and the counts are recorded.
void cross_check(Run& run, const FetchTarget& t,
                 const coding::SecretKey& secret,
                 const crypto::RsaKeyPair& key, JsonWriter& out) {
  std::vector<net::PeerEndpoint> all = t.static_peers;
  if (t.discovery) {
    all = disco::resolve_peers(t.file->id, *t.discovery);
    t.swarm->attach_identities(all);
  }
  if (all.empty()) throw std::runtime_error("cross-check found no peers");
  const std::vector<net::PeerEndpoint> single = {all.front()};
  bool ok = true;
  out.key("cross_check").begin_object();
  const std::vector<net::PeerEndpoint>* const peer_sets[] = {&single, &all};
  for (const auto* peers : peer_sets) {
    const std::uint64_t frames0 =
        run.clients.counter_total("fairshare_client_frames_total");
    net::DownloadOptions o;
    o.user_id = user_id(0);
    o.user_key = &key;
    o.registry = &run.clients;
    const net::DownloadReport a =
        net::download_file(*peers, secret, t.file->info, o);
    const std::uint64_t frames_a =
        run.clients.counter_total("fairshare_client_frames_total") - frames0;
    TracedFetchOptions to;
    to.user_id = user_id(0);
    to.user_key = &key;
    const TracedFetchResult b = traced_fetch(*peers, secret, t.file->info, to);
    const bool exact = peers == &single;
    const bool agree = a.success && b.success && a.data == t.file->data &&
                       b.data == t.file->data &&
                       (!exact || (a.messages_accepted == b.innovative &&
                                   frames_a == b.frames));
    ok = ok && agree;
    out.key(exact ? "single_peer" : "all_peers").begin_object();
    out.field("peers", static_cast<std::uint64_t>(peers->size()));
    out.key("frames").begin_array().value(frames_a).value(b.frames).end_array();
    out.key("innovative")
        .begin_array()
        .value(static_cast<std::uint64_t>(a.messages_accepted))
        .value(b.innovative)
        .end_array();
    out.field("agree", agree);
    out.end_object();
  }
  out.field("ok", ok).end_object();
}

/// Closed loop on the calling thread: the next operation starts when the
/// previous one ends, until the deadline has passed and at least 20
/// operations have run (a median is reported only with ten samples beyond
/// it, even when every operation is slow).
template <typename NextOp>
void closed_loop(Run& run, std::uint64_t deadline_ns, NextOp next_op) {
  constexpr std::uint64_t kMinOps = 20;
  for (std::uint64_t i = 0; i < kMinOps || now_ns() < deadline_ns; ++i)
    run.record(next_op(i));
}

std::uint64_t window_deadline(const Run& run, std::uint64_t start_ns) {
  return start_ns + static_cast<std::uint64_t>(run.args.seconds * 1e9);
}

/// Zipf(s) over ranks 0..n-1, by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s, std::uint64_t seed) : rng_(seed) {
    double total = 0.0;
    for (std::size_t r = 1; r <= n; ++r)
      cdf_.push_back(total += std::pow(static_cast<double>(r), -s));
    for (double& c : cdf_) c /= total;
  }
  std::size_t next() {
    const double u = rng_.next_double();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  sim::SplitMix64 rng_;
  std::vector<double> cdf_;
};

std::vector<File> make_files(std::size_t count, std::size_t bytes,
                             std::uint64_t seed) {
  std::vector<File> files(count);
  for (std::size_t i = 0; i < count; ++i) {
    files[i].id = i + 1;
    files[i].data = random_bytes(bytes, seed * 7919 + i);
  }
  return files;
}

/// Publish every file into one store per server and bring the swarm up.
std::unique_ptr<Swarm> stand_up(std::vector<File>& files,
                                const coding::SecretKey& secret,
                                coding::CodecKind codec, std::size_t servers,
                                const Swarm::Config& config,
                                const Identities& ids,
                                obs::MetricsRegistry& registry,
                                LayerCounters* layers) {
  std::vector<p2p::MessageStore> stores(servers);
  std::vector<std::uint64_t> announced;
  for (File& f : files) {
    f.info = publish(secret, f.id, f.data, codec, stores, layers);
    if (config.discovery_nodes > 0) announced.push_back(f.id);
  }
  return std::make_unique<Swarm>(config, ids, std::move(stores), announced,
                                 registry);
}

struct Window {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  CpuSample cpu0, cpu1;
  ServerTotals servers;
};

Window open_window(Run& run) {
  run.excluded_ns = 0;
  run.excluded_cpu_ns = 0;
  Window w;
  w.cpu0 = cpu_sample();
  w.servers = server_totals(run.servers);
  w.start_ns = now_ns();
  return w;
}

void close_window(Run& run, Window& w) {
  w.end_ns = now_ns();
  w.cpu1 = cpu_sample();
  w.servers = delta(w.servers, server_totals(run.servers));
}

void write_common(Run& run, const Window& w, JsonWriter& out) {
  out.key("setup_s").begin_array();
  for (const double s : run.setup_s) out.value(s);
  out.end_array();
  const double excluded_s = static_cast<double>(run.excluded_ns) / 1e9;
  const double wall_s = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
  out.field("wall_s", wall_s);
  out.field("excluded_s", excluded_s);
  out.field("window_s", run.load_threads == 1 ? wall_s - excluded_s : wall_s);
  out.field("load_threads", static_cast<std::uint64_t>(run.load_threads));
  out.field("cpu_s", w.cpu1.cpu_s - w.cpu0.cpu_s -
                         static_cast<double>(run.excluded_cpu_ns) / 1e9);
  out.field("peak_rss_mb", cpu_sample().max_rss_mb);
  out.key("checks").begin_object();
  out.field("verified", run.verified.load());
  out.field("mismatched", run.mismatched.load());
  out.end_object();
  out.key("servers").begin_object();
  out.field("loop_busy_ns", w.servers.loop_busy_ns);
  out.field("loop_wait_ns", w.servers.loop_wait_ns);
  out.field("loop_wakeups", w.servers.loop_wakeups);
  out.field("quantum_count", w.servers.quantum.count);
  out.field("quantum_ns_p50", w.servers.quantum.count
                                  ? w.servers.quantum.quantile(0.5)
                                  : 0.0);
  out.end_object();

  out.key("ops").begin_array();
  for (const Op& op : run.ops()) {
    out.begin_object();
    out.field("kind", op.kind).field("id", op.id);
    out.field("user", static_cast<std::uint64_t>(op.user));
    out.field("start_ms",
              static_cast<double>(
                  static_cast<std::int64_t>(op.start_ns - w.start_ns)) /
                  1e6);
    out.field("ms", static_cast<double>(op.end_ns - op.start_ns) / 1e6);
    out.field("checked", op.checked).field("ok", op.ok);
    out.field("traced", op.traced);
    out.field("bytes", op.bytes).field("k", op.k);
    if (op.traced) out.field("frames", op.frames);
    if (op.hops >= 0) out.field("hops", op.hops);
    out.end_object();
  }
  out.end_array();

  if (!run.args.trace) return;
  std::uint64_t eliminate_ns = 0, eliminations = 0;
  for (const auto& h : run.traced.snapshot(0).histograms)
    if (h.name == "fairshare_decoder_eliminate_ns") {
      eliminate_ns += h.snap.sum;
      eliminations += h.snap.count;
    }
  const LayerCounters& l = run.layers;
  out.key("layers").begin_object();
  out.field("recv_ns", l.recv_ns.load()).field("frames", l.frames.load());
  out.field("wire_decode_ns", l.wire_decode_ns.load());
  out.field("decoder_wait_ns", l.decoder_wait_ns.load());
  out.field("add_ns", l.add_ns.load()).field("adds", l.adds.load());
  out.field("accepted", l.accepted.load());
  out.field("encode_ns", l.encode_ns.load()).field("encoded", l.encoded.load());
  out.field("store_ns", l.store_ns.load()).field("stored", l.stored.load());
  out.field("md5_ns", l.md5_ns.load()).field("md5_bytes", l.md5_bytes.load());
  out.end_object();
  out.field("eliminate_ns", eliminate_ns).field("eliminations", eliminations);
  const SpanLog& log = run.span_log();
  out.field("spans_dropped", log.dropped());
  // [id, parent, op, name, start, end], ns since the window opened.
  out.key("spans").begin_array();
  for (const Span& s : log.spans()) {
    out.begin_array();
    out.value(s.id).value(s.parent).value(s.op).value(s.name);
    out.value(static_cast<std::int64_t>(s.start_ns - w.start_ns));
    out.value(static_cast<std::int64_t>(s.end_ns - w.start_ns));
    out.end_array();
  }
  out.end_array();
}

// ------------------------------------------------------------ workloads

void small_fetch(Run& run, JsonWriter& out) {
  const std::uint64_t seed = run.args.seed;
  const coding::SecretKey secret = secret_for(seed);
  const Identities ids = Identities::generate(seed, kSmallServers, 1);
  std::vector<File> files = make_files(kSmallFiles, kMiB, seed);
  Swarm::Config config;
  config.discovery_nodes = 3;
  config.seed = seed;
  const auto swarm =
      timed_setup(run, kSmallSetupPasses, [&](LayerCounters* layers) {
        return stand_up(files, secret, coding::CodecKind::dense,
                        kSmallServers, config, ids, run.servers, layers);
      });

  FetchTarget target;
  target.swarm = swarm.get();
  target.discovery = swarm->disco_config();
  Zipf zipf(files.size(), kZipfExponent, seed);
  for (int i = 0; i < kWarmupFetches; ++i) {
    target.file = &files[zipf.next()];
    fetch(run, target, secret, 0, ids.users[0], false);
  }
  if (run.args.trace) {
    target.file = &files[0];
    cross_check(run, target, secret, ids.users[0], out);
  }

  Window w = open_window(run);
  std::uint64_t next_publish_id = 1'000'000;
  closed_loop(run, window_deadline(run, w.start_ns), [&](std::uint64_t i) {
    if (i % kPublishEvery == kPublishEvery - 1)
      return publish_op(run, secret, next_publish_id++, kSmallServers);
    target.file = &files[zipf.next()];
    return fetch(run, target, secret, 0, ids.users[0], run.traced_op(i));
  });
  close_window(run, w);
  write_common(run, w, out);
}

void bulk_fetch(Run& run, JsonWriter& out) {
  const std::uint64_t seed = run.args.seed;
  const coding::SecretKey secret = secret_for(seed);
  const Identities ids = Identities::generate(seed, kBulkServers, 1);
  std::vector<File> files = make_files(1, kBulkBytes, seed);
  Swarm::Config config;
  config.seed = seed;
  const auto swarm =
      timed_setup(run, kBulkSetupPasses, [&](LayerCounters* layers) {
        return stand_up(files, secret, coding::CodecKind::chunked,
                        kBulkServers, config, ids, run.servers, layers);
      });

  FetchTarget target;
  target.swarm = swarm.get();
  target.file = &files[0];
  target.static_peers = swarm->endpoints();
  for (int i = 0; i < kWarmupFetches; ++i)
    fetch(run, target, secret, 0, ids.users[0], false);
  if (run.args.trace) cross_check(run, target, secret, ids.users[0], out);

  Window w = open_window(run);
  closed_loop(run, window_deadline(run, w.start_ns), [&](std::uint64_t i) {
    return fetch(run, target, secret, 0, ids.users[0], run.traced_op(i));
  });
  close_window(run, w);
  write_common(run, w, out);
}

void paced_share(Run& run, JsonWriter& out) {
  const std::uint64_t seed = run.args.seed;
  const coding::SecretKey secret = secret_for(seed);
  const Identities ids = Identities::generate(seed, 1, kPacedUsers);
  std::vector<File> files = make_files(kPacedFiles, kMiB, seed);
  Swarm::Config config;
  config.rate_kbps = kPacedRateKbps;
  config.seed = seed;
  std::vector<double> contribution(kPacedUsers);
  for (std::size_t u = 0; u < kPacedUsers; ++u)
    contribution[u] = kContributionUnit * static_cast<double>(u + 1);
  const auto swarm =
      timed_setup(run, kPacedSetupPasses, [&](LayerCounters* layers) {
        auto s = stand_up(files, secret, coding::CodecKind::dense, 1, config,
                          ids, run.servers, layers);
        for (std::size_t u = 0; u < kPacedUsers; ++u)
          s->server(0).seed_contribution(user_id(u), contribution[u]);
        return s;
      });
  net::PeerServer& server = swarm->server(0);

  FetchTarget base;
  base.swarm = swarm.get();
  base.static_peers = swarm->endpoints();
  base.file = &files[0];
  for (std::size_t u = 0; u < kPacedUsers; ++u)
    fetch(run, base, secret, u, ids.users[u], false);
  if (run.args.trace) cross_check(run, base, secret, ids.users[0], out);

  const auto user_bytes = [&] {
    std::vector<std::uint64_t> b(kPacedUsers);
    for (std::size_t u = 0; u < kPacedUsers; ++u)
      b[u] = server.user_bytes_sent(user_id(u));
    return b;
  };

  run.load_threads = kPacedUsers;
  const std::vector<std::uint64_t> bytes0 = user_bytes();
  Window w = open_window(run);
  const std::uint64_t deadline = window_deadline(run, w.start_ns);
  std::vector<std::uint64_t> bytes1;
  // Granted Eq. (2) rate shares, summed over samples where every user
  // was streaming.
  std::vector<double> granted(kPacedUsers, 0.0);
  std::uint64_t granted_samples = 0;
  {
    std::vector<std::jthread> users;
    for (std::size_t u = 0; u < kPacedUsers; ++u)
      users.emplace_back([&, u] {
        FetchTarget target = base;
        sim::SplitMix64 pick(seed * 31 + u);
        closed_loop(run, deadline, [&](std::uint64_t i) {
          target.file = &files[pick.next_below(files.size())];
          return fetch(run, target, secret, u, ids.users[u],
                       run.traced_op(i));
        });
      });
    for (std::uint64_t now = now_ns(); now < deadline; now = now_ns()) {
      if (run.args.trace) {
        const auto shares = server.allocation_snapshot();
        double total = 0.0;
        std::size_t streaming = 0;
        for (const auto& s : shares)
          if (s.rate_kbps > 0.0) {
            total += s.rate_kbps;
            ++streaming;
          }
        if (streaming == kPacedUsers) {
          for (const auto& s : shares)
            if (s.user_id >= user_id(0) && s.user_id < user_id(kPacedUsers))
              granted[s.user_id - user_id(0)] += s.rate_kbps / total;
          ++granted_samples;
        }
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min(deadline - now, kShareSampleNs)));
    }
    bytes1 = user_bytes();
  }
  close_window(run, w);
  write_common(run, w, out);

  out.key("paced").begin_object();
  out.field("rate_kbps", kPacedRateKbps);
  out.field("share_window_s",
            static_cast<double>(deadline - w.start_ns) / 1e9);
  out.field("granted_samples", granted_samples);
  out.key("users").begin_array();
  for (std::size_t u = 0; u < kPacedUsers; ++u) {
    out.begin_object();
    out.field("user", user_id(u));
    out.field("contribution", contribution[u]);
    out.field("bytes_start", bytes0[u]).field("bytes_end", bytes1[u]);
    out.field("granted_share",
              granted_samples ? granted[u] / granted_samples : 0.0);
    out.end_object();
  }
  out.end_array().end_object();
}

}  // namespace

bool run_workload(const Args& args, JsonWriter& out) {
  using Workload = void (*)(Run&, JsonWriter&);
  const std::pair<const char*, Workload> table[] = {
      {"small_fetch", small_fetch},
      {"bulk_fetch", bulk_fetch},
      {"paced_share", paced_share},
  };
  for (const auto& [name, fn] : table) {
    if (args.workload != name) continue;
    Run run(args);
    out.begin_object();
    out.field("workload", name);
    fn(run, out);
    out.end_object();
    return true;
  }
  return false;
}

}  // namespace perfbench
