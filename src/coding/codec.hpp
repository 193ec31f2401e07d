// File decoder: collects coded messages from any mix of peers, regenerates
// their secret coefficient rows, and reconstructs the file the moment
// every chunk is pinned down (Section III-B).
//
// One decoder serves both codecs.  It runs a progressive elimination per
// class of the file's chunked::ClassMap, so a dense file (one class of
// width k) is the paper's decoder exactly, and a chunked file adds the
// cross-class donation cascade (chunked.hpp).  Download paths
// (net/download_client, coding/batch_decoder, the CLI) construct one from
// whatever FileInfo the serving peer advertises, so a single client binary
// interoperates with files encoded either way — including metadata written
// before the codec field existed, which decodes as dense (p2p/wire.cpp's
// versioned trailer).
//
// Authentication: when the FileInfo carries per-message MD5 digests, every
// incoming message is checked before it touches a solver, so a malicious
// peer "injecting fake messages into the network" (Section III-C) is
// rejected rather than corrupting the decode.
//
// Concurrency: add() and add_recoded() may run on every session thread at
// once, next to the const accessors (complete(), rank(), accepted(), ...).
// A caller's thread authenticates its message (file id, size, digest
// lookup, MD5) and regenerates the class's coefficient row with no lock
// held; only elimination locks, and only the message's class.  A class is
// published complete under its lock, and the cascade that follows locks
// each recipient on its own, so no thread ever holds two class locks.
// add_digest(), enable_metrics() and reconstruct() must not overlap any
// other call: the first two write what add() reads, and reconstruct()
// reads every class without its lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/coefficients.hpp"
#include "coding/message.hpp"
#include "coding/recoding.hpp"
#include "linalg/progressive.hpp"
#include "obs/metrics.hpp"

namespace fairshare::coding {

/// Outcome of feeding one message to a decoder.
enum class AddResult {
  accepted,        ///< innovative; rank increased
  non_innovative,  ///< authentic but linearly dependent on prior messages
  bad_digest,      ///< failed MD5 authentication (or unknown message id)
  wrong_file,      ///< file_id mismatch
  bad_size,        ///< payload length does not match m
  already_complete ///< decode finished; message ignored
};

/// The checks a message passes before it may touch any decoder state: the
/// file id, the payload size, then the digest policy.  With
/// `require_digests`, a message whose id has no digest in `info` is
/// rejected (the paper's download-time authentication); without it, only
/// ids the table knows are verified.  Returns `accepted` when the message
/// may proceed, else wrong_file, bad_size or bad_digest.  Reads only its
/// arguments, so sessions may call it concurrently.
AddResult authenticate(const FileInfo& info, bool require_digests,
                       const EncodedMessage& message);

/// Per-class progressive decoder with cross-class back-substitution.
///
/// Each class owns a linalg::ProgressiveSolver over its window; incoming
/// messages are authenticated and folded into their class's solver.  The
/// moment a class completes, its decoded chunks inside every overlap region
/// are donated to incomplete neighbouring classes as unit rows — effectively
/// free back-substitution that propagates breadth-first until no more
/// classes flip.  Classes are eliminated independently, so sessions feeding
/// different classes eliminate in parallel (see the header comment).
class CodecDecoder {
 public:
  /// `require_digests`: when true (default), messages whose id has no
  /// digest in `info` are rejected.  Set false only for experiments that
  /// model a user who did not carry the digest table.
  CodecDecoder(const SecretKey& secret, const FileInfo& info,
               bool require_digests = true);

  /// Thread-safe.  Checks run in a fixed order: decode complete
  /// (already_complete), then authentication, then the message's class —
  /// so a corrupt message for a finished class still reports bad_digest.
  AddResult add(const EncodedMessage& message);

  /// Fold in a peer-recoded packet (recoding.hpp).  Every source id must
  /// map to one class (see chunked::recode_class_local; a dense file has
  /// only one).  A combination that is empty or spans classes cannot enter
  /// any class-local solver and is rejected as bad_digest.  NOTE: no
  /// per-message digest check is possible — the owner never hashed this
  /// combination — which is precisely why the paper's design forwards
  /// verbatim; callers must verify the final content digest instead.
  /// Thread-safe, like add().
  AddResult add_recoded(const RecodedMessage& message);

  /// Report decode progress into `registry`:
  ///  * fairshare_decoder_rank{file,user,codec} — total rank;
  ///  * fairshare_decoder_eliminate_ns{file,user,codec} — one sample per
  ///    row a solver eliminated;
  /// and, for chunked files only,
  ///  * fairshare_chunked_class_rank{file,user,class} — per-class gauges;
  ///  * fairshare_chunked_classes_complete_total{file,user} — cascade
  ///    progress counter.
  /// The codec label ("dense"/"chunked") keeps both codecs' series apart in
  /// one registry.  Off by default so the bare decode pipeline carries
  /// zero instrumentation cost.  Call before the first add(), never
  /// concurrently with one.
  void enable_metrics(obs::MetricsRegistry& registry, std::uint64_t user_id);

  /// Register the digest of a message generated after the FileInfo
  /// snapshot was taken (e.g. fetched live from the owning peer while it
  /// encodes fresh messages on demand).  Never concurrent with add().
  void add_digest(std::uint64_t message_id, const crypto::Md5Digest& digest) {
    info_.message_digests[message_id] = digest;
  }

  bool complete() const { return classes_complete() == map_.classes(); }
  /// Sum of per-class solver ranks; reaches sum-of-widths (k for a dense
  /// file, >= k for a chunked one, the overlap counted once per class)
  /// when complete.
  std::size_t rank() const { return rank_.load(std::memory_order_relaxed); }
  std::size_t k() const { return info_.k; }
  std::size_t classes_complete() const {
    return classes_complete_.load(std::memory_order_acquire);
  }
  const chunked::ClassMap& class_map() const { return map_; }

  std::size_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::size_t rejected_auth() const {
    return rejected_auth_.load(std::memory_order_relaxed);
  }
  std::size_t non_innovative() const {
    return non_innovative_.load(std::memory_order_relaxed);
  }

  /// Reconstructed file (original_bytes long).  Precondition: complete(),
  /// and no add() still running.
  std::vector<std::byte> reconstruct() const;

 private:
  struct ClassState {
    ClassState(gf::FieldId field, std::size_t width, std::size_t m)
        : solver(field, width, m) {}
    std::mutex lock;  // guards solver while the class is incomplete
    linalg::ProgressiveSolver solver;
    // Set once, under `lock`, with release order.  From then on the solver
    // takes no row, so its chunks may be read without the lock.
    std::atomic<bool> complete{false};
  };

  /// One timed add_row of a packed class-width coefficient row into class
  /// `cls`'s solver (plus the rank instruments); returns true when the row
  /// was innovative.  Caller holds the class lock; the class is incomplete.
  bool eliminate(std::size_t cls, const std::byte* coeffs,
                 const std::byte* payload);
  /// Eliminate one coded row into class `cls` under its lock, run the
  /// cascade if that completed the class, and count the outcome.
  AddResult absorb(std::size_t cls, const std::byte* coeffs,
                   const std::byte* payload);
  /// Publish class `cls` complete.  Caller holds the class lock.
  void mark_complete(std::size_t cls);
  /// Donate class `ready`'s decoded overlap chunks to incomplete
  /// neighbours, breadth-first, flipping classes as they fill.  `ready` was
  /// completed by this thread, and no class lock is held on entry.
  void cascade(std::size_t ready);

  FileInfo info_;
  bool require_digests_;
  chunked::ClassMap map_;
  CoefficientGenerator coeffs_;  // sized to max class width
  std::deque<ClassState> classes_;  // a deque: ClassState cannot move
  std::atomic<std::size_t> classes_complete_{0};
  std::atomic<std::size_t> rank_{0};
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_auth_{0};
  std::atomic<std::size_t> non_innovative_{0};
  obs::Gauge* rank_gauge_ = nullptr;  // null = metrics disabled
  obs::Histogram* eliminate_ns_ = nullptr;
  std::vector<obs::Gauge*> class_rank_;  // empty unless chunked + metrics
  obs::Counter* classes_complete_total_ = nullptr;
};

}  // namespace fairshare::coding
