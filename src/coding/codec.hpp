// File decoder: collects coded messages from any mix of peers, regenerates
// their secret coefficient rows, and rebuilds the file once every chunk is
// pinned down (Section III-B).
//
// One decoder serves both codecs.  Each class of the file's
// chunked::ClassMap is an independent w x w system, so a dense file (one
// class of width k) is the paper's decoder exactly, and a chunked file adds
// the cross-class donation cascade (chunked.hpp).  Download paths
// (net/download_client, coding/batch_decoder, the CLI) construct one from
// whatever FileInfo the serving peer advertises, so a single client binary
// interoperates with files encoded either way — including metadata written
// before the codec field existed, which decodes as dense (p2p/wire.cpp's
// versioned trailer).
//
// Decoding is the paper's "multiply the received payloads by the inverse
// of their coefficient sub-matrix", split in two:
//  * On arrival, only the message's w-symbol coefficient row is reduced.
//    Each class keeps [w coefficients | w source weights] in reduced
//    echelon form (a linalg::ProgressiveSolver fed the unit weight of the
//    row's would-be source slot) and copies each innovative payload, raw,
//    into that slot.  A class that reaches full rank donates each overlap
//    chunk j to its incomplete neighbours as the unit row e_j, whose
//    source is "chunk j of the output": a coefficient-level substitution
//    that moves no payload bytes.  The order in which classes complete is
//    recorded; donors always complete before their recipients.
//  * Once complete(), the solve computes X = T * [raw rows; donated chunks]
//    for every class with one row-block product (gf::FieldView), writing
//    straight into the file buffer reconstruct() returns.  The payload is
//    cut into strips; a strip runs every class in completion order, each
//    class computing only the chunks no earlier class computed, so donors
//    precede recipients within a strip and strips are independent.  Each
//    class's scalars are prepared once (gf::RowBlock) and reused for every
//    strip.
//
// Authentication: when the FileInfo carries per-message MD5 digests, every
// incoming message is checked before it touches a class, so a malicious
// peer "injecting fake messages into the network" (Section III-C) is
// rejected rather than corrupting the decode.  add() takes a batch of
// messages read in place (EncodedMessageView, e.g. straight from received
// frames) and checks every digest of the batch in one multi-lane MD5 pass
// (crypto::md5_many) before any of its messages touches a class; each
// message is judged on its own digest.  The one-message add() is the batch
// of one.
//
// Concurrency: add() and add_recoded() may run on every session thread at
// once, next to the const accessors (complete(), rank(), accepted(), ...).
// A caller's thread authenticates its batch (file id, size, digest lookup,
// MD5) and regenerates each message's coefficient row with no lock held;
// only the coefficient elimination and the payload copy lock, and only the
// message's class.  A class is published complete under its lock, and the
// cascade that follows locks each recipient on its own, so no thread ever
// holds two class locks.  The first add() makes the file buffer, and each
// innovative row is copied into a slot allocated (but not zero-filled) with
// the decoder, so their page faults land on the session threads during
// reception.  solve() may then run on any number of threads at once
// (download_file runs it on every session thread after its stop frame and on
// the thread that started the download): each claims strips from an atomic
// counter until none is left, so a late caller simply finds fewer.  add()
// calls still in flight when complete() flips only read flags and counters,
// so they may overlap the solve.  reconstruct() runs whatever strips no
// solve() claimed and hands the file over; it must not overlap add() or
// solve().  add_digest() and enable_metrics() must not overlap any other
// call: they write what add() reads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "coding/chunked.hpp"
#include "coding/coefficients.hpp"
#include "coding/message.hpp"
#include "coding/recoding.hpp"
#include "gf/row_ops.hpp"
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

/// The checks each message passes before it may touch any decoder state:
/// the file id, the payload size, then the digest policy.  With
/// `require_digests`, a message whose id has no digest in `info` is
/// rejected (the paper's download-time authentication); without it, only
/// ids the table knows are verified.  Returns, per message, `accepted` when
/// it may proceed, else wrong_file, bad_size or bad_digest.  Every message
/// that reaches the digest check is hashed in one digest_many call, and a
/// message is judged on its own digest only.  Reads only its arguments, so
/// sessions may call it concurrently.
std::vector<AddResult> authenticate(
    const FileInfo& info, bool require_digests,
    std::span<const EncodedMessageView> messages);

/// Per-class coefficient elimination with cross-class substitution, then
/// one strip-parallel product per class (see the header comment).
class CodecDecoder {
 public:
  /// `require_digests`: when true (default), messages whose id has no
  /// digest in `info` are rejected.  Set false only for experiments that
  /// model a user who did not carry the digest table.
  CodecDecoder(const SecretKey& secret, const FileInfo& info,
               bool require_digests = true);

  /// Thread-safe.  Feeds `batch` in order and returns one verdict per
  /// message: the verdicts, and the counters, that add() of each message in
  /// turn would give.  The whole batch is authenticated first, its digests
  /// in one multi-lane MD5 pass (authenticate()), so no payload reaches a
  /// class before its own digest has matched, and a message that fails
  /// leaves its neighbours unaffected.  Then, per message, checks run in a
  /// fixed order: decode complete (already_complete), then the
  /// authentication verdict, then the message's class — so a corrupt
  /// message for a finished class still reports bad_digest.  Payloads are
  /// read in place and need only outlive the call.
  std::vector<AddResult> add(std::span<const EncodedMessageView> batch);

  /// The batch of one.
  AddResult add(const EncodedMessage& message);

  /// Fold in a peer-recoded packet (recoding.hpp).  Every source id must
  /// map to one class (see chunked::recode_class_local; a dense file has
  /// only one).  A combination that is empty or spans classes cannot enter
  /// any class-local system and is rejected as bad_digest.  NOTE: no
  /// per-message digest check is possible — the owner never hashed this
  /// combination — which is precisely why the paper's design forwards
  /// verbatim; callers must verify the final content digest instead.
  /// Thread-safe, like add().
  AddResult add_recoded(const RecodedMessage& message);

  /// Report decode progress into `registry`:
  ///  * fairshare_decoder_rank{file,user,codec} — total rank;
  ///  * fairshare_decoder_eliminate_ns{file,user,codec} — one sample per
  ///    coefficient row a class eliminated;
  ///  * fairshare_decoder_solve_ns{file,user,codec} — one sample per strip
  ///    of the payload product;
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
  /// Sum of per-class coefficient ranks; reaches sum-of-widths (k for a
  /// dense file, >= k for a chunked one, the overlap counted once per
  /// class) when complete.
  std::size_t rank() const { return rank_.load(std::memory_order_relaxed); }
  /// Coefficient rows still missing before complete(): the sum of class
  /// widths minus rank().
  std::size_t rows_missing() const { return width_sum_ - rank(); }
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

  /// Run strips of the payload product until none is left to claim; a
  /// no-op until complete().  Thread-safe: any number of threads may call
  /// it at once, next to add() calls still in flight, but never next to
  /// reconstruct().
  void solve();

  /// The reconstructed file (original_bytes long).  Runs whatever strips
  /// no solve() claimed, then hands over the buffer the product wrote:
  /// call it once.  Precondition: complete(), and no add() or solve()
  /// still running.
  std::vector<std::byte> reconstruct();

 private:
  /// What a class contributes to every strip of the solve: the output
  /// chunks it computes, its sources by slot, and the prepared rows of T.
  struct Plan {
    std::vector<std::byte*> dst;
    std::vector<const std::byte*> src;
    std::optional<gf::RowBlock> block;
  };

  struct ClassState {
    ClassState(gf::FieldId field, std::size_t width, std::size_t chunk_bytes);
    std::mutex lock;  // guards the fields below while the class is incomplete
    // [w coefficients | w source weights]; at full rank the weight half of
    // the row pivoted on chunk i is row i of T.
    linalg::ProgressiveSolver solver;
    std::vector<std::byte> weight;  // scratch: the unit weight of one slot
    // Raw payload of each source slot; see the constructor.
    std::vector<std::unique_ptr<std::byte[]>> rows;
    std::vector<std::size_t> donated;  // per slot: the donated chunk, or kRaw
    std::size_t position = 0;          // index in the completion order
    // Set once, under `lock`, with release order.  From then on the class
    // takes no row, so the fields above may be read without the lock.
    std::atomic<bool> complete{false};
    std::once_flag planned;
    Plan plan;
  };

  /// Reduce one coefficient row of class `cls` with the unit weight of its
  /// next free slot, timed (plus the rank instruments); returns true when
  /// the row was innovative and so took that slot.  Caller holds the class
  /// lock; the class is incomplete.
  bool eliminate(std::size_t cls, const std::byte* coeffs);
  /// Eliminate one coded row into class `cls` under its lock, keep its
  /// payload when innovative, finish the classes that completes, and count
  /// the outcome.
  AddResult absorb(std::size_t cls, const std::byte* coeffs,
                   const std::byte* payload);
  /// Publish class `cls` complete and record its place in the completion
  /// order.  Caller holds the class lock.
  void mark_complete(std::size_t cls);
  /// Donate class `ready`'s overlap chunks to incomplete neighbours,
  /// breadth-first, flipping classes as they fill; then plan every class
  /// this call completed.  `ready` was completed by this thread, and no
  /// class lock is held on entry.
  void cascade(std::size_t ready);
  /// Build class `cls`'s Plan once, on whichever thread gets there first.
  void plan(std::size_t cls);
  /// The first add() makes the file buffer (claim_file), so its zero-fill
  /// and page faults land on a session thread during reception;
  /// make_file() makes it, once, or waits for the claimant to finish,
  /// before anything points into it.
  void claim_file();
  void make_file();
  /// Run the product of every class over strip `s`.
  void run_strip(std::size_t s);

  static constexpr std::size_t kRaw = static_cast<std::size_t>(-1);

  FileInfo info_;
  bool require_digests_;
  chunked::ClassMap map_;
  std::size_t width_sum_ = 0;  // rank() at completion
  std::size_t chunk_bytes_;
  std::size_t strips_;
  CoefficientGenerator coeffs_;  // sized to max class width
  std::deque<ClassState> classes_;  // a deque: ClassState cannot move
  std::mutex order_lock_;           // guards order_ and completed_
  std::vector<std::size_t> order_;  // classes in completion order
  std::size_t completed_ = 0;
  std::atomic<std::size_t> classes_complete_{0};
  std::atomic<std::size_t> rank_{0};
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> rejected_auth_{0};
  std::atomic<std::size_t> non_innovative_{0};
  std::vector<std::byte> file_;  // what the product writes, k chunks
  std::atomic<bool> file_claimed_{false};
  std::once_flag file_made_;
  std::atomic<std::size_t> next_strip_{0};
  obs::Gauge* rank_gauge_ = nullptr;  // null = metrics disabled
  obs::Histogram* eliminate_ns_ = nullptr;
  obs::Histogram* solve_ns_ = nullptr;
  std::vector<obs::Gauge*> class_rank_;  // empty unless chunked + metrics
  obs::Counter* classes_complete_total_ = nullptr;
};

}  // namespace fairshare::coding
