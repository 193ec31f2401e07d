#include "coding/chunked.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/rng.hpp"

namespace fairshare::coding::chunked {

// ---------------------------------------------------------------- ClassMap

ClassMap::ClassMap(const FileInfo& info)
    : k_(info.k), schedule_(info.schedule) {
  assert(k_ > 0 && "empty files cannot be encoded");
  assert((info.codec == CodecKind::dense || schedule_.valid()) &&
         "class_size >= 2 and overlap < class_size");

  if (info.codec == CodecKind::dense || k_ <= schedule_.class_size) {
    // One class covers everything: the dense codec's geometry, which a
    // chunked file this small degenerates to.  Its width is k itself,
    // never narrowed through the 32-bit class_size.
    stride_ = k_;
    widths_.assign(1, k_);
  } else {
    stride_ = schedule_.class_size - schedule_.overlap;
    const std::size_t n =
        (k_ - schedule_.class_size + stride_ - 1) / stride_ + 1;
    widths_.assign(n, schedule_.class_size);
    widths_[n - 1] = k_ - (n - 1) * stride_;
    // ceil() placement guarantees overlap < w_last <= class_size, so the
    // last class always has a positive quota below.
    assert(widths_[n - 1] > schedule_.overlap);
  }
  max_width_ = *std::max_element(widths_.begin(), widths_.end());

  // Quota-weighted schedule table: within every period of k ids, class c
  // appears q_c = w_c - overlap times (class 0 keeps its full width), and
  // sum q_c = sum w_c - (n-1)*overlap = k exactly.  Appearances are
  // interleaved earliest-deadline-first at fixed-point spacing k/q_c with
  // a seeded per-class phase, so the stream visits classes proportionally
  // instead of in bursts and different seeds de-correlate which ids
  // neighbouring files burn on which class.
  table_.assign(k_, 0);
  if (widths_.size() > 1) {
    struct Slot {
      std::uint64_t deadline;
      std::uint32_t cls;
    };
    std::vector<Slot> slots;
    slots.reserve(k_);
    constexpr std::uint64_t kScale = 1ull << 16;
    sim::SplitMix64 rng(schedule_.seed ^ 0x243F6A8885A308D3ull);
    for (std::size_t c = 0; c < widths_.size(); ++c) {
      const std::uint64_t quota = widths_[c] - (c > 0 ? schedule_.overlap : 0);
      const std::uint64_t step = k_ * kScale / quota;
      const std::uint64_t phase = rng.next() % step;
      for (std::uint64_t i = 0; i < quota; ++i)
        slots.push_back({phase + i * step, static_cast<std::uint32_t>(c)});
    }
    assert(slots.size() == k_);
    std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline
                                      : a.cls < b.cls;
    });
    for (std::size_t i = 0; i < slots.size(); ++i) table_[i] = slots[i].cls;
  }
}

std::vector<std::size_t> ClassMap::classes_containing(std::size_t j) const {
  assert(j < k_);
  std::vector<std::size_t> out;
  if (widths_.size() == 1) {
    out.push_back(0);
    return out;
  }
  // Smallest candidate: the first class whose full-width window could
  // still reach j; largest: the last class starting at or before j.  The
  // short last class is filtered by the explicit contains() check.
  const std::size_t lo =
      j < schedule_.class_size ? 0 : (j - schedule_.class_size) / stride_ + 1;
  const std::size_t hi = std::min(j / stride_, widths_.size() - 1);
  for (std::size_t c = lo; c <= hi; ++c)
    if (contains(c, j)) out.push_back(c);
  assert(!out.empty());
  return out;
}

// ----------------------------------------------------------------- Encoder

namespace {

// Work one thread takes on, in bytes of row-block product (outputs x
// inputs x message bytes) or, for the constructor, bytes read from the
// file.  A paper-default 1 MB generate(k) is exactly one grain
// (8 x 8 x 128 KiB), so it stays on the calling thread: starting threads
// for it costs more than it saves.
constexpr std::size_t kGrainBytes = std::size_t{8} << 20;

// Bytes of every output one product task covers: the decoder's solve
// strip (codec.cpp), so a 128 KiB message splits into 16 tasks per block.
constexpr std::size_t kStripBytes = 8192;

// Messages per digest task: one pass of the 16-lane md5_many tier.
constexpr std::size_t kDigestGroup = 16;

// One thread per grain of `work`, at most one per core.  The core count
// is read once: each read costs system calls.
std::size_t threads_for(std::size_t work) {
  static const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(work / kGrainBytes, 1, cores);
}

// Runs task(0) .. task(tasks - 1) on the calling thread and up to
// threads - 1 std::jthreads, each claiming the next index from one counter
// (as download_file's sessions claim solve() strips); returns once every
// task has run, rethrowing the first exception a task threw.  One thread
// runs the same loop inline.  Tasks must write disjoint data.
template <typename Task>
void run_tasks(std::size_t threads, std::size_t tasks, const Task& task) {
  std::atomic<std::size_t> next{0};
  std::mutex failure_lock;
  std::exception_ptr failure;
  const auto loop = [&] {
    try {
      for (std::size_t t; (t = next.fetch_add(1, std::memory_order_relaxed)) <
                          tasks;)
        task(t);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_lock);
      if (!failure) failure = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (std::size_t i = 1; i < std::min(threads, tasks); ++i)
      helpers.emplace_back(loop);
    loop();
  }
  if (failure) std::rethrow_exception(failure);
}

// The public half of FileInfo: everything but the content digest, which
// the constructor hashes beside the chunk layout, and the digest table,
// which grows as messages are generated.
FileInfo describe(std::uint64_t file_id, std::span<const std::byte> data,
                  const CodingParams& params, CodecKind codec,
                  const ChunkedSchedule& schedule) {
  FileInfo info;
  info.file_id = file_id;
  info.original_bytes = data.size();
  info.params = params;
  info.k = chunks_for_bytes(data.size(), params);
  info.codec = codec;
  info.schedule = schedule;
  return info;
}

}  // namespace

Encoder::Encoder(const SecretKey& secret, std::uint64_t file_id,
                 std::span<const std::byte> data, const CodingParams& params,
                 const ChunkedSchedule& schedule)
    : Encoder(secret, file_id, data, params, CodecKind::chunked, schedule) {}

Encoder::Encoder(const SecretKey& secret, std::uint64_t file_id,
                 std::span<const std::byte> data, const CodingParams& params,
                 CodecKind codec, const ChunkedSchedule& schedule)
    : info_(describe(file_id, data, params, codec, schedule)),
      map_(info_),
      chunk_bytes_(params.message_bytes()),
      coeffs_(secret, file_id, params, map_.max_width()) {
  assert((params.field != gf::FieldId::gf2_4 || params.m % 2 == 0) &&
         "GF(2^4) requires even m for byte-aligned chunks");

  // The packed wire representation is plain little-endian bytes, so the
  // chunk layout is a copy + pad into the storage reserved here.  It and
  // the content digest each pass over the file once; past one grain of
  // file the two run side by side.
  chunks_.reserve(map_.k() * chunk_bytes_);
  run_tasks(threads_for(2 * data.size()), 2, [&](std::size_t t) {
    if (t == 0) {
      info_.content_digest = crypto::Md5::hash(data);
    } else {
      chunks_.assign(data.begin(), data.end());
      chunks_.resize(map_.k() * chunk_bytes_);
    }
  });

  batch_rank_.reserve(map_.classes());
  for (std::size_t c = 0; c < map_.classes(); ++c)
    batch_rank_.emplace_back(params.field, map_.width(c), 0);
}

EncodedMessage Encoder::next_message() {
  return std::move(generate(1).front());
}

std::vector<EncodedMessage> Encoder::generate(std::size_t count) {
  const CodingParams& params = info_.params;
  const auto& f = gf::field_view(params.field);
  std::vector<EncodedMessage> out(count);
  std::vector<std::vector<std::byte>> rows(count);  // packed, class width
  std::vector<std::vector<std::size_t>> by_class(map_.classes());
  std::size_t work = 0;  // bytes of row-block product
  // Screening fixes the id sequence, the wire contract, so it runs in order
  // on this thread; so does every payload's allocation.
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t cls;
    for (;;) {
      const std::uint64_t candidate = next_id_++;
      cls = map_.class_of(candidate);
      const std::size_t w = map_.width(cls);
      rows[i] = coeffs_.row(candidate, w);
      if (!batch_rank_[cls].add_row(rows[i].data(), nullptr))
        continue;  // dependent; skip id
      if (batch_rank_[cls].complete())
        batch_rank_[cls] = linalg::ProgressiveSolver(params.field, w, 0);
      out[i].message_id = candidate;
      break;
    }
    out[i].file_id = info_.file_id;
    out[i].payload.reserve(chunk_bytes_);
    by_class[cls].push_back(i);
    work += map_.width(cls) * chunk_bytes_;
  }

  // The payload work runs on one thread per grain.  Every task writes its
  // own bytes with the same kernels, so the output is the same for any
  // thread count.
  const std::size_t threads = threads_for(work);
  run_tasks(threads, count, [&](std::size_t i) {
    out[i].payload.resize(chunk_bytes_);
  });

  // Y = B X per class: the class's chunks are the sources of a row-block
  // product whose outputs are its new messages, cut into blocks small
  // enough to prepare every scalar.
  struct Block {
    std::span<const std::byte* const> src;  // the class's chunks
    std::vector<const std::byte*> coeffs;
    std::vector<std::byte*> dst;
    std::optional<gf::RowBlock> prepared;
    std::size_t scalars() const { return dst.size() * src.size(); }
  };
  std::vector<std::vector<const std::byte*>> sources(map_.classes());
  std::vector<Block> blocks;
  for (std::size_t cls = 0; cls < map_.classes(); ++cls) {
    const std::size_t w = map_.width(cls);
    const std::vector<std::size_t>& members = by_class[cls];
    if (members.empty()) continue;
    for (std::size_t j = 0; j < w; ++j)
      sources[cls].push_back(chunks_.data() +
                             (map_.start(cls) + j) * chunk_bytes_);
    const std::size_t per_block = std::max<std::size_t>(
        1, gf::RowBlock::kMaxPrepared / w);
    for (std::size_t first = 0; first < members.size(); first += per_block) {
      Block& b = blocks.emplace_back();
      b.src = sources[cls];
      for (std::size_t n = first;
           n < std::min(members.size(), first + per_block); ++n) {
        b.coeffs.push_back(rows[members[n]].data());
        b.dst.push_back(out[members[n]].payload.data());
      }
    }
  }
  // Blocks are prepared a wave at a time, at most one block's worth of
  // scalars per thread, so a dense class as wide as k = 8192 still never
  // holds k^2 prepared scalars.  Within a wave, the product runs as
  // (block, strip) tasks.
  const std::size_t wave_scalars = threads * gf::RowBlock::kMaxPrepared;
  const std::size_t strips = (chunk_bytes_ + kStripBytes - 1) / kStripBytes;
  for (std::size_t first = 0; first < blocks.size();) {
    std::size_t last = first + 1;
    std::size_t scalars = blocks[first].scalars();
    while (last < blocks.size() &&
           scalars + blocks[last].scalars() <= wave_scalars)
      scalars += blocks[last++].scalars();
    run_tasks(threads, last - first, [&](std::size_t t) {
      Block& b = blocks[first + t];
      b.prepared.emplace(f, std::move(b.coeffs), b.src.size());
    });
    run_tasks(threads, (last - first) * strips, [&](std::size_t t) {
      const Block& b = blocks[first + t / strips];
      const std::size_t begin = t % strips * kStripBytes;
      f.row_block_product(*b.prepared, b.dst.data(), b.src.data(), begin,
                          std::min(begin + kStripBytes, chunk_bytes_));
    });
    for (; first < last; ++first) blocks[first].prepared.reset();
  }

  // The owner's digest table: the batch in multi-lane MD5 passes.
  std::vector<crypto::Md5Digest> digests(count);
  run_tasks(threads, (count + kDigestGroup - 1) / kDigestGroup,
            [&](std::size_t t) {
              const std::size_t first = t * kDigestGroup;
              const std::size_t last = std::min(count, first + kDigestGroup);
              std::vector<EncodedMessageView> views;
              for (std::size_t i = first; i < last; ++i)
                views.push_back(out[i].view());
              const std::vector<crypto::Md5Digest> group = digest_many(views);
              std::copy(group.begin(), group.end(), digests.begin() + first);
            });
  for (std::size_t i = 0; i < count; ++i)
    info_.message_digests.emplace(out[i].message_id, digests[i]);
  generated_ += count;
  return out;
}

// ---------------------------------------------------------------- Recoding

RecodedMessage recode_class_local(const ClassMap& map, std::size_t cls,
                                  std::span<const EncodedMessage> stored,
                                  const CodingParams& params,
                                  sim::SplitMix64& rng) {
  assert(!stored.empty());
  const auto& f = gf::field_view(params.field);

  RecodedMessage out;
  out.file_id = stored.front().file_id;
  out.payload.assign(params.message_bytes(), std::byte{0});
  for (const EncodedMessage& msg : stored) {
    assert(msg.file_id == out.file_id);
    if (map.class_of(msg.message_id) != cls) continue;
    assert(msg.payload.size() == params.message_bytes());
    std::uint64_t alpha = 0;
    while (alpha == 0) alpha = rng.next() & (f.order - 1);
    out.combination.emplace_back(msg.message_id, alpha);
    f.axpy(out.payload.data(), msg.payload.data(), alpha, params.m);
  }
  assert(!out.combination.empty() &&
         "no stored message belongs to the requested class");
  return out;
}

}  // namespace fairshare::coding::chunked
