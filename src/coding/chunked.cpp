#include "coding/chunked.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

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

// The public half of FileInfo: everything but the digest table, which
// grows as messages are generated.
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
  info.content_digest = crypto::Md5::hash(data);
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
  // chunk layout is a copy + pad.
  chunks_.assign(map_.k() * chunk_bytes_, std::byte{0});
  std::memcpy(chunks_.data(), data.data(), data.size());

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
    out[i].payload.resize(chunk_bytes_);
    by_class[cls].push_back(i);
  }

  // Y = B X per class: the class's chunks are the sources of one row-block
  // product whose outputs are its new messages, cut into blocks small
  // enough to prepare every scalar.
  for (std::size_t cls = 0; cls < map_.classes(); ++cls) {
    const std::size_t w = map_.width(cls);
    std::vector<const std::byte*> src(w);
    for (std::size_t j = 0; j < w; ++j)
      src[j] = chunks_.data() + (map_.start(cls) + j) * chunk_bytes_;
    const std::vector<std::size_t>& members = by_class[cls];
    const std::size_t per_block = std::max<std::size_t>(
        1, gf::RowBlock::kMaxPrepared / w);
    for (std::size_t first = 0; first < members.size(); first += per_block) {
      const std::size_t last = std::min(members.size(), first + per_block);
      std::vector<const std::byte*> coeffs;
      std::vector<std::byte*> dst;
      for (std::size_t n = first; n < last; ++n) {
        coeffs.push_back(rows[members[n]].data());
        dst.push_back(out[members[n]].payload.data());
      }
      const gf::RowBlock block(f, std::move(coeffs), w);
      f.row_block_product(block, dst.data(), src.data(), 0, chunk_bytes_);
    }
  }

  // The owner's digest table: the whole batch in one multi-lane MD5 pass.
  std::vector<EncodedMessageView> views;
  views.reserve(count);
  for (const EncodedMessage& msg : out) views.push_back(msg.view());
  const std::vector<crypto::Md5Digest> digests = digest_many(views);
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
