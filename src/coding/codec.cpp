#include "coding/codec.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace fairshare::coding {

std::vector<AddResult> authenticate(
    const FileInfo& info, bool require_digests,
    std::span<const EncodedMessageView> messages) {
  std::vector<AddResult> out(messages.size(), AddResult::accepted);
  // The messages with a digest on file, where they sit in the batch, and
  // the digest each must match.
  std::vector<EncodedMessageView> hashed;
  std::vector<std::size_t> at;
  std::vector<const crypto::Md5Digest*> expected;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const EncodedMessageView& m = messages[i];
    if (m.file_id != info.file_id) {
      out[i] = AddResult::wrong_file;
    } else if (m.payload.size() != info.params.message_bytes()) {
      out[i] = AddResult::bad_size;
    } else if (const auto it = info.message_digests.find(m.message_id);
               it != info.message_digests.end()) {
      hashed.push_back(m);
      at.push_back(i);
      expected.push_back(&it->second);
    } else if (require_digests) {
      out[i] = AddResult::bad_digest;
    }
  }
  const std::vector<crypto::Md5Digest> digests = digest_many(hashed);
  for (std::size_t j = 0; j < hashed.size(); ++j)
    if (digests[j] != *expected[j]) out[at[j]] = AddResult::bad_digest;
  return out;
}

namespace {

// Bytes of payload one strip of the solve covers: every class's sources for
// one strip (64 x 8 KiB for a 64-wide class) stay in a core's L2, and a
// 128 KiB message splits into 16 strips for the session threads to share.
constexpr std::size_t kStripBytes = 8192;

}  // namespace

CodecDecoder::ClassState::ClassState(gf::FieldId field, std::size_t width,
                                     std::size_t chunk_bytes)
    : solver(field, width, width),
      weight(gf::field_view(field).row_bytes(width)),
      rows(width),
      donated(width, kRaw) {
  // Allocated with the decoder but never zero-filled: a slot's pages fault
  // when a session copies its row in, and donated slots are never touched.
  for (auto& slot : rows)
    slot = std::make_unique_for_overwrite<std::byte[]>(chunk_bytes);
}

CodecDecoder::CodecDecoder(const SecretKey& secret, const FileInfo& info,
                           bool require_digests)
    : info_(info),
      require_digests_(require_digests),
      map_(info),
      chunk_bytes_(info.params.message_bytes()),
      strips_((chunk_bytes_ + kStripBytes - 1) / kStripBytes),
      coeffs_(secret, info.file_id, info.params, map_.max_width()),
      order_(map_.classes()) {
  for (std::size_t c = 0; c < map_.classes(); ++c) {
    classes_.emplace_back(info.params.field, map_.width(c), chunk_bytes_);
    width_sum_ += map_.width(c);
  }
}

bool CodecDecoder::eliminate(std::size_t cls, const std::byte* coeffs) {
  ClassState& st = classes_[cls];
  const auto& f = gf::field_view(info_.params.field);
  const std::size_t slot = st.solver.rank();
  f.set(st.weight.data(), slot, 1);
  const std::uint64_t t0 = eliminate_ns_ ? obs::monotonic_ns() : 0;
  const bool innovative = st.solver.add_row(coeffs, st.weight.data());
  if (eliminate_ns_) eliminate_ns_->record(obs::monotonic_ns() - t0);
  f.set(st.weight.data(), slot, 0);
  if (innovative) rank_.fetch_add(1, std::memory_order_relaxed);
  if (eliminate_ns_) {
    // Increments, not a set of rank(): a set from a thread that read the
    // total just before a sibling's increment would leave it stale.
    if (innovative) rank_gauge_->add(1);
    if (!class_rank_.empty())
      class_rank_[cls]->set(static_cast<double>(st.solver.rank()));
  }
  return innovative;
}

void CodecDecoder::mark_complete(std::size_t cls) {
  ClassState& st = classes_[cls];
  assert(!st.complete.load(std::memory_order_relaxed));
  st.complete.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(order_lock_);
    st.position = completed_;
    order_[completed_++] = cls;
  }
  // Release: whoever reads the final count sees every order_ entry.
  classes_complete_.fetch_add(1, std::memory_order_acq_rel);
  if (classes_complete_total_) classes_complete_total_->add(1);
}

void CodecDecoder::cascade(std::size_t ready) {
  const auto& f = gf::field_view(info_.params.field);
  std::vector<std::size_t> completed{ready};
  for (std::size_t next = 0; next < completed.size(); ++next) {
    const std::size_t c = completed[next];
    const std::size_t c_start = map_.start(c);
    const std::size_t c_end = c_start + map_.width(c);
    // Windows are sorted by start and end, so the classes overlapping c are
    // the contiguous run from the first holding c's first chunk to the last
    // holding its last chunk.
    const std::size_t lo = map_.classes_containing(c_start).front();
    const std::size_t hi = map_.classes_containing(c_end - 1).back();
    for (std::size_t d = lo; d <= hi; ++d) {
      ClassState& to = classes_[d];
      if (d == c || to.complete.load(std::memory_order_acquire)) continue;
      const std::size_t d_start = map_.start(d);
      const std::size_t d_end = d_start + map_.width(d);
      std::vector<std::byte> unit(f.row_bytes(map_.width(d)));
      std::lock_guard<std::mutex> lock(to.lock);
      if (to.complete.load(std::memory_order_relaxed)) continue;
      // Donate chunk j as the unit row e_{j - start(d)}: its source is
      // chunk j of the output, which c (or a class before it) computes.
      for (std::size_t j = std::max(c_start, d_start);
           j < std::min(c_end, d_end) && !to.solver.complete(); ++j) {
        f.set(unit.data(), j - d_start, 1);
        const std::size_t slot = to.solver.rank();
        if (eliminate(d, unit.data())) to.donated[slot] = j;
        f.set(unit.data(), j - d_start, 0);
      }
      if (to.solver.complete()) {
        mark_complete(d);
        completed.push_back(d);
      }
    }
  }
  // Planning prepares every scalar of a class; it runs after the cascade,
  // so neighbours complete (and sessions may stop) without waiting on it.
  for (const std::size_t c : completed) plan(c);
}

void CodecDecoder::claim_file() {
  if (file_claimed_.load(std::memory_order_relaxed) ||
      file_claimed_.exchange(true, std::memory_order_relaxed))
    return;
  make_file();
}

void CodecDecoder::make_file() {
  std::call_once(file_made_, [this] { file_.resize(map_.k() * chunk_bytes_); });
}

void CodecDecoder::plan(std::size_t cls) {
  ClassState& st = classes_[cls];
  std::call_once(st.planned, [&] {
    assert(st.complete.load(std::memory_order_acquire));
    make_file();
    std::vector<std::size_t> earlier;
    {
      std::lock_guard<std::mutex> lock(order_lock_);
      earlier.assign(order_.begin(), order_.begin() + st.position);
    }
    const std::size_t start = map_.start(cls);
    const std::size_t w = map_.width(cls);
    Plan& p = st.plan;
    std::vector<const std::byte*> t_rows;
    for (std::size_t j = start; j < start + w; ++j) {
      const bool computed = std::any_of(
          earlier.begin(), earlier.end(),
          [&](std::size_t e) { return map_.contains(e, j); });
      if (computed) continue;
      p.dst.push_back(file_.data() + j * chunk_bytes_);
      t_rows.push_back(st.solver.chunk(j - start));
    }
    for (std::size_t slot = 0; slot < w; ++slot)
      p.src.push_back(st.donated[slot] == kRaw
                          ? st.rows[slot].get()
                          : file_.data() + st.donated[slot] * chunk_bytes_);
    p.block.emplace(gf::field_view(info_.params.field), std::move(t_rows), w);
  });
}

void CodecDecoder::run_strip(std::size_t s) {
  const auto& f = gf::field_view(info_.params.field);
  const std::uint64_t t0 = solve_ns_ ? obs::monotonic_ns() : 0;
  const std::size_t begin = s * kStripBytes;
  const std::size_t end = std::min(begin + kStripBytes, chunk_bytes_);
  for (const std::size_t c : order_) {
    plan(c);
    const Plan& p = classes_[c].plan;
    if (!p.dst.empty())
      f.row_block_product(*p.block, p.dst.data(), p.src.data(), begin, end);
  }
  if (solve_ns_) solve_ns_->record(obs::monotonic_ns() - t0);
}

void CodecDecoder::solve() {
  if (!complete()) return;
  for (;;) {
    const std::size_t s = next_strip_.fetch_add(1, std::memory_order_relaxed);
    if (s >= strips_) return;
    run_strip(s);
  }
}

AddResult CodecDecoder::absorb(std::size_t cls, const std::byte* coeffs,
                               const std::byte* payload) {
  ClassState& st = classes_[cls];
  bool innovative = false;
  bool completed = false;
  {
    std::lock_guard<std::mutex> lock(st.lock);
    // A sibling may have completed the class since the caller looked.
    if (!st.complete.load(std::memory_order_relaxed)) {
      const std::size_t slot = st.solver.rank();
      innovative = eliminate(cls, coeffs);
      if (innovative) std::memcpy(st.rows[slot].get(), payload, chunk_bytes_);
      completed = st.solver.complete();
      if (completed) mark_complete(cls);
    }
  }
  if (completed) cascade(cls);
  if (!innovative) {
    non_innovative_.fetch_add(1, std::memory_order_relaxed);
    return AddResult::non_innovative;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return AddResult::accepted;
}

std::vector<AddResult> CodecDecoder::add(
    std::span<const EncodedMessageView> batch) {
  std::vector<AddResult> out(batch.size(), AddResult::already_complete);
  if (complete()) return out;
  claim_file();
  const std::vector<AddResult> verdicts =
      authenticate(info_, require_digests_, batch);
  for (std::size_t i = 0; i < batch.size() && !complete(); ++i) {
    out[i] = verdicts[i];
    if (verdicts[i] == AddResult::bad_digest)
      rejected_auth_.fetch_add(1, std::memory_order_relaxed);
    if (verdicts[i] != AddResult::accepted) continue;

    const EncodedMessageView& message = batch[i];
    const std::size_t cls = map_.class_of(message.message_id);
    if (classes_[cls].complete.load(std::memory_order_acquire)) {
      non_innovative_.fetch_add(1, std::memory_order_relaxed);
      out[i] = AddResult::non_innovative;
      continue;
    }
    const std::vector<std::byte> row =
        coeffs_.row(message.message_id, map_.width(cls));
    out[i] = absorb(cls, row.data(), message.payload.data());
  }
  return out;
}

AddResult CodecDecoder::add(const EncodedMessage& message) {
  const EncodedMessageView view = message.view();
  return add(std::span(&view, 1)).front();
}

AddResult CodecDecoder::add_recoded(const RecodedMessage& message) {
  if (complete()) return AddResult::already_complete;
  claim_file();
  if (message.file_id != info_.file_id) return AddResult::wrong_file;
  if (message.payload.size() != info_.params.message_bytes())
    return AddResult::bad_size;
  if (message.combination.empty()) {
    rejected_auth_.fetch_add(1, std::memory_order_relaxed);
    return AddResult::bad_digest;
  }
  const std::size_t cls = map_.class_of(message.combination.front().first);
  for (const auto& [mid, alpha] : message.combination) {
    (void)alpha;
    if (map_.class_of(mid) != cls) {  // cross-class: malformed
      rejected_auth_.fetch_add(1, std::memory_order_relaxed);
      return AddResult::bad_digest;
    }
  }
  if (classes_[cls].complete.load(std::memory_order_acquire)) {
    non_innovative_.fetch_add(1, std::memory_order_relaxed);
    return AddResult::non_innovative;
  }

  // Effective row: sum_i alpha_i * beta_{id_i} over the class window
  // (addition in GF(2^p) is xor).  Only the secret holder can expand it.
  const auto& f = gf::field_view(info_.params.field);
  const std::size_t w = map_.width(cls);
  std::vector<std::byte> row(f.row_bytes(w));
  for (const auto& [mid, alpha] : message.combination)
    f.axpy(row.data(), coeffs_.row(mid, w).data(), alpha, w);
  return absorb(cls, row.data(), message.payload.data());
}

void CodecDecoder::enable_metrics(obs::MetricsRegistry& registry,
                                  std::uint64_t user_id) {
  const std::string file = std::to_string(info_.file_id);
  const std::string user = std::to_string(user_id);
  const obs::LabelList labels = {
      {"file", file}, {"user", user}, {"codec", to_string(info_.codec)}};
  rank_gauge_ = &registry.gauge("fairshare_decoder_rank", labels);
  eliminate_ns_ =
      &registry.histogram("fairshare_decoder_eliminate_ns", labels);
  solve_ns_ = &registry.histogram("fairshare_decoder_solve_ns", labels);
  rank_gauge_->set(static_cast<double>(rank()));
  if (info_.codec != CodecKind::chunked) return;

  classes_complete_total_ = &registry.counter(
      "fairshare_chunked_classes_complete_total", {{"file", file},
                                                   {"user", user}});
  classes_complete_total_->add(classes_complete());
  class_rank_.resize(map_.classes());
  for (std::size_t c = 0; c < map_.classes(); ++c) {
    class_rank_[c] = &registry.gauge(
        "fairshare_chunked_class_rank",
        {{"file", file}, {"user", user}, {"class", std::to_string(c)}});
    class_rank_[c]->set(static_cast<double>(classes_[c].solver.rank()));
  }
}

std::vector<std::byte> CodecDecoder::reconstruct() {
  assert(complete());
  solve();
  file_.resize(info_.original_bytes);
  return std::move(file_);
}

}  // namespace fairshare::coding
