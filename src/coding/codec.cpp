#include "coding/codec.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "obs/trace.hpp"

namespace fairshare::coding {

AddResult authenticate(const FileInfo& info, bool require_digests,
                       const EncodedMessage& message) {
  if (message.file_id != info.file_id) return AddResult::wrong_file;
  if (message.payload.size() != info.params.message_bytes())
    return AddResult::bad_size;
  const auto it = info.message_digests.find(message.message_id);
  if (it == info.message_digests.end())
    return require_digests ? AddResult::bad_digest : AddResult::accepted;
  return message.digest() == it->second ? AddResult::accepted
                                        : AddResult::bad_digest;
}

CodecDecoder::CodecDecoder(const SecretKey& secret, const FileInfo& info,
                           bool require_digests)
    : info_(info),
      require_digests_(require_digests),
      map_(info),
      coeffs_(secret, info.file_id, info.params, map_.max_width()) {
  for (std::size_t c = 0; c < map_.classes(); ++c)
    classes_.emplace_back(info.params.field, map_.width(c), info.params.m);
}

bool CodecDecoder::eliminate(std::size_t cls, const std::byte* coeffs,
                             const std::byte* payload) {
  ClassState& st = classes_[cls];
  const std::uint64_t t0 = eliminate_ns_ ? obs::monotonic_ns() : 0;
  const bool innovative = st.solver.add_row(coeffs, payload);
  if (innovative) rank_.fetch_add(1, std::memory_order_relaxed);
  if (eliminate_ns_) {
    eliminate_ns_->record(obs::monotonic_ns() - t0);
    // Increments, not a set of rank(): a set from a thread that read the
    // total just before a sibling's increment would leave it stale.
    if (innovative) rank_gauge_->add(1);
    if (!class_rank_.empty())
      class_rank_[cls]->set(static_cast<double>(st.solver.rank()));
  }
  return innovative;
}

void CodecDecoder::mark_complete(std::size_t cls) {
  assert(!classes_[cls].complete.load(std::memory_order_relaxed));
  classes_[cls].complete.store(true, std::memory_order_release);
  classes_complete_.fetch_add(1, std::memory_order_acq_rel);
  if (classes_complete_total_) classes_complete_total_->add(1);
}

void CodecDecoder::cascade(std::size_t ready) {
  const auto& f = gf::field_view(info_.params.field);
  std::deque<std::size_t> queue{ready};
  while (!queue.empty()) {
    const std::size_t c = queue.front();
    queue.pop_front();
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
      // Donate chunk j as the unit row e_{j - start(d)}.  c's chunks are
      // read without c's lock: a complete class never takes another row.
      for (std::size_t j = std::max(c_start, d_start);
           j < std::min(c_end, d_end) && !to.solver.complete(); ++j) {
        f.set(unit.data(), j - d_start, 1);
        eliminate(d, unit.data(), classes_[c].solver.chunk(j - c_start));
        f.set(unit.data(), j - d_start, 0);
      }
      if (to.solver.complete()) {
        mark_complete(d);
        queue.push_back(d);
      }
    }
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
      innovative = eliminate(cls, coeffs, payload);
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

AddResult CodecDecoder::add(const EncodedMessage& message) {
  if (complete()) return AddResult::already_complete;
  const AddResult verdict = authenticate(info_, require_digests_, message);
  if (verdict == AddResult::bad_digest)
    rejected_auth_.fetch_add(1, std::memory_order_relaxed);
  if (verdict != AddResult::accepted) return verdict;

  const std::size_t cls = map_.class_of(message.message_id);
  if (classes_[cls].complete.load(std::memory_order_acquire)) {
    non_innovative_.fetch_add(1, std::memory_order_relaxed);
    return AddResult::non_innovative;
  }
  const std::vector<std::byte> row =
      coeffs_.row(message.message_id, map_.width(cls));
  return absorb(cls, row.data(), message.payload.data());
}

AddResult CodecDecoder::add_recoded(const RecodedMessage& message) {
  if (complete()) return AddResult::already_complete;
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

std::vector<std::byte> CodecDecoder::reconstruct() const {
  assert(complete());
  const std::size_t chunk_bytes = info_.params.message_bytes();
  std::vector<std::byte> out(map_.k() * chunk_bytes);
  // Every class is complete, so overlap chunks are written more than once
  // with identical bytes; walking classes avoids a per-chunk class lookup.
  for (std::size_t c = 0; c < map_.classes(); ++c) {
    const std::size_t start = map_.start(c);
    for (std::size_t j = 0; j < map_.width(c); ++j)
      std::memcpy(out.data() + (start + j) * chunk_bytes,
                  classes_[c].solver.chunk(j), chunk_bytes);
  }
  out.resize(info_.original_bytes);
  return out;
}

}  // namespace fairshare::coding
