#include "storage/agg_columns.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/simd.h"

#if CHUNKCACHE_SIMD_X86_64
#include <immintrin.h>
#endif

namespace chunkcache::storage {

#if CHUNKCACHE_SIMD_X86_64

namespace {

/// 8-row in-selection mask: bit r is set iff row i+r lies inside every
/// dimension's ordinal range. Unsigned range checks via max/min-compare
/// (x >= lo  <=>  max(x, lo) == x), AND-combined across dimensions.
__attribute__((target("avx2"))) inline uint32_t KeepMask8Avx2(
    const uint32_t* const* cols, const schema::OrdinalRange* sel, uint32_t nd,
    size_t i) {
  __m256i keep = _mm256_set1_epi32(-1);
  for (uint32_t d = 0; d < nd; ++d) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cols[d] + i));
    const __m256i lo = _mm256_set1_epi32(static_cast<int>(sel[d].begin));
    const __m256i hi = _mm256_set1_epi32(static_cast<int>(sel[d].end));
    const __m256i ge = _mm256_cmpeq_epi32(_mm256_max_epu32(x, lo), x);
    const __m256i le = _mm256_cmpeq_epi32(_mm256_min_epu32(x, hi), x);
    keep = _mm256_and_si256(keep, _mm256_and_si256(ge, le));
  }
  return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(keep)));
}

}  // namespace

#endif  // CHUNKCACHE_SIMD_X86_64

void AggColumns::Reserve(size_t n) {
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].reserve(n);
  sum_.reserve(n);
  count_.reserve(n);
  min_.reserve(n);
  max_.reserve(n);
}

void AggColumns::Reset(uint32_t num_dims) {
  CHUNKCACHE_DCHECK(num_dims <= kMaxDims);
  for (auto& c : coords_) c.clear();
  num_dims_ = num_dims;
  sum_.clear();
  count_.clear();
  min_.clear();
  max_.clear();
}

void AggColumns::PushRow(const AggTuple& row) {
  for (uint32_t d = 0; d < num_dims_; ++d) {
    coords_[d].push_back(row.coords[d]);
  }
  sum_.push_back(row.sum);
  count_.push_back(row.count);
  min_.push_back(row.min_v);
  max_.push_back(row.max_v);
}

void AggColumns::PushCell(const uint32_t* coords, double sum, uint64_t count,
                          double min_v, double max_v) {
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].push_back(coords[d]);
  sum_.push_back(sum);
  count_.push_back(count);
  min_.push_back(min_v);
  max_.push_back(max_v);
}

AggTuple AggColumns::RowAt(size_t i) const {
  CHUNKCACHE_DCHECK(i < size());
  AggTuple row;
  for (uint32_t d = 0; d < num_dims_; ++d) row.coords[d] = coords_[d][i];
  row.sum = sum_[i];
  row.count = count_[i];
  row.min_v = min_[i];
  row.max_v = max_[i];
  return row;
}

void AggColumns::AppendToRows(std::vector<AggTuple>* out) const {
  const size_t base = out->size();
  out->resize(base + size());
  for (size_t i = 0; i < size(); ++i) {
    AggTuple& row = (*out)[base + i];
    for (uint32_t d = 0; d < num_dims_; ++d) row.coords[d] = coords_[d][i];
    row.sum = sum_[i];
    row.count = count_[i];
    row.min_v = min_[i];
    row.max_v = max_[i];
  }
}

std::vector<AggTuple> AggColumns::ToRows() const {
  std::vector<AggTuple> rows;
  rows.reserve(size());
  AppendToRows(&rows);
  return rows;
}

AggColumns AggColumns::FromRows(const std::vector<AggTuple>& rows,
                                uint32_t num_dims) {
  AggColumns cols(num_dims);
  cols.Reserve(rows.size());
  for (const AggTuple& row : rows) cols.PushRow(row);
  return cols;
}

uint64_t AggColumns::ByteSize() const {
  uint64_t bytes = sizeof(AggColumns);
  for (uint32_t d = 0; d < num_dims_; ++d) {
    bytes += coords_[d].capacity() * sizeof(uint32_t);
  }
  bytes += sum_.capacity() * sizeof(double);
  bytes += count_.capacity() * sizeof(uint64_t);
  bytes += min_.capacity() * sizeof(double);
  bytes += max_.capacity() * sizeof(double);
  return bytes;
}

void AggColumns::ShrinkToFit() {
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].shrink_to_fit();
  sum_.shrink_to_fit();
  count_.shrink_to_fit();
  min_.shrink_to_fit();
  max_.shrink_to_fit();
}

void AggColumns::SortRowMajor() {
  const size_t n = size();
  if (n < 2) return;
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (uint32_t d = 0; d < num_dims_; ++d) {
      if (coords_[d][a] != coords_[d][b]) {
        return coords_[d][a] < coords_[d][b];
      }
    }
    return false;
  });
  const auto apply = [&](auto& col) {
    using Col = std::remove_reference_t<decltype(col)>;
    Col next(n);
    for (size_t i = 0; i < n; ++i) next[i] = col[perm[i]];
    col = std::move(next);
  };
  for (uint32_t d = 0; d < num_dims_; ++d) apply(coords_[d]);
  apply(sum_);
  apply(count_);
  apply(min_);
  apply(max_);
}

void AggColumns::FilterToSelection(
    const std::array<schema::OrdinalRange, kMaxDims>& sel) {
  size_t kept = 0;
  const size_t n = size();
  size_t i = 0;
#if CHUNKCACHE_SIMD_X86_64
  // Vectorized mask-and-compact: the kept set and its order are exactly
  // the scalar loop's, so the result is bit-identical either way. The
  // all-keep (boundary chunks mostly inside the selection) and none-keep
  // masks skip per-row work entirely.
  if (simd::ActiveLevel() == simd::IsaLevel::kAvx2) {
    const uint32_t* cols[kMaxDims];
    for (uint32_t d = 0; d < num_dims_; ++d) cols[d] = coords_[d].data();
    for (; i + 8 <= n; i += 8) {
      const uint32_t m = KeepMask8Avx2(cols, sel.data(), num_dims_, i);
      if (m == 0xFFu) {
        if (kept != i) {
          for (uint32_t d = 0; d < num_dims_; ++d) {
            std::memmove(&coords_[d][kept], &coords_[d][i], 8 * 4);
          }
          std::memmove(&sum_[kept], &sum_[i], 8 * 8);
          std::memmove(&count_[kept], &count_[i], 8 * 8);
          std::memmove(&min_[kept], &min_[i], 8 * 8);
          std::memmove(&max_[kept], &max_[i], 8 * 8);
        }
        kept += 8;
      } else if (m != 0) {
        for (uint32_t r = 0; r < 8; ++r) {
          if (((m >> r) & 1) == 0) continue;
          const size_t j = i + r;
          if (kept != j) {
            for (uint32_t d = 0; d < num_dims_; ++d) {
              coords_[d][kept] = coords_[d][j];
            }
            sum_[kept] = sum_[j];
            count_[kept] = count_[j];
            min_[kept] = min_[j];
            max_[kept] = max_[j];
          }
          ++kept;
        }
      }
    }
  }
#endif
  for (; i < n; ++i) {
    bool in = true;
    for (uint32_t d = 0; d < num_dims_; ++d) {
      if (!sel[d].Contains(coords_[d][i])) {
        in = false;
        break;
      }
    }
    if (!in) continue;
    if (kept != i) {
      for (uint32_t d = 0; d < num_dims_; ++d) {
        coords_[d][kept] = coords_[d][i];
      }
      sum_[kept] = sum_[i];
      count_[kept] = count_[i];
      min_[kept] = min_[i];
      max_[kept] = max_[i];
    }
    ++kept;
  }
  for (uint32_t d = 0; d < num_dims_; ++d) coords_[d].resize(kept);
  sum_.resize(kept);
  count_.resize(kept);
  min_.resize(kept);
  max_.resize(kept);
  // A boundary filter can drop most of a chunk's rows, but resize() keeps
  // the old allocations, so ByteSize() would keep billing the cache for
  // the pre-filter footprint. Reallocate when at least a third of the
  // slots (and a non-trivial number of bytes) would otherwise be dead.
  const size_t row_bytes = num_dims_ * sizeof(uint32_t) + 32;
  const size_t wasted = sum_.capacity() - kept;
  if (wasted > kept / 2 && wasted * row_bytes >= 1024) ShrinkToFit();
}

namespace {

template <typename T>
void AppendBytes(std::vector<uint8_t>* out, const T* data, size_t n) {
  if (n == 0) return;  // empty vectors may hand us data() == nullptr
  const size_t at = out->size();
  out->resize(at + n * sizeof(T));
  std::memcpy(out->data() + at, data, n * sizeof(T));
}

template <typename T>
bool ReadBytes(const uint8_t*& p, const uint8_t* end, T* data, size_t n) {
  if (static_cast<size_t>(end - p) < n * sizeof(T)) return false;
  if (n == 0) return true;
  std::memcpy(data, p, n * sizeof(T));
  p += n * sizeof(T);
  return true;
}

}  // namespace

void AggColumns::SerializeTo(std::vector<uint8_t>* out) const {
  const uint64_t header[2] = {num_dims_, size()};
  AppendBytes(out, header, 2);
  for (uint32_t d = 0; d < num_dims_; ++d) {
    AppendBytes(out, coords_[d].data(), coords_[d].size());
  }
  AppendBytes(out, sum_.data(), sum_.size());
  AppendBytes(out, count_.data(), count_.size());
  AppendBytes(out, min_.data(), min_.size());
  AppendBytes(out, max_.data(), max_.size());
}

Result<AggColumns> AggColumns::Deserialize(const uint8_t* data, size_t len) {
  const uint8_t* p = data;
  const uint8_t* end = data + len;
  uint64_t header[2];
  if (!ReadBytes(p, end, header, 2)) {
    return Status::Corruption("AggColumns: truncated header");
  }
  if (header[0] > kMaxDims) {
    return Status::Corruption("AggColumns: bad dimension count");
  }
  // Validate the claimed row count against the bytes actually present
  // BEFORE sizing any column: a corrupt header must never drive a huge
  // allocation or a partial read past the buffer.
  const uint64_t row_bytes = header[0] * 4 + 32;
  if (header[1] > (len - 16) / row_bytes) {
    return Status::Corruption("AggColumns: row count beyond input size");
  }
  AggColumns cols(static_cast<uint32_t>(header[0]));
  const size_t n = static_cast<size_t>(header[1]);
  bool ok = true;
  for (uint32_t d = 0; d < cols.num_dims_; ++d) {
    cols.coords_[d].resize(n);
    ok = ok && ReadBytes(p, end, cols.coords_[d].data(), n);
  }
  cols.sum_.resize(n);
  cols.count_.resize(n);
  cols.min_.resize(n);
  cols.max_.resize(n);
  ok = ok && ReadBytes(p, end, cols.sum_.data(), n) &&
       ReadBytes(p, end, cols.count_.data(), n) &&
       ReadBytes(p, end, cols.min_.data(), n) &&
       ReadBytes(p, end, cols.max_.data(), n);
  if (!ok) return Status::Corruption("AggColumns: truncated columns");
  return cols;
}

bool operator==(const AggColumns& a, const AggColumns& b) {
  if (a.num_dims_ != b.num_dims_ || a.size() != b.size()) return false;
  for (uint32_t d = 0; d < a.num_dims_; ++d) {
    if (a.coords_[d] != b.coords_[d]) return false;
  }
  return a.sum_ == b.sum_ && a.count_ == b.count_ && a.min_ == b.min_ &&
         a.max_ == b.max_;
}

}  // namespace chunkcache::storage
