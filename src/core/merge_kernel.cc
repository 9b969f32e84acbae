#include "core/merge_kernel.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <string>

#include "support/check.h"
#include "support/env.h"

#if defined(__x86_64__) || defined(__i386__)
#define TREEPLACE_KERNEL_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define TREEPLACE_KERNEL_NEON 1
#include <arm_neon.h>
#endif

namespace treeplace::dp {

// ---------------------------------------------------------------------------
// TableArena

namespace {

/// Chunks grow geometrically from 256 KiB so small solves stay small while
/// serving-scale sessions settle into a handful of large chunks.
constexpr std::size_t kMinChunkBytes = std::size_t{256} * 1024;
constexpr std::size_t kMaxChunkBytes = std::size_t{64} * 1024 * 1024;

}  // namespace

TableArena::~TableArena() {
  for (Chunk& chunk : chunks_) {
    ::operator delete(chunk.data, std::align_val_t{kAlignment});
  }
}

std::size_t TableArena::size_class(std::size_t bytes) {
  // Round up to a multiple of the alignment, then to a power of two: every
  // block starts 64-byte aligned and frees recycle exactly.
  std::size_t rounded = (bytes + kAlignment - 1) & ~(kAlignment - 1);
  if (rounded < kAlignment) rounded = kAlignment;
  std::size_t cls = kAlignment;
  while (cls < rounded) cls <<= 1;
  return cls;
}

void* TableArena::allocate(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  const std::size_t cls = size_class(bytes);
  const std::size_t bucket =
      static_cast<std::size_t>(std::countr_zero(cls));
  if (free_.size() <= bucket) free_.resize(bucket + 1);
  if (!free_[bucket].empty()) {
    void* p = free_[bucket].back();
    free_[bucket].pop_back();
    used_bytes_ += cls;
    return p;
  }
  if (chunks_.empty() || chunks_.back().size - chunks_.back().used < cls) {
    std::size_t chunk_bytes = chunks_.empty()
                                  ? kMinChunkBytes
                                  : std::min(chunks_.back().size * 2,
                                             kMaxChunkBytes);
    chunk_bytes = std::max(chunk_bytes, cls);
    Chunk chunk;
    chunk.data = static_cast<std::byte*>(
        ::operator new(chunk_bytes, std::align_val_t{kAlignment}));
    chunk.size = chunk_bytes;
    reserved_bytes_ += chunk_bytes;
    chunks_.push_back(chunk);
  }
  Chunk& chunk = chunks_.back();
  void* p = chunk.data + chunk.used;
  chunk.used += cls;
  used_bytes_ += cls;
  return p;
}

void TableArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr || bytes == 0) return;
  const std::size_t cls = size_class(bytes);
  const std::size_t bucket =
      static_cast<std::size_t>(std::countr_zero(cls));
  if (free_.size() <= bucket) free_.resize(bucket + 1);
  free_[bucket].push_back(p);
  used_bytes_ -= cls;
}

void TableArena::reset() noexcept {
  for (auto& bucket : free_) bucket.clear();
  for (Chunk& chunk : chunks_) chunk.used = 0;
  used_bytes_ = 0;
}

// ---------------------------------------------------------------------------
// Kernel configuration

const KernelConfig& kernel_config() {
  static const KernelConfig cfg = [] {
    KernelConfig c;
    const std::string simd = env_string("TREEPLACE_SIMD", "on");
    c.simd = !(simd == "off" || simd == "0" || simd == "no");
    return c;
  }();
  return cfg;
}

// ---------------------------------------------------------------------------
// Compact entries

void compact_entries(const Box& box, std::span<const RequestCount> flow,
                     const Box& target, EntryList& out) {
  TREEPLACE_DCHECK(box.dims() == target.dims());
  out.clear();
  const std::size_t dims = box.dims();
  int stack_digits[64];
  std::vector<int> heap_digits;
  int* digits = stack_digits;
  if (dims > 64) {
    heap_digits.assign(dims, 0);
    digits = heap_digits.data();
  } else {
    std::fill_n(digits, dims, 0);
  }
  std::uint64_t dot = 0;
  const std::size_t size = box.size();
  for (std::size_t flat = 0; flat < size; ++flat) {
    if (flow[flat] != kInvalidFlow) {
      out.flat.push_back(static_cast<std::uint32_t>(flat));
      out.flow.push_back(flow[flat]);
      out.dot.push_back(dot);
    }
    // Odometer increment, maintaining the target-stride dot incrementally.
    for (std::size_t d = dims; d-- > 0;) {
      dot += target.stride(d);
      if (++digits[d] <= box.bounds()[d]) break;
      dot -= static_cast<std::uint64_t>(box.bounds()[d] + 1) * target.stride(d);
      digits[d] = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed tables

namespace {

/// Little-endian fixed-width cell IO; width is 2, 4 or 8.
void append_cell(std::vector<std::uint8_t>& payload, RequestCount v,
                 std::uint8_t width) {
  for (std::uint8_t b = 0; b < width; ++b) {
    payload.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

RequestCount read_cell(const std::uint8_t* p, std::uint8_t width) {
  RequestCount v = 0;
  for (std::uint8_t b = 0; b < width; ++b) {
    v |= static_cast<RequestCount>(p[b]) << (8 * b);
  }
  return v;
}

}  // namespace

PackedTable PackedTable::pack(std::span<const RequestCount> flow) {
  PackedTable out;
  out.cells_ = flow.size();
  RequestCount max_valid = 0;
  std::size_t valid = 0;
  for (const RequestCount f : flow) {
    if (f == kInvalidFlow) continue;
    ++valid;
    max_valid = std::max(max_valid, f);
  }
  out.width_ = max_valid <= 0xFFFFu ? 2 : max_valid <= 0xFFFFFFFFu ? 4 : 8;
  out.payload_.reserve(valid * out.width_);
  std::size_t i = 0;
  while (i < flow.size()) {
    if (flow[i] == kInvalidFlow) {
      ++i;
      continue;
    }
    Run run{static_cast<std::uint32_t>(i), 0};
    while (i < flow.size() && flow[i] != kInvalidFlow) {
      append_cell(out.payload_, flow[i], out.width_);
      ++run.length;
      ++i;
    }
    out.runs_.push_back(run);
  }
  // Fragmented tables accumulate many runs; push_back growth would leave
  // up to 2x slack in exactly the vector heap_bytes() accounts for.
  out.runs_.shrink_to_fit();
  return out;
}

PackedTable PackedTable::from_parts(std::uint64_t cells, std::uint8_t width,
                                    std::vector<Run> runs,
                                    std::vector<std::uint8_t> payload) {
  TREEPLACE_CHECK_MSG(width == 2 || width == 4 || width == 8,
                      "packed table: bad cell width " << int{width});
  std::uint64_t covered = 0;
  std::uint64_t next = 0;
  for (const Run& run : runs) {
    TREEPLACE_CHECK_MSG(run.length > 0 && run.start >= next &&
                            run.start + std::uint64_t{run.length} <= cells,
                        "packed table: malformed run");
    next = run.start + std::uint64_t{run.length};
    covered += run.length;
  }
  TREEPLACE_CHECK_MSG(payload.size() == covered * width,
                      "packed table: payload size mismatch");
  PackedTable out;
  out.cells_ = cells;
  out.width_ = width;
  out.runs_ = std::move(runs);
  out.payload_ = std::move(payload);
  return out;
}

void PackedTable::unpack(std::span<RequestCount> out) const {
  TREEPLACE_DCHECK(out.size() == cells_);
  std::fill(out.begin(), out.end(), kInvalidFlow);
  const std::uint8_t* p = payload_.data();
  for (const Run& run : runs_) {
    for (std::uint32_t k = 0; k < run.length; ++k) {
      out[run.start + k] = read_cell(p, width_);
      p += width_;
    }
  }
}

namespace {

/// Bytes needed for the largest operand flat: decisions index table cells
/// (< 2^32), so 1, 2 or 4 suffice.
std::uint8_t flat_width(std::uint32_t max_value) {
  return max_value <= 0xFFu ? 1 : max_value <= 0xFFFFu ? 2 : 4;
}

void append_flat(std::vector<std::uint8_t>& payload, std::uint32_t v,
                 std::uint8_t width) {
  for (std::uint8_t b = 0; b < width; ++b) {
    payload.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

std::uint32_t read_flat(const std::uint8_t* p, std::uint8_t width) {
  std::uint32_t v = 0;
  for (std::uint8_t b = 0; b < width; ++b) {
    v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  }
  return v;
}

}  // namespace

PackedDecisions PackedDecisions::pack(std::span<const Decision> dec) {
  PackedDecisions out;
  out.cells_ = dec.size();
  std::uint32_t max_left = 0;
  std::uint32_t max_right = 0;
  for (const Decision& d : dec) {
    max_left = std::max(max_left, d.left);
    max_right = std::max(max_right, d.right);
  }
  out.left_width_ = flat_width(max_left);
  out.right_width_ = flat_width(max_right);
  out.payload_.reserve(dec.size() * out.cell_bytes());
  for (const Decision& d : dec) {
    append_flat(out.payload_, d.left, out.left_width_);
    append_flat(out.payload_, d.right, out.right_width_);
    out.payload_.push_back(static_cast<std::uint8_t>(d.mode));
  }
  return out;
}

PackedDecisions PackedDecisions::pack(std::span<const Decision> dec,
                                      std::span<const RequestCount> flow) {
  TREEPLACE_DCHECK(flow.size() == dec.size());
  PackedDecisions out;
  out.cells_ = dec.size();
  out.elided_ = true;
  // Widths from the *valid* maxima only: dead cells hold uninitialized
  // operands (resize_uninit) that must neither widen the encoding nor
  // reach the payload.
  std::uint32_t max_left = 0;
  std::uint32_t max_right = 0;
  std::size_t valid = 0;
  for (std::size_t i = 0; i < dec.size(); ++i) {
    if (flow[i] == kInvalidFlow) continue;
    ++valid;
    max_left = std::max(max_left, dec[i].left);
    max_right = std::max(max_right, dec[i].right);
  }
  out.left_width_ = flat_width(max_left);
  out.right_width_ = flat_width(max_right);
  out.payload_.reserve(valid * out.cell_bytes());
  std::size_t i = 0;
  while (i < dec.size()) {
    if (flow[i] == kInvalidFlow) {
      ++i;
      continue;
    }
    PackedTable::Run run{static_cast<std::uint32_t>(i), 0};
    while (i < dec.size() && flow[i] != kInvalidFlow) {
      append_flat(out.payload_, dec[i].left, out.left_width_);
      append_flat(out.payload_, dec[i].right, out.right_width_);
      out.payload_.push_back(static_cast<std::uint8_t>(dec[i].mode));
      ++run.length;
      ++i;
    }
    out.runs_.push_back(run);
  }
  out.runs_.shrink_to_fit();
  return out;
}

PackedDecisions PackedDecisions::from_parts(
    std::uint64_t cells, std::uint8_t elided, std::uint8_t left_width,
    std::uint8_t right_width, std::vector<PackedTable::Run> runs,
    std::vector<std::uint8_t> payload) {
  const auto ok_width = [](std::uint8_t w) {
    return w == 1 || w == 2 || w == 4;
  };
  TREEPLACE_CHECK_MSG(ok_width(left_width) && ok_width(right_width),
                      "packed decisions: bad flat width");
  TREEPLACE_CHECK_MSG(elided <= 1, "packed decisions: bad elision flag");
  const std::uint64_t cell_bytes =
      left_width + right_width + std::uint64_t{1};
  std::uint64_t covered = cells;
  if (elided != 0) {
    covered = 0;
    std::uint64_t next = 0;
    for (const PackedTable::Run& run : runs) {
      TREEPLACE_CHECK_MSG(run.length > 0 && run.start >= next &&
                              run.start + std::uint64_t{run.length} <= cells,
                          "packed decisions: malformed run");
      next = run.start + std::uint64_t{run.length};
      covered += run.length;
    }
  } else {
    TREEPLACE_CHECK_MSG(runs.empty(), "packed decisions: dense with runs");
  }
  TREEPLACE_CHECK_MSG(payload.size() == covered * cell_bytes,
                      "packed decisions: payload size mismatch");
  PackedDecisions out;
  out.cells_ = cells;
  out.elided_ = elided != 0;
  out.left_width_ = left_width;
  out.right_width_ = right_width;
  out.runs_ = std::move(runs);
  out.payload_ = std::move(payload);
  return out;
}

void PackedDecisions::unpack(std::span<Decision> out) const {
  TREEPLACE_DCHECK(out.size() == cells_);
  const std::uint8_t* p = payload_.data();
  const auto read_one = [&](Decision& d) {
    d.left = read_flat(p, left_width_);
    p += left_width_;
    d.right = read_flat(p, right_width_);
    p += right_width_;
    d.mode = static_cast<std::int8_t>(*p++);
  };
  if (!elided_) {
    for (Decision& d : out) read_one(d);
    return;
  }
  // Elided cells decode to a zeroed Decision; their flow twin is
  // kInvalidFlow, so reconstruction never reads them.
  std::fill(out.begin(), out.end(), Decision{});
  for (const PackedTable::Run& run : runs_) {
    for (std::uint32_t k = 0; k < run.length; ++k) read_one(out[run.start + k]);
  }
}

// ---------------------------------------------------------------------------
// Min-plus run kernels
//
// One contiguous run of the dense path: dst[i] <- src[i] + add when src[i]
// is valid, the sum clears the cap, and it strictly improves dst[i] (the
// first-occurrence tie-break: equal flows never replace).  upd[i] records
// updated lanes so the caller can write decisions; returns whether any
// lane updated.

namespace {

using RunFn = bool (*)(const RequestCount*, RequestCount*, std::uint8_t*,
                       std::size_t, RequestCount, RequestCount);

/// The TREEPLACE_SIMD=off fallback: the original branchy loop, which no
/// compiler vectorizes (early continues carry loop-carried control flow).
bool minplus_run_branchy(const RequestCount* src, RequestCount* dst,
                         std::uint8_t* upd, std::size_t n, RequestCount add,
                         RequestCount cap) {
  bool any = false;
  std::memset(upd, 0, n);
  for (std::size_t i = 0; i < n; ++i) {
    const RequestCount f = src[i];
    if (f == kInvalidFlow) continue;
    const RequestCount sum = f + add;
    if (sum > cap) continue;
    if (sum < dst[i]) {
      dst[i] = sum;
      upd[i] = 1;
      any = true;
    }
  }
  return any;
}

/// Branchless form for auto-vectorization on targets without a manual
/// kernel.  Bit-identical to the branchy loop: same predicate, same
/// strictly-smaller update.
bool minplus_run_portable(const RequestCount* src, RequestCount* dst,
                          std::uint8_t* upd, std::size_t n, RequestCount add,
                          RequestCount cap) {
  unsigned any = 0;
#pragma omp simd reduction(| : any)
  for (std::size_t i = 0; i < n; ++i) {
    const RequestCount f = src[i];
    const RequestCount sum = f + add;
    const unsigned ok = static_cast<unsigned>(f != kInvalidFlow) &
                        static_cast<unsigned>(sum <= cap) &
                        static_cast<unsigned>(sum < dst[i]);
    dst[i] = ok ? sum : dst[i];
    upd[i] = static_cast<std::uint8_t>(ok);
    any |= ok;
  }
  return any != 0;
}

#if defined(TREEPLACE_KERNEL_X86)

/// AVX2: 4 lanes of u64 per step.  kInvalidFlow is all-ones, so validity
/// is one cmpeq; unsigned compares use the sign-bit-flip trick.
__attribute__((target("avx2"))) bool minplus_run_avx2(
    const RequestCount* src, RequestCount* dst, std::uint8_t* upd,
    std::size_t n, RequestCount add, RequestCount cap) {
  const __m256i vadd = _mm256_set1_epi64x(static_cast<long long>(add));
  const __m256i vinv = _mm256_set1_epi64x(-1);
  const __m256i vsign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i vcap_s =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(cap)), vsign);
  __m256i vany = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i sum = _mm256_add_epi64(s, vadd);
    const __m256i invalid = _mm256_cmpeq_epi64(s, vinv);
    const __m256i sum_s = _mm256_xor_si256(sum, vsign);
    const __m256i gt_cap = _mm256_cmpgt_epi64(sum_s, vcap_s);
    const __m256i lt_dst =
        _mm256_cmpgt_epi64(_mm256_xor_si256(d, vsign), sum_s);
    const __m256i ok =
        _mm256_andnot_si256(_mm256_or_si256(invalid, gt_cap), lt_dst);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_blendv_epi8(d, sum, ok));
    vany = _mm256_or_si256(vany, ok);
    const int m = _mm256_movemask_pd(_mm256_castsi256_pd(ok));
    upd[i] = static_cast<std::uint8_t>(m & 1);
    upd[i + 1] = static_cast<std::uint8_t>((m >> 1) & 1);
    upd[i + 2] = static_cast<std::uint8_t>((m >> 2) & 1);
    upd[i + 3] = static_cast<std::uint8_t>((m >> 3) & 1);
  }
  bool any = _mm256_testz_si256(vany, vany) == 0;
  for (; i < n; ++i) {
    const RequestCount f = src[i];
    const RequestCount sum = f + add;
    const unsigned ok = static_cast<unsigned>(f != kInvalidFlow) &
                        static_cast<unsigned>(sum <= cap) &
                        static_cast<unsigned>(sum < dst[i]);
    dst[i] = ok ? sum : dst[i];
    upd[i] = static_cast<std::uint8_t>(ok);
    any |= ok != 0;
  }
  return any;
}

#elif defined(TREEPLACE_KERNEL_NEON)

/// NEON: 2 lanes of u64 per step (aarch64 has native unsigned compares).
bool minplus_run_neon(const RequestCount* src, RequestCount* dst,
                      std::uint8_t* upd, std::size_t n, RequestCount add,
                      RequestCount cap) {
  const uint64x2_t vadd = vdupq_n_u64(add);
  const uint64x2_t vinv = vdupq_n_u64(~std::uint64_t{0});
  const uint64x2_t vcap = vdupq_n_u64(cap);
  uint64x2_t vany = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t s = vld1q_u64(src + i);
    const uint64x2_t d = vld1q_u64(dst + i);
    const uint64x2_t sum = vaddq_u64(s, vadd);
    const uint64x2_t invalid = vceqq_u64(s, vinv);
    const uint64x2_t le_cap = vcleq_u64(sum, vcap);
    const uint64x2_t lt_dst = vcltq_u64(sum, d);
    const uint64x2_t ok = vbicq_u64(vandq_u64(le_cap, lt_dst), invalid);
    vst1q_u64(dst + i, vbslq_u64(ok, sum, d));
    vany = vorrq_u64(vany, ok);
    upd[i] = static_cast<std::uint8_t>(vgetq_lane_u64(ok, 0) & 1);
    upd[i + 1] = static_cast<std::uint8_t>(vgetq_lane_u64(ok, 1) & 1);
  }
  bool any =
      (vgetq_lane_u64(vany, 0) | vgetq_lane_u64(vany, 1)) != 0;
  for (; i < n; ++i) {
    const RequestCount f = src[i];
    const RequestCount sum = f + add;
    const unsigned ok = static_cast<unsigned>(f != kInvalidFlow) &
                        static_cast<unsigned>(sum <= cap) &
                        static_cast<unsigned>(sum < dst[i]);
    dst[i] = ok ? sum : dst[i];
    upd[i] = static_cast<std::uint8_t>(ok);
    any |= ok != 0;
  }
  return any;
}

#endif  // TREEPLACE_KERNEL_*

RunFn pick_run_fn(bool simd) {
  if (!simd) return &minplus_run_branchy;
#if defined(TREEPLACE_KERNEL_X86)
  if (__builtin_cpu_supports("avx2")) return &minplus_run_avx2;
#elif defined(TREEPLACE_KERNEL_NEON)
  return &minplus_run_neon;
#endif
  return &minplus_run_portable;
}

// ---------------------------------------------------------------------------
// Sparse path

/// The scalar sparse loop over compacted operands — the reference the
/// whole layer is defined against.
std::uint64_t sparse_join_scalar(const EntryList& left,
                                 const EntryList& right, RequestCount cap,
                                 RequestCount* flow, Decision* dec) {
  const std::size_t nr = right.size();
  const RequestCount* rflow = right.flow.data();
  const std::uint64_t* rdot = right.dot.data();
  const std::uint32_t* rflat = right.flat.data();
  for (std::size_t i = 0; i < left.size(); ++i) {
    const RequestCount lf = left.flow[i];
    const std::uint64_t ldot = left.dot[i];
    const std::uint32_t lflat = left.flat[i];
    for (std::size_t j = 0; j < nr; ++j) {
      const RequestCount sum = lf + rflow[j];
      if (sum > cap) continue;
      const std::size_t t = static_cast<std::size_t>(ldot + rdot[j]);
      if (sum < flow[t]) {
        flow[t] = sum;
        dec[t] = Decision{lflat, rflat[j], -1};
      }
    }
  }
  return static_cast<std::uint64_t>(left.size()) * nr;
}

#if defined(TREEPLACE_KERNEL_X86)

/// AVX2 sparse: the full per-pair predicate — feasibility cut AND the
/// strict-improvement test against the destination — runs 4 right entries
/// at a time.  Destination flows are fetched with a 64-bit gather, so a
/// pack where nothing improves (the common case on warm re-solves, where
/// most cells are already optimal) costs no scalar work at all.
///
/// Gathering before writing is sound because target indices within one
/// pack are distinct: compacted `dot` values are strictly increasing (the
/// output box covers each operand box per dimension, so the odometer in
/// compact_entries is strictly monotonic), hence the 4 lanes hit 4
/// different cells and no lane can observe a stale gathered value.
/// Surviving lanes are committed in ascending j, preserving the scalar
/// loop's first-occurrence tie-break — results stay bit-identical.
__attribute__((target("avx2"))) std::uint64_t sparse_join_avx2(
    const EntryList& left, const EntryList& right, RequestCount cap,
    RequestCount* flow, Decision* dec) {
  const std::size_t nr = right.size();
  const RequestCount* rflow = right.flow.data();
  const std::uint64_t* rdot = right.dot.data();
  const std::uint32_t* rflat = right.flat.data();
  const __m256i vsign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i vcap_s =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(cap)), vsign);
  for (std::size_t i = 0; i < left.size(); ++i) {
    const RequestCount lf = left.flow[i];
    const std::uint64_t ldot = left.dot[i];
    const std::uint32_t lflat = left.flat[i];
    const __m256i vlf = _mm256_set1_epi64x(static_cast<long long>(lf));
    const __m256i vldot = _mm256_set1_epi64x(static_cast<long long>(ldot));
    std::size_t j = 0;
    for (; j + 4 <= nr; j += 4) {
      const __m256i rf =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rflow + j));
      const __m256i sum = _mm256_add_epi64(rf, vlf);
      const __m256i sum_s = _mm256_xor_si256(sum, vsign);
      const __m256i gt_cap = _mm256_cmpgt_epi64(sum_s, vcap_s);
      // Target cells are in-bounds even for cap-failing lanes (dots map
      // into the output box unconditionally), so a plain gather is safe.
      const __m256i rd =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rdot + j));
      const __m256i t = _mm256_add_epi64(rd, vldot);
      const __m256i dst = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(flow), t, 8);
      const __m256i improves =
          _mm256_cmpgt_epi64(_mm256_xor_si256(dst, vsign), sum_s);
      const __m256i take = _mm256_andnot_si256(gt_cap, improves);
      int m = _mm256_movemask_pd(_mm256_castsi256_pd(take)) & 0xf;
      while (m != 0) {
        const int b = __builtin_ctz(static_cast<unsigned>(m));
        m &= m - 1;
        const std::size_t jj = j + static_cast<std::size_t>(b);
        const std::size_t tt = static_cast<std::size_t>(ldot + rdot[jj]);
        flow[tt] = lf + rflow[jj];
        dec[tt] = Decision{lflat, rflat[jj], -1};
      }
    }
    for (; j < nr; ++j) {
      const RequestCount sum = lf + rflow[j];
      if (sum > cap) continue;
      const std::size_t t = static_cast<std::size_t>(ldot + rdot[j]);
      if (sum < flow[t]) {
        flow[t] = sum;
        dec[t] = Decision{lflat, rflat[j], -1};
      }
    }
  }
  return static_cast<std::uint64_t>(left.size()) * nr;
}

#endif  // TREEPLACE_KERNEL_X86

using SparseFn = std::uint64_t (*)(const EntryList&, const EntryList&,
                                   RequestCount, RequestCount*, Decision*);

SparseFn pick_sparse_fn(bool simd) {
#if defined(TREEPLACE_KERNEL_X86)
  if (simd && __builtin_cpu_supports("avx2")) return &sparse_join_avx2;
#else
  (void)simd;
#endif
  return &sparse_join_scalar;
}

// ---------------------------------------------------------------------------
// Dense path helpers

/// Precomputes, per contiguous row of the right operand (a full run of its
/// last dimension), the dot of the row's leading digits against the output
/// strides.  Output rows are contiguous too (the output's last-dimension
/// stride is 1 and covers the operand's), which is what makes the dense
/// kernel a straight-line sweep.
void compute_row_dots(const Box& rbox, const Box& obox, std::size_t rows,
                      JoinScratch& scratch) {
  scratch.row_dot.resize(rows);
  const std::size_t dims = rbox.dims();
  if (dims <= 1) {  // a single row at offset 0
    std::fill(scratch.row_dot.begin(), scratch.row_dot.end(), 0);
    return;
  }
  scratch.digits.assign(dims, 0);
  std::uint64_t dot = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    scratch.row_dot[r] = dot;
    // Odometer over the leading dims [0, dims - 1), last first.
    for (std::size_t d = dims - 1; d-- > 0;) {
      dot += obox.stride(d);
      if (++scratch.digits[d] <= rbox.bounds()[d]) break;
      dot -= static_cast<std::uint64_t>(rbox.bounds()[d] + 1) * obox.stride(d);
      scratch.digits[d] = 0;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// diff_tables

bool diff_tables(std::span<const RequestCount> old_flow,
                 std::span<const RequestCount> new_flow,
                 std::size_t max_changed, std::vector<std::uint32_t>& out) {
  TREEPLACE_DCHECK(old_flow.size() == new_flow.size());
  out.clear();
  const std::size_t n = old_flow.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (old_flow[i] != new_flow[i]) {
      if (out.size() >= max_changed) return false;
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The lazy join

namespace {

/// Decodes the changed cells of one operand into a membership mask and
/// their output-box dot offsets.
void index_changed(const Box& box, const Box& obox,
                   std::span<const std::uint32_t> changed,
                   std::vector<std::uint8_t>& set,
                   std::vector<std::uint64_t>& dot_out,
                   std::vector<int>& digits) {
  set.assign(box.size(), 0);
  dot_out.resize(changed.size());
  const std::size_t dims = obox.dims();
  for (std::size_t ci = 0; ci < changed.size(); ++ci) {
    const std::uint32_t f = changed[ci];
    set[f] = 1;
    box.decode(f, digits);
    std::uint64_t dot = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      dot += static_cast<std::uint64_t>(digits[d]) * obox.stride(d);
    }
    dot_out[ci] = dot;
  }
}

/// Attempts the lazy splice.  Returns true on completion (stats filled);
/// false when too many previous winners were invalidated, in which case
/// the wasted sweep work is reported via `stats.pairs` and the caller must
/// run the full join (out tables are reinitialized there).
bool lazy_join(const JoinInputs& in, const LazyJoin& lazy,
               std::span<RequestCount> out_flow, std::span<Decision> out_dec,
               JoinScratch& scratch, JoinStats& stats) {
  const Box& obox = *in.obox;
  const std::size_t osize = obox.size();
  const std::size_t dims = obox.dims();

  index_changed(*in.lbox, obox, lazy.changed_left, scratch.changed_set_left,
                scratch.changed_dot_left, scratch.digits);
  index_changed(*in.rbox, obox, lazy.changed_right, scratch.changed_set_right,
                scratch.changed_dot_right, scratch.digits);

  // Changed sweeps: accumulate the best changed-pair contribution per
  // reachable cell and mark reachability (cap-independent: a pair that
  // stopped clearing the cap still invalidates its old contribution).
  // Sweep A covers changed-left x every current right entry, sweep B every
  // current left entry x changed-right; together every now-valid pair with
  // a changed side.  Valid both-changed pairs are visited twice — min is
  // idempotent and ties break lexicographically, so the double visit is
  // harmless and the result stays the serial first-occurrence winner.
  std::fill(out_flow.begin(), out_flow.end(), kInvalidFlow);
  scratch.reach.assign(osize, 0);
  const auto consider = [&](std::uint32_t lflat, RequestCount lf,
                            std::uint32_t rflat, RequestCount rf,
                            std::size_t t) {
    const RequestCount sum = lf + rf;
    if (sum > in.cap) return;
    if (sum < out_flow[t]) {
      out_flow[t] = sum;
      out_dec[t] = Decision{lflat, rflat, -1};
    } else if (sum == out_flow[t]) {
      const Decision cd = out_dec[t];
      if (lflat < cd.left || (lflat == cd.left && rflat < cd.right)) {
        out_dec[t] = Decision{lflat, rflat, -1};
      }
    }
  };
  stats.pairs +=
      static_cast<std::uint64_t>(lazy.changed_left.size()) *
          scratch.right.size() +
      static_cast<std::uint64_t>(scratch.left.size()) *
          lazy.changed_right.size() +
      static_cast<std::uint64_t>(lazy.changed_left.size()) *
          lazy.changed_right.size();
  for (std::size_t ci = 0; ci < lazy.changed_left.size(); ++ci) {
    const std::uint32_t sflat = lazy.changed_left[ci];
    const RequestCount sval = in.lflow[sflat];
    const std::uint64_t sdot = scratch.changed_dot_left[ci];
    for (std::size_t j = 0; j < scratch.right.size(); ++j) {
      const std::size_t t =
          static_cast<std::size_t>(sdot + scratch.right.dot[j]);
      scratch.reach[t] = 1;
      if (sval == kInvalidFlow) continue;
      consider(sflat, sval, scratch.right.flat[j], scratch.right.flow[j], t);
    }
  }
  for (std::size_t j = 0; j < scratch.left.size(); ++j) {
    const RequestCount lf = scratch.left.flow[j];
    const std::uint64_t ldot = scratch.left.dot[j];
    const std::uint32_t lflat = scratch.left.flat[j];
    for (std::size_t ci = 0; ci < lazy.changed_right.size(); ++ci) {
      const std::size_t t =
          static_cast<std::size_t>(ldot + scratch.changed_dot_right[ci]);
      scratch.reach[t] = 1;
      const RequestCount sval = in.rflow[lazy.changed_right[ci]];
      if (sval == kInvalidFlow) continue;
      consider(lflat, lf, lazy.changed_right[ci], sval, t);
    }
  }
  // Sweep C: both-changed pairs where *both* cells became invalid appear
  // in neither entry list, so sweeps A/B never reach their output cells —
  // but the old winner there may be exactly such a pair, and an unreached
  // cell would splice it stale.  Reach-mark the full changed grid (values
  // for its valid pairs were already accumulated above).
  for (std::size_t ci = 0; ci < lazy.changed_left.size(); ++ci) {
    const std::uint64_t sdot = scratch.changed_dot_left[ci];
    for (std::size_t cj = 0; cj < lazy.changed_right.size(); ++cj) {
      scratch.reach[static_cast<std::size_t>(
          sdot + scratch.changed_dot_right[cj])] = 1;
    }
  }

  // Combine pass: splice unreachable cells from the snapshot; where the
  // previous winner survives, the unchanged contribution *is* the old
  // value, so the new cell is the lexicographically-first of {old winner,
  // best changed} — exactly the serial first-occurrence tie-break.  Cells
  // whose previous winner involved a changed cell on either side must be
  // re-minimized from scratch (rescue); too many of those and lazy loses,
  // so bail.
  scratch.rescue.clear();
  // Each rescue re-scans every left entry, so the cap must be relative to
  // the *right* entry count: |rescue| * |left| stays under 1/8 of the full
  // join's |left| * |right| pairs, or lazy cannot win and we bail.
  const std::size_t rescue_cap = scratch.right.size() / 8 + 16;
  for (std::size_t t = 0; t < osize; ++t) {
    if (scratch.reach[t] == 0) {
      out_flow[t] = lazy.old_flow[t];
      out_dec[t] = lazy.old_dec[t];
      ++stats.cells_skipped;
      continue;
    }
    const RequestCount old = lazy.old_flow[t];
    if (old == kInvalidFlow) continue;  // no unchanged contribution existed
    const Decision od = lazy.old_dec[t];
    if (scratch.changed_set_left[od.left] != 0 ||
        scratch.changed_set_right[od.right] != 0) {
      scratch.rescue.push_back(t);
      if (scratch.rescue.size() > rescue_cap) return false;
      continue;
    }
    const RequestCount cb = out_flow[t];
    if (old < cb) {
      out_flow[t] = old;
      out_dec[t] = od;
    } else if (old == cb) {
      const Decision cd = out_dec[t];
      if (od.left < cd.left || (od.left == cd.left && od.right < cd.right)) {
        out_dec[t] = od;
      }
    }
  }

  // Rescue pass: exact re-minimization of the invalidated cells, visiting
  // left entries in ascending flat order (the serial order; the right
  // index of each decomposition is unique per left entry).
  if (!scratch.rescue.empty()) {
    const Box& lbox = *in.lbox;
    const Box& rbox = *in.rbox;
    const EntryList& left = scratch.left;
    scratch.ldigits.resize(left.size() * dims);
    std::vector<int>& tdig = scratch.digits;
    for (std::size_t i = 0; i < left.size(); ++i) {
      lbox.decode(left.flat[i], tdig);
      std::copy(tdig.begin(), tdig.end(), scratch.ldigits.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  i * dims));
    }
    for (const std::size_t t : scratch.rescue) {
      obox.decode(t, tdig);
      RequestCount best = kInvalidFlow;
      Decision bd{};
      for (std::size_t i = 0; i < left.size(); ++i) {
        const int* ld = scratch.ldigits.data() + i * dims;
        std::size_t rflat = 0;
        bool feasible = true;
        for (std::size_t d = 0; d < dims; ++d) {
          const int rd = tdig[d] - ld[d];
          if (rd < 0 || rd > rbox.bounds()[d]) {
            feasible = false;
            break;
          }
          rflat += static_cast<std::size_t>(rd) * rbox.stride(d);
        }
        if (!feasible) continue;
        const RequestCount rf = in.rflow[rflat];
        if (rf == kInvalidFlow) continue;
        const RequestCount sum = left.flow[i] + rf;
        if (sum > in.cap) continue;
        if (sum < best) {
          best = sum;
          bd = Decision{left.flat[i], static_cast<std::uint32_t>(rflat), -1};
        }
      }
      out_flow[t] = best;
      out_dec[t] = bd;
    }
    stats.pairs += static_cast<std::uint64_t>(scratch.rescue.size()) *
                   left.size();
  }
  stats.lazy = true;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// join_slots

JoinStats join_slots(const JoinInputs& in, std::span<RequestCount> out_flow,
                     std::span<Decision> out_dec, JoinScratch& scratch,
                     const LazyJoin* lazy, const KernelConfig& cfg) {
  const Box& lbox = *in.lbox;
  const Box& rbox = *in.rbox;
  const Box& obox = *in.obox;
  const std::size_t osize = obox.size();
  TREEPLACE_DCHECK(out_flow.size() == osize && out_dec.size() == osize);
  JoinStats stats;

  compact_entries(lbox, in.lflow, obox, scratch.left);

  // Path choice: count the right operand's valid cells (cheap linear scan)
  // and sweep it raw when occupancy is high — compaction then buys nothing
  // and the row sweep is branchless and contiguous.
  std::size_t right_valid = 0;
  for (const RequestCount f : in.rflow) {
    right_valid += static_cast<std::size_t>(f != kInvalidFlow);
  }
  bool dense;
  switch (cfg.path) {
    case KernelConfig::Path::kSparse:
      dense = false;
      break;
    case KernelConfig::Path::kDense:
      dense = true;
      break;
    default:
      dense = rbox.size() > 0 &&
              static_cast<double>(right_valid) >=
                  cfg.dense_occupancy * static_cast<double>(rbox.size());
  }
  if (!dense || lazy != nullptr) {
    compact_entries(rbox, in.rflow, obox, scratch.right);
  }

  // Lazy splice: worth it only when each dirty diff is well below its
  // operand's entry count (otherwise the changed sweeps approach a full
  // rebuild that also pays splice overhead).
  if (lazy != nullptr && cfg.lazy_max_changed > 0) {
    if (lazy->old_flow.size() == osize && lazy->old_dec.size() == osize &&
        static_cast<double>(lazy->changed_left.size()) <=
            cfg.lazy_max_changed * static_cast<double>(scratch.left.size()) &&
        static_cast<double>(lazy->changed_right.size()) <=
            cfg.lazy_max_changed * static_cast<double>(scratch.right.size())) {
      if (lazy_join(in, *lazy, out_flow, out_dec, scratch, stats)) {
        return stats;
      }
      // Fall through to a full rebuild; the sweep work already spent stays
      // counted in stats.pairs, but no cell ends up spliced.
      stats.cells_skipped = 0;
    }
  }

  std::fill(out_flow.begin(), out_flow.end(), kInvalidFlow);
  const EntryList& left = scratch.left;
  if (!dense) {
    stats.pairs += pick_sparse_fn(cfg.simd)(left, scratch.right, in.cap,
                                            out_flow.data(), out_dec.data());
    return stats;
  }

  // Dense geometry: rows are full runs of the right operand's last
  // dimension; each maps to a contiguous run of the output.
  const std::size_t row_len =
      rbox.dims() == 0 ? rbox.size()
                       : static_cast<std::size_t>(rbox.bounds().back()) + 1;
  const std::size_t rows = rbox.size() / row_len;
  compute_row_dots(rbox, obox, rows, scratch);
  if (scratch.upd.size() < row_len) scratch.upd.resize(row_len);
  std::uint8_t* const upd = scratch.upd.data();
  const RunFn run = pick_run_fn(cfg.simd);
  const RequestCount* rraw = in.rflow.data();
  for (std::size_t i = 0; i < left.size(); ++i) {
    const RequestCount lf = left.flow[i];
    const std::uint64_t ldot = left.dot[i];
    const std::uint32_t lflat = left.flat[i];
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t base = static_cast<std::size_t>(ldot) +
                               static_cast<std::size_t>(scratch.row_dot[r]);
      if (run(rraw + r * row_len, out_flow.data() + base, upd, row_len, lf,
              in.cap)) {
        Decision* dd = out_dec.data() + base;
        const std::uint32_t rbase = static_cast<std::uint32_t>(r * row_len);
        for (std::size_t j = 0; j < row_len; ++j) {
          if (upd[j] != 0) {
            dd[j] = Decision{lflat, rbase + static_cast<std::uint32_t>(j),
                             -1};
          }
        }
      }
    }
  }
  stats.pairs += static_cast<std::uint64_t>(left.size()) * rbox.size();
  return stats;
}

}  // namespace treeplace::dp
