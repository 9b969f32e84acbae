// Merge-kernel microbench: pairs/sec of the min-plus join by path and
// table size.
//
// Joins two synthetic tables (the shapes the DP engines produce: 2-D boxes
// at update-dp-like occupancies) through core/merge_kernel.h under every
// kernel variant — sparse vs dense path, SIMD on vs the scalar fallback —
// and reports visited pairs per second.  The dense+SIMD path is the
// tentpole claim: on large high-occupancy joins it must clear 2x the
// scalar-sparse baseline on hardware with AVX2/NEON.
//
// The CI-gated JSON holds only deterministic columns: pairs per join and a
// flow checksum that every variant must reproduce bit-identically (the
// kernel's tie-break contract).  Throughput columns stay warn-only in the
// CSV/stdout.  TREEPLACE_KERNEL_REPS overrides the per-cell repetitions.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/merge_kernel.h"
#include "support/prng.h"

using namespace treeplace;

namespace {

struct Shape {
  std::string label;
  int side = 0;          ///< bounds of each 2-D operand: (side, side)
  double occupancy = 1.0;
};

struct Variant {
  std::string label;
  dp::KernelConfig cfg;
};

std::vector<RequestCount> random_table(const dp::Box& box, double occupancy,
                                       Xoshiro256& rng) {
  std::vector<RequestCount> flow(box.size(), dp::kInvalidFlow);
  for (RequestCount& f : flow) {
    if (rng.uniform(0, 999) < static_cast<std::uint64_t>(occupancy * 1000)) {
      f = rng.uniform(0, 50);
    }
  }
  return flow;
}

/// Order-sensitive digest over the joined flow table, so a tie-break
/// divergence between variants cannot cancel out.
std::uint64_t flow_checksum(std::span<const RequestCount> flow) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const RequestCount f : flow) {
    h ^= f + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  bench::banner(
      "merge kernel — min-plus join throughput by path and table size",
      "synthetic slot joins through core/merge_kernel.h; all variants must "
      "produce bit-identical flows, dense+SIMD must beat scalar-sparse on "
      "large joins");

  const std::size_t reps = env_size_t(
      "TREEPLACE_KERNEL_REPS",
      bench_scale() == BenchScale::kPaper ? 60 : 12);

  const std::vector<Shape> shapes = {
      {"small_16x16_full", 15, 1.0},
      {"medium_64x64_full", 63, 1.0},
      {"large_128x128_full", 127, 1.0},
      {"large_128x128_sparse30", 127, 0.3},
      // Mid occupancy is the sparse AVX2 gather kernel's target regime:
      // compacted entries dominate, yet packs are full enough that the
      // 4-wide predicate (cap cut + gathered strict-improvement test)
      // pays off over the scalar compacted loop.
      {"large_128x128_sparse45", 127, 0.45},
  };
  const std::vector<Variant> variants = {
      {"scalar_sparse", {false, dp::KernelConfig::Path::kSparse}},
      {"scalar_dense", {false, dp::KernelConfig::Path::kDense}},
      {"simd_sparse", {true, dp::KernelConfig::Path::kSparse}},
      {"simd_dense", {true, dp::KernelConfig::Path::kDense}},
  };

  Table table({"shape", "variant", "out_cells", "pairs/join", "reps",
               "seconds", "mpairs/sec", "vs_scalar_sparse", "checksum"});
  table.set_title("Min-plus join throughput (" + std::to_string(reps) +
                  " reps per cell)");
  Table gate({"shape", "variant", "out_cells", "pairs", "checksum",
              "identical"});
  gate.set_title("merge_kernel (deterministic columns)");

  Stopwatch total;
  bool all_identical = true;
  for (const Shape& shape : shapes) {
    Xoshiro256 rng(0x6a11 + static_cast<std::uint64_t>(shape.side));
    const dp::Box lbox({shape.side, shape.side});
    const dp::Box rbox({shape.side, shape.side});
    const dp::Box obox({2 * shape.side, 2 * shape.side});
    const std::vector<RequestCount> lflow =
        random_table(lbox, shape.occupancy, rng);
    const std::vector<RequestCount> rflow =
        random_table(rbox, shape.occupancy, rng);
    // A cap admitting most sums, so the kernel (not the cut) dominates.
    const dp::JoinInputs in{&lbox, lflow, &rbox, rflow, &obox, 80};

    dp::JoinScratch scratch;
    std::vector<RequestCount> flow(obox.size());
    std::vector<dp::Decision> dec(obox.size());
    std::uint64_t reference_checksum = 0;
    double scalar_sparse_rate = 0.0;
    for (const Variant& variant : variants) {
      // Warm the scratch and page the tables in before timing.
      dp::JoinStats stats =
          dp::join_slots(in, flow, dec, scratch, nullptr, variant.cfg);
      Stopwatch watch;
      for (std::size_t r = 0; r < reps; ++r) {
        stats = dp::join_slots(in, flow, dec, scratch, nullptr, variant.cfg);
      }
      const double seconds = watch.seconds();
      const std::uint64_t checksum = flow_checksum(flow);
      if (variant.label == "scalar_sparse") reference_checksum = checksum;
      const bool identical = checksum == reference_checksum;
      all_identical = all_identical && identical;

      const double pairs_per_sec =
          seconds > 0.0 ? static_cast<double>(stats.pairs) *
                              static_cast<double>(reps) / seconds
                        : 0.0;
      if (variant.label == "scalar_sparse") {
        scalar_sparse_rate = pairs_per_sec;
      }
      const double speedup =
          scalar_sparse_rate > 0.0 ? pairs_per_sec / scalar_sparse_rate : 0.0;
      table.add_row({shape.label, variant.label,
                     static_cast<std::int64_t>(obox.size()),
                     static_cast<std::int64_t>(stats.pairs),
                     static_cast<std::int64_t>(reps), seconds,
                     pairs_per_sec / 1e6, speedup,
                     std::to_string(checksum)});
      gate.add_row({shape.label, variant.label,
                    static_cast<std::int64_t>(obox.size()),
                    static_cast<std::int64_t>(stats.pairs),
                    std::to_string(checksum),
                    std::string(identical ? "yes" : "NO")});
    }
  }

  bench::emit(table, "merge_kernel", total.seconds());
  const std::string json_path = bench::out_path("BENCH_merge_kernel.json");
  gate.save_json(json_path);
  std::cout << "\n(JSON written to " << json_path << ")\n";
  if (!all_identical) {
    std::cout << "FAIL: kernel variants disagree on joined flows\n";
    return 1;
  }
  std::cout << "all kernel variants bit-identical\n";
  return 0;
}
