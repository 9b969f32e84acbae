// Oracle-equivalence fuzz for the merge-kernel layer (core/merge_kernel.h).
//
// The contract under test: every kernel path — sparse/dense, SIMD on/off,
// serial or sharded over a pool, lazy or full — produces flows AND
// decisions bit-identical to the textbook serial double loop with the
// "first occurrence of the minimal flow" tie-break.  Decision tables are
// uninitialized at invalid cells by design, so comparisons only cover
// cells the oracle marks valid.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dp_cache.h"
#include "core/merge_kernel.h"
#include "support/check.h"
#include "support/prng.h"
#include "support/thread_pool.h"

namespace treeplace::dp {
namespace {

struct JoinResult {
  std::vector<RequestCount> flow;
  std::vector<Decision> dec;
};

/// The reference loop the paper writes down: left-flat-major, right-flat
/// ascending, first strict minimum wins.
JoinResult naive_join(const JoinInputs& in) {
  JoinResult out;
  out.flow.assign(in.obox->size(), kInvalidFlow);
  out.dec.resize(in.obox->size());
  std::vector<int> digits;
  const auto dot_in_out = [&](const Box& box, std::size_t flat) {
    box.decode(flat, digits);
    std::size_t dot = 0;
    for (std::size_t d = 0; d < digits.size(); ++d) {
      dot += static_cast<std::size_t>(digits[d]) * in.obox->stride(d);
    }
    return dot;
  };
  for (std::size_t lf = 0; lf < in.lflow.size(); ++lf) {
    if (in.lflow[lf] == kInvalidFlow) continue;
    const std::size_t ldot = dot_in_out(*in.lbox, lf);
    for (std::size_t rf = 0; rf < in.rflow.size(); ++rf) {
      if (in.rflow[rf] == kInvalidFlow) continue;
      const RequestCount sum = in.lflow[lf] + in.rflow[rf];
      if (sum > in.cap) continue;
      const std::size_t t = ldot + dot_in_out(*in.rbox, rf);
      if (sum < out.flow[t]) {
        out.flow[t] = sum;
        out.dec[t] = Decision{static_cast<std::uint32_t>(lf),
                              static_cast<std::uint32_t>(rf), -1};
      }
    }
  }
  return out;
}

std::vector<int> random_bounds(Xoshiro256& rng, int max_dims, int max_bound) {
  const int dims = 1 + static_cast<int>(rng.uniform(0, max_dims - 1));
  std::vector<int> bounds(dims);
  for (int& b : bounds) b = static_cast<int>(rng.uniform(0, max_bound));
  return bounds;
}

std::vector<RequestCount> random_table(const Box& box, double occupancy,
                                       RequestCount max_flow,
                                       Xoshiro256& rng) {
  std::vector<RequestCount> flow(box.size(), kInvalidFlow);
  for (RequestCount& f : flow) {
    if (rng.uniform(0, 999) < static_cast<std::uint64_t>(occupancy * 1000)) {
      f = rng.uniform(0, max_flow);
    }
  }
  return flow;
}

void expect_joins_match(const JoinResult& expected,
                        std::span<const RequestCount> flow,
                        std::span<const Decision> dec,
                        const std::string& context) {
  ASSERT_EQ(expected.flow.size(), flow.size()) << context;
  for (std::size_t t = 0; t < flow.size(); ++t) {
    ASSERT_EQ(expected.flow[t], flow[t]) << context << " cell " << t;
    if (expected.flow[t] == kInvalidFlow) continue;  // dec uninitialized
    ASSERT_EQ(expected.dec[t].left, dec[t].left) << context << " cell " << t;
    ASSERT_EQ(expected.dec[t].right, dec[t].right) << context << " cell " << t;
    ASSERT_EQ(expected.dec[t].mode, dec[t].mode) << context << " cell " << t;
  }
}

Box output_box(const Box& lbox, const Box& rbox) {
  std::vector<int> bounds(lbox.bounds().size());
  for (std::size_t d = 0; d < bounds.size(); ++d) {
    bounds[d] = lbox.bounds()[d] + rbox.bounds()[d];
  }
  return Box(bounds);
}

TEST(MergeKernelTest, AllPathsMatchTheSerialOracle) {
  ThreadPool pool(4);
  JoinScratch scratch;
  Xoshiro256 rng(0x5eedu);
  const KernelConfig::Path paths[] = {KernelConfig::Path::kAuto,
                                      KernelConfig::Path::kSparse,
                                      KernelConfig::Path::kDense};
  for (int round = 0; round < 60; ++round) {
    const std::vector<int> lbounds = random_bounds(rng, 3, 6);
    std::vector<int> rbounds = lbounds;  // same dimensionality
    for (int& b : rbounds) b = static_cast<int>(rng.uniform(0, 6));
    const Box lbox(lbounds);
    const Box rbox(rbounds);
    const Box obox = output_box(lbox, rbox);
    const double locc = 0.1 + 0.3 * static_cast<double>(rng.uniform(0, 3));
    const double rocc = 0.1 + 0.3 * static_cast<double>(rng.uniform(0, 3));
    const RequestCount cap = 12;
    const std::vector<RequestCount> lflow = random_table(lbox, locc, 9, rng);
    const std::vector<RequestCount> rflow = random_table(rbox, rocc, 9, rng);
    const JoinInputs in{&lbox, lflow, &rbox, rflow, &obox, cap};
    const JoinResult expected = naive_join(in);

    std::vector<RequestCount> flow(obox.size());
    std::vector<Decision> dec(obox.size());
    for (const KernelConfig::Path path : paths) {
      for (const bool simd : {false, true}) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          KernelConfig cfg;
          cfg.simd = simd;
          cfg.path = path;
          const JoinStats stats =
              join_slots(in, flow, dec, p, scratch, nullptr, cfg);
          EXPECT_FALSE(stats.lazy);
          expect_joins_match(
              expected, flow, dec,
              "round " + std::to_string(round) + " path " +
                  std::to_string(static_cast<int>(path)) + " simd " +
                  std::to_string(simd) + " pool " + std::to_string(p != nullptr));
        }
      }
    }
  }
}

namespace {

/// Edits a few cells in place: value changes, invalidations, and newly
/// valid cells all occur.
void dirty_cells(std::vector<RequestCount>& flow, std::size_t edits,
                 Xoshiro256& rng) {
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t i = rng.uniform(0, flow.size() - 1);
    switch (rng.uniform(0, 2)) {
      case 0:
        flow[i] = kInvalidFlow;
        break;
      case 1:
        flow[i] = rng.uniform(0, 9);
        break;
      default:
        flow[i] = (flow[i] == kInvalidFlow) ? 3 : flow[i] + 1;
        break;
    }
  }
}

}  // namespace

TEST(MergeKernelTest, LazyJoinMatchesFullRebuild) {
  JoinScratch scratch;
  Xoshiro256 rng(0xfeedu);
  int lazy_runs = 0;
  int both_dirty_runs = 0;
  for (int round = 0; round < 120; ++round) {
    const std::vector<int> lbounds = random_bounds(rng, 2, 7);
    std::vector<int> rbounds = lbounds;
    for (int& b : rbounds) b = static_cast<int>(rng.uniform(1, 7));
    const Box lbox(lbounds);
    const Box rbox(rbounds);
    const Box obox = output_box(lbox, rbox);
    const RequestCount cap = 14;
    std::vector<RequestCount> lflow = random_table(lbox, 0.7, 9, rng);
    std::vector<RequestCount> rflow = random_table(rbox, 0.7, 9, rng);
    // Alternate which side(s) get dirtied: left only, right only, or both
    // (the rolling multi-delta case).
    const bool dirty_left = (round % 3) != 1;
    const bool dirty_right = (round % 3) != 0;

    // The previous solve's output, built by a full join.
    const JoinInputs old_in{&lbox, lflow, &rbox, rflow, &obox, cap};
    const JoinResult old = naive_join(old_in);

    std::vector<std::uint32_t> changed_left;
    std::vector<std::uint32_t> changed_right;
    if (dirty_left) {
      std::vector<RequestCount> dirty = lflow;
      dirty_cells(dirty, 1 + rng.uniform(0, 2), rng);
      ASSERT_TRUE(diff_tables(lflow, dirty, dirty.size(), changed_left));
      lflow = dirty;
    }
    if (dirty_right) {
      std::vector<RequestCount> dirty = rflow;
      dirty_cells(dirty, 1 + rng.uniform(0, 2), rng);
      ASSERT_TRUE(diff_tables(rflow, dirty, dirty.size(), changed_right));
      rflow = dirty;
    }
    if (changed_left.empty() && changed_right.empty()) continue;

    const JoinInputs in{&lbox, lflow, &rbox, rflow, &obox, cap};
    const JoinResult expected = naive_join(in);

    LazyJoin lazy;
    lazy.old_flow = old.flow;
    lazy.old_dec = old.dec;
    lazy.changed_left = changed_left;
    lazy.changed_right = changed_right;
    KernelConfig cfg;
    cfg.lazy_max_changed = 1.0;  // always worth attempting

    std::vector<RequestCount> flow(obox.size());
    std::vector<Decision> dec(obox.size());
    const JoinStats stats = join_slots(in, flow, dec, nullptr, scratch,
                                       &lazy, cfg);
    if (stats.lazy) {
      ++lazy_runs;
      if (!changed_left.empty() && !changed_right.empty()) ++both_dirty_runs;
      EXPECT_LE(stats.cells_skipped, obox.size());
    } else {
      EXPECT_EQ(stats.cells_skipped, 0u);
    }
    expect_joins_match(expected, flow, dec,
                       "lazy round " + std::to_string(round) + " dirty " +
                           (dirty_left ? "L" : "") +
                           (dirty_right ? "R" : ""));
  }
  // The point of the fuzz is the lazy path; make sure it actually ran,
  // including the two-dirty-operand generalization.
  EXPECT_GT(lazy_runs, 30);
  EXPECT_GT(both_dirty_runs, 10);
}

TEST(MergeKernelTest, LazyJoinPaysOnlyWhenALazyJoinCannotLose) {
  // Whenever dp::lazy_join_pays offers a lazy context and the lazy path
  // completes, it visits fewer pairs than the full join of the same
  // inputs; on tiny tables (where the rescue cap's floor dominates) it
  // declines.  A lazy join that bails is not covered: its sweeps are
  // spent before the rescue count is known.
  JoinScratch scratch;
  Xoshiro256 rng(0x1a2bu);
  int offered = 0;
  int declined = 0;
  int completed = 0;
  for (int round = 0; round < 200; ++round) {
    const std::vector<int> lbounds = random_bounds(rng, 2, 12);
    std::vector<int> rbounds = lbounds;
    for (int& b : rbounds) b = static_cast<int>(rng.uniform(0, 12));
    const Box lbox(lbounds);
    const Box rbox(rbounds);
    const Box obox = output_box(lbox, rbox);
    const RequestCount cap = 14;
    std::vector<RequestCount> lflow = random_table(lbox, 0.7, 9, rng);
    std::vector<RequestCount> rflow = random_table(rbox, 0.7, 9, rng);
    const JoinResult old = naive_join({&lbox, lflow, &rbox, rflow, &obox, cap});

    std::vector<std::uint32_t> changed_left;
    std::vector<std::uint32_t> changed_right;
    std::vector<RequestCount> dirty = lflow;
    dirty_cells(dirty, rng.uniform(0, 2), rng);
    ASSERT_TRUE(diff_tables(lflow, dirty, dirty.size(), changed_left));
    lflow = dirty;
    if (round % 2 == 0) {
      dirty = rflow;
      dirty_cells(dirty, 1, rng);
      ASSERT_TRUE(diff_tables(rflow, dirty, dirty.size(), changed_right));
      rflow = dirty;
    }

    const JoinInputs in{&lbox, lflow, &rbox, rflow, &obox, cap};
    if (!lazy_join_pays(in, changed_left.size(), changed_right.size())) {
      ++declined;
      continue;
    }
    ++offered;
    LazyJoin lazy;
    lazy.old_flow = old.flow;
    lazy.old_dec = old.dec;
    lazy.changed_left = changed_left;
    lazy.changed_right = changed_right;
    std::vector<RequestCount> flow(obox.size());
    std::vector<Decision> dec(obox.size());
    const JoinStats lazy_stats =
        join_slots(in, flow, dec, nullptr, scratch, &lazy);
    const JoinStats full_stats = join_slots(in, flow, dec, nullptr, scratch);
    if (lazy_stats.lazy) {
      ++completed;
      EXPECT_LT(lazy_stats.pairs, full_stats.pairs) << "round " << round;
    }
  }
  EXPECT_GT(declined, 20);
  EXPECT_GT(offered, 20);
  EXPECT_GT(completed, 50);
}

TEST(MergeKernelTest, DiffTablesListsChangesAndBails) {
  const std::vector<RequestCount> a{1, kInvalidFlow, 3, 4, 5};
  std::vector<std::uint32_t> out{99};
  EXPECT_TRUE(diff_tables(a, a, 0, out));
  EXPECT_TRUE(out.empty());

  std::vector<RequestCount> b = a;
  b[1] = 2;
  b[4] = kInvalidFlow;
  EXPECT_TRUE(diff_tables(a, b, 2, out));
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 4}));

  EXPECT_FALSE(diff_tables(a, b, 1, out));
}

TEST(MergeKernelTest, CompactEntriesAreAscendingWithOutputDots) {
  const Box box({2, 1});
  const Box target({4, 3});
  std::vector<RequestCount> flow(box.size(), kInvalidFlow);
  flow[1] = 7;   // (0, 1)
  flow[4] = 2;   // (2, 0)
  EntryList out;
  compact_entries(box, flow, target, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.flat[0], 1u);
  EXPECT_EQ(out.flow[0], 7u);
  EXPECT_EQ(out.dot[0], 0u * target.stride(0) + 1u * target.stride(1));
  EXPECT_EQ(out.flat[1], 4u);
  EXPECT_EQ(out.flow[1], 2u);
  EXPECT_EQ(out.dot[1], 2u * target.stride(0));
}

TEST(MergeKernelTest, ArenaRecyclesBlocksThroughSizeClasses) {
  TableArena arena;
  EXPECT_EQ(arena.used_bytes(), 0u);
  void* a = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % TableArena::kAlignment, 0u);
  EXPECT_EQ(arena.used_bytes(), 128u);  // size-class-rounded
  arena.deallocate(a, 100);
  EXPECT_EQ(arena.used_bytes(), 0u);
  // Same size class -> the freed block comes straight back.
  void* b = arena.allocate(120);
  EXPECT_EQ(b, a);
  const std::size_t reserved = arena.reserved_bytes();
  EXPECT_GT(reserved, 0u);
  // reset() recycles chunk memory without returning it to the system.
  arena.reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

TEST(MergeKernelTest, ArenaTablesReuseTheirBlockAcrossResizes) {
  TableArena arena;
  ArenaTable<RequestCount> t;
  t.assign(arena, 64, 5);
  ASSERT_EQ(t.size(), 64u);
  EXPECT_EQ(t[63], 5u);
  const void* block = t.data();
  t.resize_uninit(arena, 32);  // shrinking keeps the block
  EXPECT_EQ(t.data(), block);
  ArenaTable<RequestCount> moved = t.take();
  EXPECT_EQ(t.data(), nullptr);
  EXPECT_EQ(moved.data(), block);
  moved.clear(arena);
  EXPECT_EQ(arena.used_bytes(), 0u);
}

TEST(MergeKernelTest, BoxRejectsTablesBeyond32BitCells) {
  // 70001^2 cells > 2^32: Decision/CompactEntry store 32-bit flats, so the
  // constructor must refuse instead of silently narrowing.
  EXPECT_THROW(Box({70000, 70000}), CheckError);
  EXPECT_NO_THROW(Box({70000, 1}));
}

TEST(MergeKernelTest, PackedTableRoundTripsRandomTables) {
  Xoshiro256 rng(0xbeefu);
  for (int round = 0; round < 200; ++round) {
    const std::size_t cells = rng.uniform(0, 300);
    std::vector<RequestCount> flow(cells, kInvalidFlow);
    // Mixed density: some tables nearly empty, some nearly full, values
    // spanning all three widths.
    const std::uint64_t density = rng.uniform(0, 10);
    for (auto& cell : flow) {
      if (rng.uniform(0, 9) >= density) continue;
      switch (rng.uniform(0, 2)) {
        case 0: cell = rng.uniform(0, 0xFFFF); break;
        case 1: cell = rng.uniform(0, 0xFFFFFFFFull); break;
        default: cell = rng.uniform(0, kInvalidFlow - 1); break;
      }
    }
    const PackedTable packed = PackedTable::pack(flow);
    ASSERT_EQ(packed.cells(), cells);
    std::vector<RequestCount> out(cells, 0);
    packed.unpack(out);
    EXPECT_EQ(out, flow) << "round " << round;
  }
}

TEST(MergeKernelTest, PackedTablePicksTheNarrowestWidth) {
  const std::vector<RequestCount> small{1, kInvalidFlow, 0xFFFF};
  EXPECT_EQ(PackedTable::pack(small).width(), 2);
  const std::vector<RequestCount> medium{1, 0x10000};
  EXPECT_EQ(PackedTable::pack(medium).width(), 4);
  const std::vector<RequestCount> wide{1, 0x100000000ull};
  EXPECT_EQ(PackedTable::pack(wide).width(), 8);
  // All-invalid tables carry no payload at all.
  const std::vector<RequestCount> dead(64, kInvalidFlow);
  const PackedTable packed = PackedTable::pack(dead);
  EXPECT_TRUE(packed.runs().empty());
  EXPECT_TRUE(packed.payload().empty());
  std::vector<RequestCount> out(64, 0);
  packed.unpack(out);
  EXPECT_EQ(out, dead);
}

TEST(MergeKernelTest, PackedTableElidesDeadCells) {
  // A sparse table: the encoding must cost ~valid_cells * width, not
  // cells * 8 — the >= 2x session-bytes claim rests on this.
  std::vector<RequestCount> flow(1024, kInvalidFlow);
  for (std::size_t i = 0; i < flow.size(); i += 16) flow[i] = i;
  const PackedTable packed = PackedTable::pack(flow);
  EXPECT_EQ(packed.width(), 2);
  EXPECT_LE(packed.heap_bytes(),
            flow.size() * sizeof(RequestCount) / 4);
}

TEST(MergeKernelTest, PackedDecisionsRoundTripAtNarrowWidths) {
  Xoshiro256 rng(0xdecau);
  for (int round = 0; round < 100; ++round) {
    const std::size_t cells = rng.uniform(0, 200);
    const std::uint32_t left_max =
        round % 3 == 0 ? 0xFF : round % 3 == 1 ? 0xFFFF : 0xFFFFFF;
    std::vector<Decision> dec(cells);
    for (Decision& d : dec) {
      d.left = static_cast<std::uint32_t>(rng.uniform(0, left_max));
      d.right = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFF));
      d.mode = static_cast<std::int8_t>(
          static_cast<int>(rng.uniform(0, 5)) - 1);
    }
    const PackedDecisions packed = PackedDecisions::pack(dec);
    EXPECT_LE(packed.cell_bytes(), 7);  // never the padded 12 bytes
    std::vector<Decision> out(cells);
    packed.unpack(out);
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_EQ(out[i].left, dec[i].left);
      EXPECT_EQ(out[i].right, dec[i].right);
      EXPECT_EQ(out[i].mode, dec[i].mode);
    }
  }
}

TEST(MergeKernelTest, PackedDecisionsElideDeadCellsBehindFlowRuns) {
  // A sparse companion flow table shrinks the decision encoding to the
  // valid cells (plus the shared run list); dead cells decode zeroed and
  // garbage operands in them must not widen the chosen flats.
  Xoshiro256 rng(0xe11du);
  std::vector<RequestCount> flow(512, kInvalidFlow);
  std::vector<Decision> dec(512);
  for (std::size_t i = 0; i < dec.size(); ++i) {
    dec[i].left = 0xFFFFFFFFu;  // garbage everywhere...
    dec[i].right = 0xFFFFFFFFu;
    dec[i].mode = -1;
    if (i % 8 == 0) {  // ...except the valid 1/8 of cells
      flow[i] = static_cast<RequestCount>(rng.uniform(0, 1000));
      dec[i].left = static_cast<std::uint32_t>(rng.uniform(0, 200));
      dec[i].right = static_cast<std::uint32_t>(rng.uniform(0, 200));
      dec[i].mode = static_cast<std::int8_t>(rng.uniform(0, 3));
    }
  }
  const PackedDecisions packed = PackedDecisions::pack(dec, flow);
  EXPECT_TRUE(packed.elided());
  EXPECT_EQ(packed.cell_bytes(), 3);  // garbage did not force width 4
  EXPECT_LE(packed.heap_bytes(), dec.size() * sizeof(Decision) / 4);
  std::vector<Decision> out(dec.size());
  packed.unpack(out);
  for (std::size_t i = 0; i < dec.size(); ++i) {
    if (flow[i] != kInvalidFlow) {
      EXPECT_EQ(out[i].left, dec[i].left);
      EXPECT_EQ(out[i].right, dec[i].right);
      EXPECT_EQ(out[i].mode, dec[i].mode);
    } else {
      EXPECT_EQ(out[i].left, 0u);
      EXPECT_EQ(out[i].right, 0u);
      EXPECT_EQ(out[i].mode, -1);
    }
  }
}

TEST(MergeKernelTest, PackedDecisionsFromPartsRejectsCorruptShapes) {
  using Run = PackedTable::Run;
  const auto payload = [](std::size_t n) {
    return std::vector<std::uint8_t>(n, 0);
  };
  EXPECT_NO_THROW(PackedDecisions::from_parts(4, 0, 1, 2, {}, payload(16)));
  // Bad widths.
  EXPECT_THROW(PackedDecisions::from_parts(4, 0, 3, 2, {}, payload(24)),
               CheckError);
  EXPECT_THROW(PackedDecisions::from_parts(4, 0, 1, 8, {}, payload(40)),
               CheckError);
  // Payload size mismatch.
  EXPECT_THROW(PackedDecisions::from_parts(4, 0, 1, 2, {}, payload(15)),
               CheckError);
  // Dense encodings must not carry runs.
  EXPECT_THROW(
      PackedDecisions::from_parts(4, 0, 1, 2, {Run{0, 4}}, payload(16)),
      CheckError);
  // Elided: run out of bounds / overlapping, payload vs covered cells.
  EXPECT_NO_THROW(
      PackedDecisions::from_parts(8, 1, 1, 2, {Run{2, 2}}, payload(8)));
  EXPECT_THROW(
      PackedDecisions::from_parts(8, 1, 1, 2, {Run{6, 4}}, payload(16)),
      CheckError);
  EXPECT_THROW(PackedDecisions::from_parts(
                   8, 1, 1, 2, {Run{2, 2}, Run{1, 2}}, payload(16)),
               CheckError);
  EXPECT_THROW(
      PackedDecisions::from_parts(8, 1, 1, 2, {Run{2, 2}}, payload(12)),
      CheckError);
}

TEST(MergeKernelTest, PackedTableFromPartsRejectsCorruptShapes) {
  using Run = PackedTable::Run;
  const auto payload = [](std::size_t n) {
    return std::vector<std::uint8_t>(n, 0);
  };
  // Valid baseline.
  EXPECT_NO_THROW(PackedTable::from_parts(8, 2, {Run{1, 3}}, payload(6)));
  // Bad width.
  EXPECT_THROW(PackedTable::from_parts(8, 3, {Run{1, 3}}, payload(9)),
               CheckError);
  // Zero-length run.
  EXPECT_THROW(PackedTable::from_parts(8, 2, {Run{1, 0}}, payload(0)),
               CheckError);
  // Overlapping / non-ascending runs.
  EXPECT_THROW(
      PackedTable::from_parts(8, 2, {Run{0, 3}, Run{2, 2}}, payload(10)),
      CheckError);
  // Run past the end of the table.
  EXPECT_THROW(PackedTable::from_parts(8, 2, {Run{6, 3}}, payload(6)),
               CheckError);
  // Payload size mismatch.
  EXPECT_THROW(PackedTable::from_parts(8, 2, {Run{1, 3}}, payload(7)),
               CheckError);
}

}  // namespace
}  // namespace treeplace::dp
