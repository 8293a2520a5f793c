#include "casvm/kernel/row_cache.hpp"

#include <gtest/gtest.h>

#include "casvm/data/synth.hpp"
#include "casvm/support/error.hpp"

namespace casvm::kernel {
namespace {

data::Dataset makeData(std::size_t rows = 30) {
  data::MixtureSpec spec;
  spec.samples = rows;
  spec.features = 5;
  spec.seed = 21;
  return data::generateMixture(spec);
}

TEST(RowCacheTest, ValuesMatchDirectEvaluation) {
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const auto row = cache.row(3);
  ASSERT_EQ(row.size(), ds.rows());
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(row[j], static_cast<float>(k.eval(ds, 3, j)));
  }
}

TEST(RowCacheTest, HitsAndMissesCounted) {
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  cache.row(0);
  cache.row(0);
  cache.row(1);
  cache.row(0);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(RowCacheTest, EvictsLeastRecentlyUsed) {
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  // Budget for exactly two rows.
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(float));
  ASSERT_EQ(cache.capacityRows(), 2u);
  cache.row(0);  // miss
  cache.row(1);  // miss
  cache.row(0);  // hit (0 becomes MRU)
  cache.row(2);  // miss, evicts 1
  cache.row(0);  // hit
  cache.row(1);  // miss again (was evicted)
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(RowCacheTest, EvictedRowRecomputedCorrectly) {
  const auto ds = makeData(10);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(float));  // two rows
  cache.row(0);
  cache.row(1);
  cache.row(2);  // evicts row 0
  const auto row0 = cache.row(0);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(row0[j], static_cast<float>(k.eval(ds, 0, j)));
  }
}

TEST(RowCacheTest, ByteBudgetHoldsTwiceTheRowsOfADoubleCache) {
  // Rows are stored as float: the bytes of four double rows hold eight,
  // and all eight stay resident.
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 4 * ds.rows() * sizeof(double));
  ASSERT_EQ(cache.capacityRows(), 8u);
  for (std::size_t i = 0; i < 8; ++i) (void)cache.row(i);
  for (std::size_t i = 0; i < 8; ++i) (void)cache.row(i);
  EXPECT_EQ(cache.misses(), 8u);
  EXPECT_EQ(cache.hits(), 8u);
}

TEST(RowCacheTest, TinyBudgetStillGrantsTwoRows) {
  // SMO holds spans to two rows of the same iteration, so the cache never
  // shrinks below two slots no matter the budget.
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1);
  EXPECT_EQ(cache.capacityRows(), 2u);
  const auto a = cache.row(5);
  const auto b = cache.row(6);
  EXPECT_NE(a.data(), b.data());  // both rows live simultaneously
  EXPECT_EQ(a.size(), ds.rows());
}

TEST(RowCacheTest, OutOfRangeRowThrows) {
  const auto ds = makeData(10);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  EXPECT_THROW((void)cache.row(10), Error);
}

TEST(RowCacheTest, PinnedRowsSurviveEvictionPressure) {
  // The solver's exact usage at the capacity floor: two pinned rows, then
  // further fills. Eviction must never recycle a pinned slot's backing
  // vector, even when every budgeted slot is pinned.
  const auto ds = makeData(12);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(float));
  ASSERT_EQ(cache.capacityRows(), 2u);
  const auto rowA = cache.row(0);
  cache.pin(0);
  const auto genA = cache.generation(0);
  const auto rowB = cache.row(1);
  cache.pin(1);
  const auto genB = cache.generation(1);
  EXPECT_EQ(cache.pinnedRows(), 2u);
  // Both slots pinned: these fills must grow past the budget, not recycle.
  (void)cache.row(2);
  (void)cache.row(3);
  cache.checkLive(0, genA);
  cache.checkLive(1, genB);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(rowA[j], static_cast<float>(k.eval(ds, 0, j)));
    EXPECT_EQ(rowB[j], static_cast<float>(k.eval(ds, 1, j)));
  }
  cache.unpin(0);
  cache.unpin(1);
  EXPECT_EQ(cache.pinnedRows(), 0u);
}

TEST(RowCacheTest, PinsNest) {
  const auto ds = makeData(8);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 1 << 20);
  (void)cache.row(4);
  cache.pin(4);
  cache.pin(4);
  EXPECT_EQ(cache.pinnedRows(), 1u);
  cache.unpin(4);
  EXPECT_EQ(cache.pinnedRows(), 1u);  // still pinned once
  cache.unpin(4);
  EXPECT_EQ(cache.pinnedRows(), 0u);
}

TEST(RowCacheTest, GenerationDetectsEviction) {
  const auto ds = makeData(10);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(float));
  (void)cache.row(0);
  const auto gen = cache.generation(0);
  ASSERT_NE(gen, 0u);
  cache.checkLive(0, gen);   // cached: passes
  (void)cache.row(1);
  (void)cache.row(2);        // evicts row 0
  EXPECT_EQ(cache.generation(0), 0u);
  EXPECT_THROW(cache.checkLive(0, gen), Error);  // use-after-evict tripwire
  (void)cache.row(0);        // refilled under a fresh generation
  EXPECT_NE(cache.generation(0), gen);
  EXPECT_THROW(cache.checkLive(0, gen), Error);  // stale generation rejected
}

TEST(RowCacheTest, PartialFillComputesActiveEntriesOnly) {
  // Large enough that the small active sets below stay under the
  // full-fill cutoff (active * 4 < rows) and genuinely fill partially.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const std::vector<std::size_t> active = {0, 2, 5, 9};
  const auto row = cache.row(3, active);
  EXPECT_EQ(cache.partialFills(), 1u);
  for (std::size_t j : active) {
    EXPECT_EQ(row[j], static_cast<float>(k.eval(ds, 3, j)));
  }
  // A shrunk active set (subset of the fill set) is served from the same
  // partial slot.
  const std::vector<std::size_t> shrunk = {2, 9};
  (void)cache.row(3, shrunk);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.partialFills(), 1u);
}

TEST(RowCacheTest, FullReadUpgradesPartialFill) {
  // Large enough that the small active sets below stay under the
  // full-fill cutoff (active * 4 < rows) and genuinely fill partially.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const std::vector<std::size_t> active = {1, 4, 7};
  (void)cache.row(3, active);
  const auto full = cache.row(3);  // upgrade: counted as a miss
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(full[j], static_cast<float>(k.eval(ds, 3, j)));
  }
}

TEST(RowCacheTest, InvalidatePartialDropsOnlyPartialRows) {
  // Large enough that the small active sets below stay under the
  // full-fill cutoff (active * 4 < rows) and genuinely fill partially.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 1 << 20);
  const std::vector<std::size_t> active = {0, 1, 2};
  (void)cache.row(5, active);  // partial
  (void)cache.row(6);          // full
  cache.invalidatePartial();
  EXPECT_EQ(cache.generation(5), 0u);  // dropped
  EXPECT_NE(cache.generation(6), 0u);  // kept
  // Re-reading the dropped row over a *grown* active set recomputes it.
  const std::vector<std::size_t> grown = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto row = cache.row(5, grown);
  for (std::size_t j : grown) {
    EXPECT_EQ(row[j], static_cast<float>(k.eval(ds, 5, j)));
  }
}

}  // namespace
}  // namespace casvm::kernel
