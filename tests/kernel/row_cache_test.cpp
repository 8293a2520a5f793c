#include "casvm/kernel/row_cache.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

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

/// Exact rows, counting the fills the cache asks for, with a fill width of
/// `width` rows per pass, whatever this CPU's tile pass serves: the cases
/// below pin four (the width AVX2 and portable hosts fill at) or eight
/// (AVX-512's), so their counts hold on every host.
class CountingSource final : public RowSource {
 public:
  CountingSource(const Kernel& k, const data::Dataset& ds, std::size_t width)
      : exact_(k, ds), width_(width) {}
  std::size_t rows() const override { return exact_.rows(); }
  void fillRow(std::size_t i, std::span<CacheValue> out) override {
    ++singles;
    exact_.fillRow(i, out);
  }
  void fillRows(std::span<const std::size_t> rows,
                std::span<const std::span<CacheValue>> outs) override {
    multis.emplace_back(rows.begin(), rows.end());
    exact_.fillRows(rows, outs);
  }
  std::size_t fillWidth() const override { return width_; }
  void fillRowSubset(std::size_t i, std::span<const std::size_t> active,
                     std::span<CacheValue> out) override {
    ++subsets;
    exact_.fillRowSubset(i, active, out);
  }
  void fillDiagonal(std::span<double> out) override {
    exact_.fillDiagonal(out);
  }
  bool preferFullFill(std::size_t activeCount) const override {
    return exact_.preferFullFill(activeCount);
  }

  std::size_t singles = 0;
  std::vector<std::vector<std::size_t>> multis;  ///< each fillRows call
  std::size_t subsets = 0;

 private:
  ExactRowSource exact_;
  std::size_t width_;
};

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
  cache.row(2);  // evicts row 1: it entered cold and was not read again
  ASSERT_EQ(cache.generation(1), 0u);
  const auto row1 = cache.row(1);
  EXPECT_EQ(cache.misses(), 4u);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(row1[j], static_cast<float>(k.eval(ds, 1, j)));
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
  (void)cache.row(1);
  const auto gen = cache.generation(1);
  ASSERT_NE(gen, 0u);
  cache.checkLive(1, gen);   // cached: passes
  (void)cache.row(2);        // evicts row 1, the coldest
  EXPECT_EQ(cache.generation(1), 0u);
  EXPECT_THROW(cache.checkLive(1, gen), Error);  // use-after-evict tripwire
  (void)cache.row(1);        // refilled under a fresh generation
  EXPECT_NE(cache.generation(1), gen);
  EXPECT_THROW(cache.checkLive(1, gen), Error);  // stale generation rejected
}

TEST(RowCacheTest, ScanLongerThanCapacityKeepsMostRows) {
  // A cyclic sweep of capacity + 1 rows is LRU's worst case: each row is
  // evicted just before it comes back, so LRU hits nothing. Filled rows
  // enter cold, so the sweep's misses recycle one slot and the other
  // capacity - 1 rows stay resident.
  const auto ds = makeData();
  const Kernel k(KernelParams::gaussian(0.4));
  const std::size_t capacity = 8;
  RowCache cache(k, ds, capacity * ds.rows() * sizeof(float));
  ASSERT_EQ(cache.capacityRows(), capacity);
  for (std::size_t i = 0; i <= capacity; ++i) (void)cache.row(i);
  EXPECT_EQ(cache.hits(), 0u);
  for (int sweep = 1; sweep <= 4; ++sweep) {
    const std::size_t before = cache.hits();
    for (std::size_t i = 0; i <= capacity; ++i) (void)cache.row(i);
    EXPECT_GE(cache.hits() - before, capacity - 1) << "sweep " << sweep;
  }
}

TEST(RowCacheTest, RetainedRowsOutliveTheRest) {
  const auto ds = makeData(16);
  const Kernel k(KernelParams::linear());
  RowCache cache(k, ds, 3 * ds.rows() * sizeof(float));
  ASSERT_EQ(cache.capacityRows(), 3u);
  (void)cache.row(0);
  cache.retain(0, true);
  const auto gen0 = cache.generation(0);
  // Row 0 is not read again, so LRU would evict it first. Rows 1 and 2
  // are read after it, and twice, yet every miss takes an unretained
  // slot while one is unpinned.
  for (std::size_t i : {1, 2}) {
    (void)cache.row(i);
    (void)cache.row(i);
  }
  for (std::size_t i = 3; i < 8; ++i) (void)cache.row(i);
  EXPECT_EQ(cache.generation(0), gen0);
  EXPECT_EQ(cache.generation(1), 0u);
  EXPECT_NE(cache.generation(2), 0u);
  EXPECT_NE(cache.generation(7), 0u);

  // With every unretained row pinned, a miss takes the retained row.
  cache.pin(2);
  cache.pin(7);
  (void)cache.row(8);
  EXPECT_EQ(cache.generation(0), 0u);
  cache.unpin(2);
  cache.unpin(7);

  // Pinned retained rows are never recycled: 7 and 8 are retained, 8 last
  // (the cold end), and with 2 and 8 pinned the miss takes 7.
  const auto row8 = cache.row(8);
  const auto gen8 = cache.generation(8);
  cache.retain(7, true);
  cache.retain(8, true);
  cache.pin(2);
  cache.pin(8);
  (void)cache.row(9);
  EXPECT_EQ(cache.generation(7), 0u);
  cache.checkLive(8, gen8);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(row8[j], static_cast<float>(k.eval(ds, 8, j)));
  }
  cache.unpin(2);
  cache.unpin(8);

  // A released row joins the cold end of the unretained list: it is the
  // next victim, ahead of row 9, which entered cold before it.
  cache.retain(8, false);
  (void)cache.row(10);
  EXPECT_EQ(cache.generation(8), 0u);
  EXPECT_NE(cache.generation(9), 0u);
  EXPECT_NE(cache.generation(2), 0u);
  EXPECT_EQ(cache.pinnedRows(), 0u);
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
  (void)cache.row(7, active);  // partial, retained
  cache.retain(7, true);
  (void)cache.row(8);          // full, retained
  cache.retain(8, true);
  cache.invalidatePartial();
  EXPECT_EQ(cache.generation(5), 0u);  // dropped
  EXPECT_NE(cache.generation(6), 0u);  // kept
  EXPECT_EQ(cache.generation(7), 0u);  // dropped from the retained list too
  EXPECT_NE(cache.generation(8), 0u);  // kept
  // Re-reading the dropped row over a *grown* active set recomputes it.
  const std::vector<std::size_t> grown = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto row = cache.row(5, grown);
  for (std::size_t j : grown) {
    EXPECT_EQ(row[j], static_cast<float>(k.eval(ds, 5, j)));
  }
}

TEST(RowCacheTest, PairFetchFillsTwoMissesInOnePass) {
  // Large enough that `few` stays under the full-fill cutoff.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  CountingSource src(k, ds, 4);
  RowCache cache(src, 1 << 20);
  const std::vector<std::size_t> few = {1, 4, 7};
  (void)cache.row(3, few);  // a partial slot, upgraded by the pair below
  const auto [a, b] = cache.rows(3, 8);
  ASSERT_EQ(src.multis.size(), 1u);
  EXPECT_EQ(src.multis[0], (std::vector<std::size_t>{3, 8}));
  EXPECT_EQ(src.singles, 0u);
  EXPECT_EQ(cache.fillSweeps(), 1u);
  EXPECT_EQ(cache.aheadFills(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.pinnedRows(), 2u);  // both returned pinned
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(a[j], static_cast<float>(k.eval(ds, 3, j))) << "j=" << j;
    EXPECT_EQ(b[j], static_cast<float>(k.eval(ds, 8, j))) << "j=" << j;
  }
  cache.unpin(3);
  cache.unpin(8);
  (void)cache.rows(8, 3);  // both cached now
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(src.multis.size(), 1u);
  cache.unpin(8);
  cache.unpin(3);
  EXPECT_EQ(cache.pinnedRows(), 0u);

  // Lookahead. A pair fetch that misses also fills the first uncached
  // candidates in its pass, up to the source's width, into free slots
  // only, at the cold end; rows ahead are never pinned, never evict, and
  // hold what fillRow gives.
  ExactRowSource exact(k, ds);
  const std::size_t budget = 7 * ds.rows() * sizeof(float);
  CountingSource wide(k, ds, 4);
  RowCache ahead(wide, budget);
  ASSERT_EQ(ahead.capacityRows(), 7u);
  (void)ahead.row(9);
  const auto gen9 = ahead.generation(9);

  // Width four less the two missing rows leaves room for two: the pair
  // itself, the resident row 9 and the repeated 2 are skipped.
  EXPECT_EQ(ahead.aheadRoom(0, 1), 2u);
  const std::vector<std::size_t> ranked = {1, 9, 2, 2, 0, 3, 4};
  (void)ahead.rows(0, 1, RowCache::Ahead{ranked});
  ASSERT_EQ(wide.multis.size(), 1u);
  EXPECT_EQ(wide.multis[0], (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(ahead.aheadFills(), 2u);
  EXPECT_EQ(ahead.misses(), 3u);  // 9, 0 and 1: demand misses only
  EXPECT_EQ(ahead.fillSweeps(), 2u);
  EXPECT_EQ(ahead.pinnedRows(), 2u);  // the pair, not the rows ahead
  EXPECT_EQ(ahead.generation(9), gen9);
  EXPECT_LT(ahead.generation(0), ahead.generation(1));
  EXPECT_LT(ahead.generation(1), ahead.generation(2));
  EXPECT_LT(ahead.generation(2), ahead.generation(3));
  EXPECT_EQ(ahead.generation(4), 0u);
  ahead.unpin(0);
  ahead.unpin(1);

  // The cache fills up. Room is the width less the demand row: the first
  // candidate takes the last free slot, the second waits in the unread
  // list (at most one row in a cache of seven) on the slot of row 3, the
  // coldest unpinned main row, and the third finds that list full with a
  // row of this very pass, so it is not filled.
  std::vector<std::uint64_t> gens;
  for (std::size_t r : {9, 0, 1, 2}) gens.push_back(ahead.generation(r));
  const std::vector<std::size_t> more = {5, 6, 7};
  EXPECT_EQ(ahead.aheadRoom(4, 0), 3u);
  (void)ahead.rows(4, 0, RowCache::Ahead{more});
  EXPECT_EQ(wide.multis.back(), (std::vector<std::size_t>{4, 5, 6}));
  EXPECT_EQ(ahead.aheadFills(), 4u);
  EXPECT_EQ(ahead.generation(3), 0u);
  EXPECT_EQ(ahead.generation(7), 0u);
  std::size_t at = 0;
  for (std::size_t r : {9, 0, 1, 2}) {
    EXPECT_EQ(ahead.generation(r), gens[at++]) << "row " << r;
  }
  EXPECT_EQ(ahead.pinnedRows(), 2u);
  ahead.unpin(4);
  ahead.unpin(0);

  // The next miss evicts row 5, filled ahead into a free slot, which
  // entered coldest and was never read; row 6 waits unread and survives.
  const auto gen6 = ahead.generation(6);
  EXPECT_EQ(ahead.aheadRoom(8, 0), 3u);
  (void)ahead.rows(8, 0);
  EXPECT_EQ(ahead.generation(5), 0u);
  EXPECT_EQ(ahead.generation(6), gen6);
  EXPECT_EQ(ahead.generation(9), gen9);
  EXPECT_EQ(ahead.aheadFills(), 4u);
  ahead.unpin(8);
  ahead.unpin(0);
  EXPECT_EQ(ahead.pinnedRows(), 0u);
  std::vector<double> row(ds.rows());
  for (std::size_t r : {2, 6}) {
    exact.fillRow(r, row);
    const auto cached = ahead.row(r);
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      EXPECT_EQ(cached[j], static_cast<float>(row[j])) << r << " j=" << j;
    }
  }

  // A width-1 source shares no pass between rows: no room ahead, and
  // misses fill without candidates.
  CountingSource narrow(k, ds, 1);
  RowCache single(narrow, budget);
  EXPECT_EQ(single.aheadRoom(0, 1), 0u);
  (void)single.rows(0, 1, RowCache::Ahead{ranked});
  EXPECT_EQ(narrow.multis.back(), (std::vector<std::size_t>{0, 1}));
  single.unpin(0);
  single.unpin(1);
  EXPECT_EQ(single.aheadRoom(2, 0), 0u);
  (void)single.rows(2, 0, RowCache::Ahead{more});
  EXPECT_EQ(narrow.singles, 1u);
  EXPECT_EQ(single.aheadFills(), 0u);
  EXPECT_EQ(single.generation(5), 0u);
  single.unpin(2);
  single.unpin(0);
}

/// Rows the cache holds, in any list.
std::size_t heldRows(const RowCache& cache) {
  std::size_t n = 0;
  for (std::uint8_t h : cache.held()) n += h;
  return n;
}

/// A full cache of 32 rows (at width four, an unread list of two): rows
/// 0..31 read once each, so row 31 is the coldest.
struct FullCache {
  data::Dataset ds = makeData(64);
  Kernel k{KernelParams::gaussian(0.4)};
  CountingSource src;
  RowCache cache{src, 32 * ds.rows() * sizeof(float)};

  explicit FullCache(std::size_t width = 4) : src{k, ds, width} {
    for (std::size_t r = 0; r < 32; ++r) (void)cache.row(r);
  }
  /// A pair fetch of two missing rows with `candidates` ranked ahead,
  /// unpinned again.
  void fetch(std::size_t i, std::size_t j,
             std::vector<std::size_t> candidates) {
    (void)cache.rows(i, j, RowCache::Ahead{candidates});
    cache.unpin(i);
    cache.unpin(j);
  }
};

TEST(RowCacheTest, FullCacheFillsAheadIntoTheUnreadList) {
  FullCache f;
  ASSERT_EQ(f.cache.capacityRows(), 32u);
  EXPECT_EQ(f.cache.aheadRoom(32, 33), 2u);
  // The pair takes the slots of rows 31 and 30, the coldest; row 34,
  // filled ahead in the same pass, waits unread on row 29's.
  f.fetch(32, 33, {34});
  EXPECT_EQ(f.src.multis.back(), (std::vector<std::size_t>{32, 33, 34}));
  EXPECT_EQ(f.cache.aheadFills(), 1u);
  EXPECT_EQ(f.cache.misses(), 34u);
  for (std::size_t r : {29, 30, 31}) EXPECT_EQ(f.cache.generation(r), 0u);
  EXPECT_NE(f.cache.generation(34), 0u);
  EXPECT_EQ(heldRows(f.cache), 32u);
  EXPECT_EQ(f.cache.pinnedRows(), 0u);
}

TEST(RowCacheTest, UnreadRowsSurviveDemandMisses) {
  FullCache f;
  f.fetch(32, 33, {34});
  const auto gen34 = f.cache.generation(34);
  // Each demand miss takes the coldest main row's slot, never the
  // unread row's.
  for (std::size_t r = 35; r < f.ds.rows(); ++r) (void)f.cache.row(r);
  EXPECT_EQ(f.cache.generation(34), gen34);
  EXPECT_EQ(heldRows(f.cache), 32u);
}

TEST(RowCacheTest, UnreadListGrowsToItsLimitThenDisplacesItsOldest) {
  FullCache f;
  // Below its limit of two, the list takes the coldest main rows' slots:
  // 29 and 28 after the pair's 31 and 30.
  f.fetch(32, 33, {34, 35});
  for (std::size_t r : {28, 29, 30, 31}) {
    EXPECT_EQ(f.cache.generation(r), 0u) << "row " << r;
  }
  const auto gen27 = f.cache.generation(27);
  // At its limit, each new row takes the oldest unread row's slot: 38
  // displaces 34 and 39 displaces 35, and no main row gives way to them.
  f.fetch(36, 37, {38, 39});
  EXPECT_EQ(f.src.multis.back(), (std::vector<std::size_t>{36, 37, 38, 39}));
  EXPECT_EQ(f.cache.generation(34), 0u);
  EXPECT_EQ(f.cache.generation(35), 0u);
  EXPECT_NE(f.cache.generation(38), 0u);
  EXPECT_NE(f.cache.generation(39), 0u);
  EXPECT_EQ(f.cache.generation(27), gen27);
  EXPECT_EQ(f.cache.aheadFills(), 4u);
  EXPECT_EQ(heldRows(f.cache), 32u);
}

TEST(RowCacheTest, FirstReadOfAnUnreadRowIsAHitAtTheColdEnd) {
  FullCache f;
  f.fetch(32, 33, {34});
  const auto gen34 = f.cache.generation(34);
  const std::size_t hits = f.cache.hits();
  const std::size_t misses = f.cache.misses();
  const std::size_t sweeps = f.cache.fillSweeps();
  const std::size_t singles = f.src.singles;
  const std::size_t multis = f.src.multis.size();
  const auto row = f.cache.row(34);
  EXPECT_EQ(f.cache.hits(), hits + 1);
  EXPECT_EQ(f.cache.misses(), misses);
  EXPECT_EQ(f.cache.fillSweeps(), sweeps);
  EXPECT_EQ(f.src.singles, singles);
  EXPECT_EQ(f.src.multis.size(), multis);
  EXPECT_EQ(f.cache.generation(34), gen34);
  for (std::size_t j = 0; j < f.ds.rows(); ++j) {
    EXPECT_EQ(row[j], static_cast<float>(f.k.eval(f.ds, 34, j))) << j;
  }
  // It joined the unretained list at its cold end, where a fill would
  // have put it: the next demand miss takes its slot.
  (void)f.cache.row(40);
  EXPECT_EQ(f.cache.generation(34), 0u);
  EXPECT_NE(f.cache.generation(33), 0u);
}

TEST(RowCacheTest, RowsHeldNeverExceedTheCapacity) {
  const auto ds = makeData(24);
  const Kernel k(KernelParams::gaussian(0.4));
  // Two slots: a demand miss takes the unread row's slot when the only
  // main row is pinned, and does not grow past the budget.
  {
    CountingSource src(k, ds, 4);
    RowCache cache(src, 2 * ds.rows() * sizeof(float));
    ASSERT_EQ(cache.capacityRows(), 2u);
    const std::vector<std::size_t> five = {5}, six = {6};
    (void)cache.rows(0, 0, RowCache::Ahead{five});  // 5 takes a free slot
    cache.unpin(0);
    cache.unpin(0);
    (void)cache.rows(1, 1, RowCache::Ahead{six});  // 6 waits unread on 0's
    cache.unpin(1);
    cache.unpin(1);
    EXPECT_EQ(cache.generation(0), 0u);
    EXPECT_NE(cache.generation(6), 0u);
    (void)cache.rows(2, 3);  // 2 takes 1's slot, 3 the unread row's
    EXPECT_EQ(cache.generation(6), 0u);
    EXPECT_EQ(heldRows(cache), 2u);
    cache.unpin(2);
    cache.unpin(3);
  }
  // A scripted walk over caches of two, three and seven slots: whatever
  // the pair and the candidates, the rows held stay within the capacity,
  // every held row holds its kernel row, and the rows computed are the
  // misses plus the rows filled ahead.
  std::vector<std::vector<double>> exact(ds.rows(),
                                         std::vector<double>(ds.rows()));
  ExactRowSource reference(k, ds);
  for (std::size_t r = 0; r < ds.rows(); ++r) reference.fillRow(r, exact[r]);
  for (const std::size_t slots : {2u, 3u, 7u}) {
    CountingSource src(k, ds, 4);
    RowCache cache(src, slots * ds.rows() * sizeof(float));
    ASSERT_EQ(cache.capacityRows(), slots);
    std::uint64_t state = slots;
    const auto next = [&] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::size_t>(state >> 33) % ds.rows();
    };
    for (int step = 0; step < 200; ++step) {
      const std::size_t i = next(), j = next();
      std::vector<std::size_t> candidates;
      for (int c = 0; c < 4; ++c) candidates.push_back(next());
      const auto [a, b] = cache.rows(i, j, RowCache::Ahead{candidates});
      for (std::size_t c = 0; c < ds.rows(); ++c) {
        ASSERT_EQ(a[c], static_cast<float>(exact[i][c])) << slots;
        ASSERT_EQ(b[c], static_cast<float>(exact[j][c])) << slots;
      }
      if (step % 3 == 0) cache.retain(i, true);
      cache.unpin(i);
      cache.unpin(j);
      ASSERT_LE(heldRows(cache), slots) << "step " << step;
      ASSERT_EQ(cache.pinnedRows(), 0u);
    }
    std::size_t computed = src.singles + src.subsets;
    for (const auto& m : src.multis) computed += m.size();
    EXPECT_EQ(computed, cache.misses() + cache.aheadFills()) << slots;
    EXPECT_GT(cache.aheadFills(), 0u) << slots;
    for (std::size_t r = 0; r < ds.rows(); ++r) {
      if (cache.held()[r] == 0) continue;
      const auto row = cache.row(r);
      for (std::size_t c = 0; c < ds.rows(); ++c) {
        ASSERT_EQ(row[c], static_cast<float>(exact[r][c])) << r;
      }
    }
  }
}

TEST(RowCacheTest, NarrowSourceHasNoRoomAhead) {
  // A width-1 source shares no pass: no room ahead, full cache or not,
  // and a fetch with candidates fills only its own rows.
  const auto ds = makeData(24);
  const Kernel k(KernelParams::gaussian(0.4));
  CountingSource narrow(k, ds, 1);
  RowCache cache(narrow, 3 * ds.rows() * sizeof(float));
  const std::vector<std::size_t> candidates = {7, 8, 9};
  for (std::size_t r = 0; r < 6; r += 2) {
    EXPECT_EQ(cache.aheadRoom(r, r + 1), 0u);
    (void)cache.rows(r, r + 1, RowCache::Ahead{candidates});
    cache.unpin(r);
    cache.unpin(r + 1);
  }
  EXPECT_EQ(cache.aheadFills(), 0u);
  for (std::size_t c : candidates) EXPECT_EQ(cache.generation(c), 0u);
  EXPECT_LE(heldRows(cache), 3u);
}

TEST(RowCacheTest, EightWideSourceFillsSixAheadOfAPair) {
  // Width eight less the two missing rows leaves room for six; into free
  // slots they take the cold end, unpinned.
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  CountingSource wide(k, ds, 8);
  RowCache cache(wide, 16 * ds.rows() * sizeof(float));
  ASSERT_EQ(cache.capacityRows(), 16u);
  EXPECT_EQ(cache.aheadRoom(0, 1), 6u);
  (void)cache.row(9);
  EXPECT_EQ(cache.aheadRoom(9, 1), 7u);  // one demand row: seven ahead
  const std::vector<std::size_t> ranked = {1, 9, 2, 3, 3, 4, 5, 6, 7, 8};
  (void)cache.rows(0, 1, RowCache::Ahead{ranked});
  ASSERT_EQ(wide.multis.size(), 1u);
  EXPECT_EQ(wide.multis[0],
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(cache.aheadFills(), 6u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.pinnedRows(), 2u);
  EXPECT_EQ(cache.generation(8), 0u);
  for (std::size_t r = 2; r < 8; ++r) {
    const auto row = cache.row(r);
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      ASSERT_EQ(row[j], static_cast<float>(k.eval(ds, r, j))) << r;
    }
  }
  cache.unpin(0);
  cache.unpin(1);
}

TEST(RowCacheTest, EightWideUnreadListHoldsAnEighthOfTheCache) {
  // At width eight S = 32 x 8 / 64 = 4: the list takes the coldest main
  // rows' slots until it holds four rows, then displaces its oldest.
  FullCache f(8);
  ASSERT_EQ(f.cache.capacityRows(), 32u);
  EXPECT_EQ(f.cache.aheadRoom(32, 33), 6u);
  // The pair takes rows 31 and 30; 34..37 wait unread on 29..26.
  f.fetch(32, 33, {34, 35, 36, 37});
  EXPECT_EQ(f.src.multis.back(),
            (std::vector<std::size_t>{32, 33, 34, 35, 36, 37}));
  for (std::size_t r = 26; r < 32; ++r) {
    EXPECT_EQ(f.cache.generation(r), 0u) << "row " << r;
  }
  const auto gen25 = f.cache.generation(25);
  // At its limit, each new row takes the oldest unread row's slot: the
  // pair takes the last pair's slots (the coldest main rows), 40 and 41
  // displace 34 and 35, and no other main row gives way.
  f.fetch(38, 39, {40, 41});
  for (std::size_t r : {32, 33, 34, 35}) {
    EXPECT_EQ(f.cache.generation(r), 0u) << "row " << r;
  }
  for (std::size_t r : {36, 37, 38, 39, 40, 41}) {
    EXPECT_NE(f.cache.generation(r), 0u) << "row " << r;
  }
  EXPECT_EQ(f.cache.generation(25), gen25);
  EXPECT_EQ(f.cache.aheadFills(), 6u);
  EXPECT_EQ(heldRows(f.cache), 32u);
}

TEST(RowCacheTest, PairFetchNeverRecyclesItsFirstRow) {
  // Two slots, one pinned by the caller: the pair's second claim must not
  // take the slot just claimed for its first row. Like two single fetches
  // with their pins, the cache grows past its budget instead.
  const auto ds = makeData(12);
  const Kernel k(KernelParams::gaussian(0.4));
  RowCache cache(k, ds, 2 * ds.rows() * sizeof(float));
  ASSERT_EQ(cache.capacityRows(), 2u);
  (void)cache.row(0);
  cache.pin(0);
  const auto [a, b] = cache.rows(1, 2);
  EXPECT_NE(cache.generation(1), 0u);
  EXPECT_NE(cache.generation(2), 0u);
  EXPECT_EQ(cache.pinnedRows(), 3u);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    EXPECT_EQ(a[j], static_cast<float>(k.eval(ds, 1, j))) << "j=" << j;
    EXPECT_EQ(b[j], static_cast<float>(k.eval(ds, 2, j))) << "j=" << j;
  }
  cache.unpin(0);
  cache.unpin(1);
  cache.unpin(2);
}

/// One access script replayed on two caches of three rows: pair fetches
/// on one, the solver's single fetch-and-pin sequence on the other. After
/// every step they must agree on counts, pins, values and every row's
/// generation (which rows are cached, in which fill order); the eviction
/// pressure makes the recency order show in the steps after. The second
/// replay also retains rows after each step, as the solver does for free
/// samples, so the evictions cross both lists.
TEST(RowCacheTest, PairFetchMatchesTwoSingleFetches) {
  const auto ds = makeData(48);
  const Kernel k(KernelParams::gaussian(0.4));
  const std::size_t budget = 3 * ds.rows() * sizeof(float);
  std::vector<std::size_t> all(ds.rows());
  std::iota(all.begin(), all.end(), 0);
  const std::vector<std::size_t> few = {0, 3, 6, 9, 10};  // partial fills
  const std::vector<std::size_t> many(all.begin(), all.begin() + 40);

  struct Step {
    std::size_t i, j;
    const std::vector<std::size_t>* active;  // null: full-row reads
  };
  const Step script[] = {
      {0, 1, nullptr},    // both miss: one pass
      {0, 2, nullptr},    // first hits
      {3, 1, nullptr},    // first's claim evicts second, then both fill
      {4, 5, nullptr},    // both miss at capacity
      {13, 13, nullptr},  // one row twice: a miss, then a hit
      {6, 4, &few},       // partial fills stay single
      {6, 7, nullptr},    // partial slot upgraded beside a miss
      {8, 9, &many},      // full fills under an active set share a pass
      {9, 10, &few},      // hit, then a partial fill
      {10, 11, &few},     // partial hit, partial miss
      {2, 12, nullptr},
      {12, 2, nullptr},
  };

  for (const bool retaining : {false, true}) {
    CountingSource src(k, ds, 4);
    RowCache paired(src, budget);
    RowCache single(k, ds, budget);
    ASSERT_EQ(paired.capacityRows(), 3u);
    for (const Step& st : script) {
      const auto [pi, pj] = st.active != nullptr
                                ? paired.rows(st.i, st.j, *st.active)
                                : paired.rows(st.i, st.j);
      const auto si = st.active != nullptr ? single.row(st.i, *st.active)
                                           : single.row(st.i);
      single.pin(st.i);
      const auto sj = st.active != nullptr ? single.row(st.j, *st.active)
                                           : single.row(st.j);
      single.pin(st.j);

      const std::string at = "retaining " + std::to_string(retaining) +
                             " step (" + std::to_string(st.i) + ", " +
                             std::to_string(st.j) + ")";
      EXPECT_EQ(paired.hits(), single.hits()) << at;
      EXPECT_EQ(paired.misses(), single.misses()) << at;
      EXPECT_EQ(paired.partialFills(), single.partialFills()) << at;
      EXPECT_EQ(paired.pinnedRows(), single.pinnedRows()) << at;
      for (std::size_t r = 0; r < ds.rows(); ++r) {
        EXPECT_EQ(paired.generation(r), single.generation(r))
            << at << " row " << r;
      }
      for (std::size_t c : st.active != nullptr ? *st.active : all) {
        EXPECT_EQ(pi[c], si[c]) << at << " c=" << c;
        EXPECT_EQ(pj[c], sj[c]) << at << " c=" << c;
      }
      if (retaining) {  // even rows stand in for free samples
        for (RowCache* cache : {&paired, &single}) {
          cache->retain(st.i, st.i % 2 == 0);
          cache->retain(st.j, st.j % 2 == 0);
        }
      }
      paired.unpin(st.i);
      paired.unpin(st.j);
      single.unpin(st.i);
      single.unpin(st.j);
    }
    EXPECT_EQ(single.fillSweeps(), single.misses() - single.partialFills());
    EXPECT_EQ(paired.fillSweeps(), src.singles + src.multis.size());
    EXPECT_EQ(src.multis.size(), retaining ? 6u : 5u);
    EXPECT_EQ(paired.aheadFills(), 0u);
  }
}

}  // namespace
}  // namespace casvm::kernel
