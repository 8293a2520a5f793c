#pragma once

/// \file row_cache.hpp
/// Scan-resistant cache of kernel matrix rows.
///
/// SMO touches two kernel rows per iteration (the high and low working-set
/// samples). The cache holds a byte budget of rows and keeps them by two
/// rules:
///  - Cold insertion. A filled row enters at the cold end of its recency
///    list and a hit moves it to the hot end, so a row read once is the
///    next victim and only a row read again displaces older ones (the LRU
///    insertion policy of Qureshi et al., ISCA 2007). When a part's
///    working set of rows exceeds the budget, SMO comes back to many rows
///    just after a budget's worth of other rows: a cyclic sweep, in which
///    LRU evicts every row shortly before its reuse. Cold insertion keeps
///    most of the budget resident through such a sweep.
///  - Free-SV retention. After each step the solver reports, through
///    retain(), whether each of the two moved samples is free
///    (0 < alpha < C). Free samples sit in both index sets and keep being
///    selected, while samples pinned at a bound rarely re-enter the
///    working set (the observation behind adaptive shrinking, Narasimhan
///    et al., 1406.5161). Retained rows live in a second recency list and
///    are evicted only when no unpinned row of the first is left. A row
///    that changes list joins the cold end of its new list.
/// A victim is the coldest unpinned row of a list: two std::lists and
/// splices, O(1) per miss. DESIGN.md §2.7 has the replayed fill counts
/// (LRU, cold insertion, retention and Belady's optimum).
///
/// Rows are stored as float, as LIBSVM's Qfloat cache stores them: the
/// source fills each row in double, the cache rounds every value once, on
/// store, and a byte budget holds twice the rows a double cache would.
/// That rounding is the one kernel-value precision every solver trains
/// on: code that computes kernel values outside the cache and must agree
/// with a cached solve (the global methods' fresh columns and pair-step
/// eta) passes them through asCached().
///
/// Rows are produced by a RowSource (see row_source.hpp): the exact kernel
/// by default, or a low-rank approximation with the same row interface.
///
/// Pinning contract: the solver holds spans to at most two rows of one
/// iteration simultaneously. It pins each row right after fetching it (or
/// fetches both pinned with rows()) and unpins both before the next fetch;
/// a pinned row is never evicted, so an eviction can never recycle a live
/// span's backing vector. In debug builds
/// every fill also bumps a per-slot generation counter, and checkLive()
/// asserts that a captured (row, generation) pair is still the cached one —
/// turning silent use-after-evict bugs into immediate failures.
///
/// While the solver is shrinking, rows can be fetched with the active index
/// set: evicted-row refills then compute only the active entries (a partial
/// fill), so shrunk runs stop paying full-m row computations. Partial fills
/// are invalidated wholesale by invalidatePartial() when the active set
/// grows back (unshrink), because a partial row is only valid for index
/// sets that are subsets of the one it was filled with.
///
/// When an iteration knows both its rows before reading either (SMO's
/// first-order selection), rows() fetches them together: the rows that
/// miss and take full fills are computed in one RowSource::fillRows pass,
/// which streams the source's data once for all of them. The cache decides
/// only when a row is computed, never its values, so a pair fetch leaves
/// the same rows, counts and generations as two single fetches.
///
/// Lookahead fills. A pass over dense tiles costs about the same for one
/// row as for four, and the rows SMO asks for next are predictable: free
/// samples sit at the violator extremes and keep being selected. So when a
/// full pair fetch misses and the cache still has free slots, the pass
/// also fills rows the caller ranks as wanted next (Ahead), up to the
/// source's fill width: candidates already cached, repeated or in the pair
/// are skipped. Rows filled ahead take free slots only, so they never
/// evict a row, and they enter at the cold end of the unretained list, so
/// they are the first victims once the cache is full; from then on a
/// fetch fills only its own rows, as it would without lookahead. The
/// fetch of rows i and j is itself unchanged: the rows ahead are claimed
/// after both lookups, so i's and j's counts, recency moves, pins and
/// generations are those of two single fetches. misses() still counts
/// demand misses; aheadFills() counts the rows filled ahead and
/// fillSweeps() the full-row fills asked of the source. DESIGN.md §2.7 has
/// the replayed sweep counts.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/row_source.hpp"

namespace casvm::kernel {

/// Stored precision of a cached kernel value.
using CacheValue = float;

/// `k` rounded as the row cache stores it, widened back to double.
inline double asCached(double k) {
  return static_cast<double>(static_cast<CacheValue>(k));
}

/// Caches rows of the kernel matrix of one dataset.
/// Not thread-safe; each solver instance owns its cache.
class RowCache {
 public:
  /// Cache over the exact kernel of `ds`. `budgetBytes` bounds the cached
  /// data (each row is rows()*sizeof(CacheValue) = rows()*4 bytes); at
  /// least TWO row slots are always granted, because SMO holds spans to the
  /// high and low rows of one iteration simultaneously. Up to four double
  /// rows of fill scratch (two, or the source's fill width if larger) sit
  /// outside the budget.
  RowCache(const Kernel& kernel, const data::Dataset& ds,
           std::size_t budgetBytes);

  /// Cache over an arbitrary row producer (exact or low-rank); `source`
  /// must outlive the cache.
  RowCache(RowSource& source, std::size_t budgetBytes);

  /// Kernel row i (length = dataset rows), each value rounded to
  /// CacheValue; computed on miss. The span stays valid until its row is
  /// evicted; pinned rows are never evicted. A cached partial fill of row
  /// i is upgraded to a full row (counted as a miss).
  std::span<const CacheValue> row(std::size_t i);

  /// Kernel row i for reads restricted to `active` (ascending solver
  /// active-set indices). On a miss only the active entries are computed;
  /// entries outside `active` are unspecified. Valid until eviction or
  /// invalidatePartial(); `active` must be a subset of the index set the
  /// row was last filled with (guaranteed while the solver only shrinks).
  std::span<const CacheValue> row(std::size_t i,
                                  std::span<const std::size_t> active);

  using RowPair =
      std::pair<std::span<const CacheValue>, std::span<const CacheValue>>;

  /// Rows a full pair fetch may fill ahead of demand, most wanted first.
  struct Ahead {
    std::span<const std::size_t> candidates;
  };

  /// Rows i and j, both pinned on return (the caller unpins both). Hits,
  /// misses, recency order, pins and generations of rows i and j are
  /// exactly those of row(i); pin(i); row(j); pin(j), but the rows that
  /// take a full fill are filled in one RowSource::fillRows pass. When that
  /// pass runs and slots are free, it also fills the first uncached
  /// candidates of `ahead` that fit the source's fill width and the free
  /// slots, each into a free slot at the cold end of the unretained list.
  RowPair rows(std::size_t i, std::size_t j, Ahead ahead = {});

  /// rows() under the active-set rules of row(i, active): partial fills
  /// stay one row each, and no row is filled ahead.
  RowPair rows(std::size_t i, std::size_t j,
               std::span<const std::size_t> active);

  /// How many candidates a full pair fetch of rows i and j would fill
  /// ahead, at most: zero unless row i or j needs a fill and a slot is
  /// still free after theirs; otherwise the free slots left, capped by the
  /// source's fill width less the demand rows.
  std::size_t aheadRoom(std::size_t i, std::size_t j) const;

  /// Whether row i is cached (a full or a partial fill). The ranking of
  /// lookahead candidates tests it for every sample.
  bool holds(std::size_t i) const { return slot_[i] != nullptr; }

  /// Pin row i (must be currently cached): excluded from eviction until
  /// unpinned. Pins nest.
  void pin(std::size_t i);
  void unpin(std::size_t i);

  /// Move row i (must be currently cached) to the cold end of the retained
  /// list (`keep`) or of the unretained one; a no-op when it is already in
  /// that list. The solver retains the rows of free samples.
  void retain(std::size_t i, bool keep);

  /// Drop every partial fill (full rows stay). Call when the solver's
  /// active set grows back to the full problem (unshrink); stale partial
  /// rows from an earlier shrink phase would otherwise serve garbage for
  /// indices they never computed.
  void invalidatePartial();

  /// Generation of the cached row i; bumped every time the slot holding i
  /// is (re)filled. Returns 0 when i is not cached. Capture after row() and
  /// pass to checkLive() to assert a span is still backed by live storage.
  std::uint64_t generation(std::size_t i) const;

  /// Debug-mode use-after-evict tripwire: asserts row i is still cached
  /// with generation `gen`. Compiled out under CASVM_NO_ASSERT.
  void checkLive(std::size_t i, std::uint64_t gen) const;

  std::size_t hits() const { return hits_; }
  /// Demand misses: reads that found no usable row.
  std::size_t misses() const { return misses_; }
  std::size_t capacityRows() const { return capacityRows_; }
  std::size_t pinnedRows() const { return pinned_; }
  /// Misses served by a partial (active-set-only) fill.
  std::size_t partialFills() const { return partialFills_; }
  /// Rows filled ahead of demand by pair fetches.
  std::size_t aheadFills() const { return aheadFills_; }
  /// Full-row fills asked of the source: one per fillRow or fillRows call.
  std::size_t fillSweeps() const { return fillSweeps_; }

 private:
  struct Slot;
  using SlotList = std::list<Slot>;
  struct Slot {
    std::size_t rowIndex = 0;
    std::vector<CacheValue> values;
    int pins = 0;
    bool partial = false;
    bool retained = false;  ///< which of lists_ holds the slot
    std::uint64_t generation = 0;
    SlotList::iterator self;  ///< the slot's place in its list
  };

  /// What a looked-up slot still needs before it can be read.
  enum class Need : std::uint8_t { Nothing, Full, Partial };
  struct Lookup {
    Slot* slot;
    Need need;
  };

  /// The bookkeeping of reading row i (`active` null for a full-row read):
  /// hit/miss counts, the move to the hot end and, on a miss, a claimed
  /// slot already marked with the fill it will hold and stamped with its
  /// generation. The fill itself is left to the caller, so a pair fetch
  /// can run several in one pass.
  Lookup lookup(std::size_t i, const std::span<const std::size_t>* active);

  /// Compute only the active entries of row i into `slot`, each value
  /// rounded once on store.
  void fillPartial(Slot& slot, std::size_t i,
                   std::span<const std::size_t> active);
  /// Compute rows rows[0..q) into slots[0..q) in one source call, each
  /// value rounded once on store.
  void fillFull(const std::size_t* rows, Slot* const* slots, std::size_t q);
  RowPair fetchPair(std::size_t i, std::size_t j,
                    const std::span<const std::size_t>* active, Ahead ahead);

  /// Slot to (re)fill for a miss on row i: at capacity the coldest unpinned
  /// unretained slot, else the coldest unpinned retained one; a fresh slot
  /// below capacity. The returned slot is indexed under i, sits at the
  /// cold end of the unretained list and carries a fresh generation.
  Slot& claimSlot(std::size_t i);
  std::size_t size() const { return lists_[0].size() + lists_[1].size(); }

  /// Scratch row k in the source's double precision.
  std::span<double> scratch(std::size_t k);

  /// Backing storage for the legacy (Kernel, Dataset) constructor.
  std::unique_ptr<ExactRowSource> ownedExact_;
  RowSource* src_;
  std::size_t capacityRows_;
  std::size_t fillWidth_;  ///< the source's, clamped to [1, kMaxQueries]
  /// max(2, fillWidth_) rows in the source's double precision.
  std::vector<double> scratch_;
  /// Recency lists, front = hot end, back = cold end: [0] the unretained
  /// rows, [1] the retained ones. Splices keep the slots in place.
  SlotList lists_[2];
  /// slot_[i]: the slot holding row i, or null. One pointer per row.
  std::vector<Slot*> slot_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t partialFills_ = 0;
  std::size_t aheadFills_ = 0;
  std::size_t fillSweeps_ = 0;
  std::size_t pinned_ = 0;
  std::uint64_t nextGeneration_ = 1;
};

}  // namespace casvm::kernel
