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
/// A victim is the coldest unpinned row of a list: std::lists and
/// splices, O(1) per miss (a third list, of rows filled ahead and not yet
/// read, gives up rows last; see Lookahead fills below). DESIGN.md §2.7
/// has the replayed fill counts (LRU, cold insertion, retention and
/// Belady's optimum).
///
/// Rows are stored as float (CacheValue, see cache_value.hpp), as LIBSVM's
/// Qfloat cache stores them, so a byte budget holds twice the rows a
/// double cache would. The cache does no rounding of its own: a source
/// fills its rows as CacheValue straight into the cache's slots. Dense
/// and Nyström fills keep no double row; a CSR fill goes through one
/// m-double row in the exact source's workspace, outside the budget.
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
/// Lookahead fills. A pass over dense tiles streams them once for up to
/// eight rows, and the rows SMO asks for next are predictable: they belong
/// to the samples nearest the violating extremes. So when a full pair
/// fetch misses, the pass also fills rows the caller ranks as wanted next
/// (Ahead), up to the source's fill width: candidates already held,
/// repeated or in the pair are skipped. Four rules place them:
///  1. While the cache has a free slot, a row filled ahead takes it, at
///     the cold end of the unretained list.
///  2. Once the cache is full, a row filled ahead waits in a third list,
///     the unread list, of at most S = capacity x width / 64 rows (at
///     least one): capacity / 16 at width four, capacity / 8 at width
///     eight, whose passes bring twice the rows ahead. S is derived, not
///     an option. While the list holds fewer than S rows, the new row
///     takes the coldest unpinned main row's slot (the main lists are the
///     unretained and retained ones); otherwise it takes the oldest
///     unread row's slot.
///  3. A demand miss takes a free slot or the coldest unpinned main row's
///     slot, and an unread row's slot only when no unpinned main row is
///     left, so demand misses do not evict rows filled ahead.
///  4. The first read of an unread row moves it to the cold end of the
///     unretained list, where a fill would have put it. That read is a
///     hit: misses() still counts the reads that needed a fill, so the
///     rows computed are misses() + aheadFills().
/// Rows in the unread list are never pinned, and the rows held never
/// exceed the capacity on their account. The fetch of rows i and j is
/// itself unchanged: the rows ahead are claimed after both lookups, so
/// i's and j's counts, recency moves, pins and generations are those of
/// two single fetches. A source of width one shares no pass, so it never
/// fills ahead, and its cache never holds an unread row. fillSweeps()
/// counts the full-row fills asked of the source. DESIGN.md §2.7 has the
/// sweep counts.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/cache_value.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/row_source.hpp"

namespace casvm::kernel {

/// Caches rows of the kernel matrix of one dataset.
/// Not thread-safe; each solver instance owns its cache.
class RowCache {
 public:
  /// Cache over the exact kernel of `ds`. `budgetBytes` bounds the cached
  /// data (each row is rows()*sizeof(CacheValue) = rows()*4 bytes); at
  /// least TWO row slots are always granted, because SMO holds spans to the
  /// high and low rows of one iteration simultaneously.
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
  /// pass runs, it also fills the first candidates of `ahead` the cache
  /// does not hold, up to the source's fill width, each placed by the
  /// lookahead rules above.
  RowPair rows(std::size_t i, std::size_t j, Ahead ahead = {});

  /// rows() under the active-set rules of row(i, active): partial fills
  /// stay one row each, and no row is filled ahead.
  RowPair rows(std::size_t i, std::size_t j,
               std::span<const std::size_t> active);

  /// How many candidates a full pair fetch of rows i and j would fill
  /// ahead, at most: zero unless row i or j needs a fill, otherwise the
  /// source's fill width less the demand rows.
  std::size_t aheadRoom(std::size_t i, std::size_t j) const;

  /// One byte per row: 1 where the cache holds the row (a full or a
  /// partial fill, in any list), else 0. The ranking of lookahead
  /// candidates reads it for every sample.
  std::span<const std::uint8_t> held() const { return held_; }

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

  /// Reads served by a held row, first reads of rows filled ahead
  /// included.
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
  /// Which of lists_ holds a slot.
  enum List : std::uint8_t { kUnretained, kRetained, kUnread };
  struct Slot {
    std::size_t rowIndex = 0;
    std::vector<CacheValue> values;
    int pins = 0;
    bool partial = false;
    List list = kUnretained;
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

  /// Compute only the active entries of row i into `slot`.
  void fillPartial(Slot& slot, std::size_t i,
                   std::span<const std::size_t> active);
  /// Compute rows rows[0..q) into slots[0..q) in one source call.
  void fillFull(const std::size_t* rows, Slot* const* slots, std::size_t q);
  RowPair fetchPair(std::size_t i, std::size_t j,
                    const std::span<const std::size_t>* active, Ahead ahead);

  /// Slot to (re)fill for a demand miss on row i (rule 3): a fresh slot
  /// below capacity, else the coldest unpinned main row's, else the oldest
  /// unread row's. The returned slot is indexed under i, sits at the cold
  /// end of the unretained list and carries a fresh generation.
  Slot& claimSlot(std::size_t i);
  /// Slot to fill row i ahead of demand (rules 1 and 2), indexed and
  /// stamped like claimSlot's, or null when every candidate slot is
  /// pinned.
  Slot* claimAhead(std::size_t i);
  /// The coldest unpinned main row, unretained rows first, or null.
  Slot* coldestMain();
  /// The oldest unpinned unread row, or null.
  Slot* oldestUnread();
  /// A new slot at the cold end of the unretained list.
  Slot& freshSlot();
  /// Index `slot` (new, or unindexed) under row i with a fresh
  /// generation, and move() it to `to`.
  Slot& place(Slot& slot, std::size_t i, List to);
  /// Move `slot` to the cold end of main list `to`, or to the new end of
  /// the unread list.
  void move(Slot& slot, List to);
  /// Stop indexing the row `slot` holds.
  void unindex(const Slot& slot);
  std::size_t size() const {
    return lists_[kUnretained].size() + lists_[kRetained].size() +
           lists_[kUnread].size();
  }

  /// Backing storage for the legacy (Kernel, Dataset) constructor.
  std::unique_ptr<ExactRowSource> ownedExact_;
  RowSource* src_;
  std::size_t capacityRows_;
  std::size_t fillWidth_;  ///< the source's, clamped to [1, kMaxQueries]
  /// Rows the unread list holds at most (S).
  std::size_t unreadLimit_;
  /// The recency lists (front = hot end, back = cold end) of the
  /// unretained and the retained rows, and the unread list (front =
  /// newest, back = oldest). Splices keep the slots in place.
  SlotList lists_[3];
  /// slot_[i]: the slot holding row i, or null. One pointer per row.
  std::vector<Slot*> slot_;
  /// held_[i]: whether slot_[i] is set, as one byte per row.
  std::vector<std::uint8_t> held_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t partialFills_ = 0;
  std::size_t aheadFills_ = 0;
  std::size_t fillSweeps_ = 0;
  std::size_t pinned_ = 0;
  std::uint64_t nextGeneration_ = 1;
};

}  // namespace casvm::kernel
