#include "casvm/kernel/row_cache.hpp"

#include <algorithm>
#include <limits>

#include "casvm/support/error.hpp"

namespace casvm::kernel {

namespace {

/// Rows that fit `budgetBytes`, with the two-slot floor: callers may hold
/// spans to two rows at once (SMO).
std::size_t capacityFor(std::size_t rows, std::size_t budgetBytes) {
  const std::size_t rowBytes =
      std::max<std::size_t>(1, rows) * sizeof(CacheValue);
  return std::max<std::size_t>(2, budgetBytes / rowBytes);
}

}  // namespace

RowCache::RowCache(const Kernel& kernel, const data::Dataset& ds,
                   std::size_t budgetBytes)
    : ownedExact_(std::make_unique<ExactRowSource>(kernel, ds)),
      src_(ownedExact_.get()),
      capacityRows_(capacityFor(src_->rows(), budgetBytes)),
      scratch_(2 * src_->rows()) {}

RowCache::RowCache(RowSource& source, std::size_t budgetBytes)
    : src_(&source),
      capacityRows_(capacityFor(src_->rows(), budgetBytes)),
      scratch_(2 * src_->rows()) {}

RowCache::Slot& RowCache::claimSlot(std::size_t i) {
  SlotList& unretained = lists_[0];
  if (unretained.size() + lists_[1].size() >= capacityRows_) {
    // Recycle the coldest *unpinned* slot's allocation, retained rows
    // last: a pinned row backs a span the solver currently holds, and
    // recycling it would silently corrupt that span. At most the
    // iteration's two rows are pinned, so each walk stops within three
    // steps.
    for (SlotList& list : lists_) {
      for (auto it = list.end(); it != list.begin();) {
        if ((--it)->pins != 0) continue;
        index_.erase(it->rowIndex);
        it->rowIndex = i;
        it->retained = false;
        unretained.splice(unretained.end(), list, it);
        index_[i] = it;
        return *it;
      }
    }
    // Every slot is pinned (cannot happen with the solver's at-most-two
    // pins and the two-slot capacity floor, but stay safe): grow past the
    // budget for this fill rather than corrupt a live span.
  }
  unretained.push_back(Slot{i, std::vector<CacheValue>(src_->rows())});
  index_[i] = std::prev(unretained.end());
  return unretained.back();
}

std::span<double> RowCache::scratch(std::size_t k) {
  const std::size_t m = src_->rows();
  return {scratch_.data() + k * m, m};
}

void RowCache::store(Slot& slot, std::span<const double> row) {
  std::transform(row.begin(), row.end(), slot.values.begin(),
                 [](double v) { return static_cast<CacheValue>(v); });
  slot.generation = nextGeneration_++;
}

RowCache::Lookup RowCache::lookup(std::size_t i,
                                  const std::span<const std::size_t>* active) {
  CASVM_CHECK(i < src_->rows(), "kernel row out of range");
  Need need = Need::Full;
  Slot* slot = nullptr;
  if (auto it = index_.find(i); it != index_.end()) {
    slot = &*it->second;
    SlotList& list = lists_[slot->retained];
    list.splice(list.begin(), list, it->second);
    // Full rows serve any read. A partial fill serves active-set reads,
    // which are subsets of the set it was computed with while the solver
    // only shrinks (invalidatePartial() handles the grow-back); a
    // full-row read upgrades it in place, as a miss.
    if (!slot->partial || active != nullptr) {
      ++hits_;
      return {slot, Need::Nothing};
    }
  } else {
    slot = &claimSlot(i);
    // The source knows whether its full-row fill (e.g. the dense tiled
    // micro-kernel) beats a scalar subset fill of this many entries.
    if (active != nullptr && !src_->preferFullFill(active->size())) {
      need = Need::Partial;
      ++partialFills_;
    }
  }
  ++misses_;
  // Marked now, so a second lookup of row i before the fill sees the row
  // the fill will leave.
  slot->partial = need == Need::Partial;
  return {slot, need};
}

void RowCache::complete(const Lookup& found, std::size_t i,
                        const std::span<const std::size_t>* active) {
  const std::span<double> row = scratch(0);
  if (found.need == Need::Full) {
    src_->fillRow(i, row);
    store(*found.slot, row);
    return;
  }
  if (found.need == Need::Nothing) return;
  Slot& slot = *found.slot;
#ifndef CASVM_NO_ASSERT
  // Poison the untouched entries so a read outside `active` trips tests
  // instead of returning a stale previous row.
  std::fill(slot.values.begin(), slot.values.end(),
            std::numeric_limits<CacheValue>::quiet_NaN());
#endif
  src_->fillRowSubset(i, *active, row);
  for (std::size_t j : *active) {
    slot.values[j] = static_cast<CacheValue>(row[j]);
  }
  slot.generation = nextGeneration_++;
}

std::span<const CacheValue> RowCache::row(std::size_t i) {
  const Lookup found = lookup(i, nullptr);
  complete(found, i, nullptr);
  return found.slot->values;
}

std::span<const CacheValue> RowCache::row(
    std::size_t i, std::span<const std::size_t> active) {
  const Lookup found = lookup(i, &active);
  complete(found, i, &active);
  return found.slot->values;
}

RowCache::RowPair RowCache::fetchPair(
    std::size_t i, std::size_t j, const std::span<const std::size_t>* active) {
  // Pinning i before looking up j keeps j's claim off i's slot, exactly
  // as the single-fetch sequence does.
  const Lookup first = lookup(i, active);
  pin(i);
  const Lookup second = lookup(j, active);
  pin(j);
  if (first.need == Need::Full && second.need == Need::Full) {
    src_->fillRows(i, j, scratch(0), scratch(1));
    store(*first.slot, scratch(0));
    store(*second.slot, scratch(1));
    pairedFills_ += 2;
  } else {
    complete(first, i, active);
    complete(second, j, active);
  }
  return {first.slot->values, second.slot->values};
}

RowCache::RowPair RowCache::rows(std::size_t i, std::size_t j) {
  return fetchPair(i, j, nullptr);
}

RowCache::RowPair RowCache::rows(std::size_t i, std::size_t j,
                                 std::span<const std::size_t> active) {
  return fetchPair(i, j, &active);
}

void RowCache::pin(std::size_t i) {
  auto it = index_.find(i);
  CASVM_ASSERT(it != index_.end(), "pin of a row that is not cached");
  if (it->second->pins++ == 0) ++pinned_;
}

void RowCache::unpin(std::size_t i) {
  auto it = index_.find(i);
  CASVM_ASSERT(it != index_.end(), "unpin of a row that is not cached");
  CASVM_ASSERT(it->second->pins > 0, "unpin without matching pin");
  if (--it->second->pins == 0) --pinned_;
}

void RowCache::retain(std::size_t i, bool keep) {
  auto it = index_.find(i);
  CASVM_ASSERT(it != index_.end(), "retain of a row that is not cached");
  Slot& slot = *it->second;
  if (slot.retained == keep) return;
  lists_[keep].splice(lists_[keep].end(), lists_[slot.retained], it->second);
  slot.retained = keep;
}

void RowCache::invalidatePartial() {
  for (SlotList& list : lists_) {
    for (auto it = list.begin(); it != list.end();) {
      if (!it->partial) {
        ++it;
        continue;
      }
      CASVM_ASSERT(it->pins == 0,
                   "invalidatePartial with a pinned partial row");
      index_.erase(it->rowIndex);
      it = list.erase(it);
    }
  }
}

std::uint64_t RowCache::generation(std::size_t i) const {
  const auto it = index_.find(i);
  return it == index_.end() ? 0 : it->second->generation;
}

void RowCache::checkLive(std::size_t i, std::uint64_t gen) const {
  (void)i;
  (void)gen;
  CASVM_ASSERT(generation(i) == gen && gen != 0,
               "kernel row span used after eviction");
}

}  // namespace casvm::kernel
