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
      scratch_(src_->rows()) {}

RowCache::RowCache(RowSource& source, std::size_t budgetBytes)
    : src_(&source),
      capacityRows_(capacityFor(src_->rows(), budgetBytes)),
      scratch_(src_->rows()) {}

RowCache::Slot& RowCache::claimSlot(std::size_t i) {
  if (lru_.size() >= capacityRows_) {
    // Recycle the least-recently-used *unpinned* slot's allocation: a
    // pinned row backs a span the solver currently holds, and recycling it
    // would silently corrupt that span.
    for (auto it = std::prev(lru_.end());; --it) {
      if (it->pins == 0) {
        index_.erase(it->rowIndex);
        it->rowIndex = i;
        lru_.splice(lru_.begin(), lru_, it);
        index_[i] = lru_.begin();
        return *it;
      }
      if (it == lru_.begin()) break;
    }
    // Every slot is pinned (cannot happen with the solver's at-most-two
    // pins and the two-slot capacity floor, but stay safe): grow past the
    // budget for this fill rather than corrupt a live span.
  }
  lru_.push_front(
      Slot{i, std::vector<CacheValue>(src_->rows()), 0, false, 0});
  index_[i] = lru_.begin();
  return lru_.front();
}

void RowCache::fill(Slot& slot, std::size_t i) {
  src_->fillRow(i, scratch_);
  std::transform(scratch_.begin(), scratch_.end(), slot.values.begin(),
                 [](double v) { return static_cast<CacheValue>(v); });
  slot.partial = false;
  slot.generation = nextGeneration_++;
}

void RowCache::fill(Slot& slot, std::size_t i,
                    std::span<const std::size_t> active) {
#ifndef CASVM_NO_ASSERT
  // Poison the untouched entries so a read outside `active` trips tests
  // instead of returning a stale previous row.
  std::fill(slot.values.begin(), slot.values.end(),
            std::numeric_limits<CacheValue>::quiet_NaN());
#endif
  src_->fillRowSubset(i, active, scratch_);
  for (std::size_t j : active) {
    slot.values[j] = static_cast<CacheValue>(scratch_[j]);
  }
  slot.partial = true;
  slot.generation = nextGeneration_++;
}

std::span<const CacheValue> RowCache::row(std::size_t i) {
  CASVM_CHECK(i < src_->rows(), "kernel row out of range");
  if (auto it = index_.find(i); it != index_.end()) {
    Slot& slot = *it->second;
    lru_.splice(lru_.begin(), lru_, it->second);
    if (!slot.partial) {
      ++hits_;
      return slot.values;
    }
    // A partial fill cannot serve a full-row read: upgrade in place.
    ++misses_;
    fill(slot, i);
    return slot.values;
  }
  ++misses_;
  Slot& slot = claimSlot(i);
  fill(slot, i);
  return slot.values;
}

std::span<const CacheValue> RowCache::row(
    std::size_t i, std::span<const std::size_t> active) {
  CASVM_CHECK(i < src_->rows(), "kernel row out of range");
  if (auto it = index_.find(i); it != index_.end()) {
    // Full rows serve any index set; a partial fill serves subsets of the
    // set it was computed with, which holds while the active set only
    // shrinks (invalidatePartial() handles the grow-back).
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->values;
  }
  ++misses_;
  Slot& slot = claimSlot(i);
  // The source knows whether its full-row fill (e.g. the dense tiled
  // micro-kernel) beats a scalar subset fill of this many entries.
  if (src_->preferFullFill(active.size())) {
    fill(slot, i);
  } else {
    ++partialFills_;
    fill(slot, i, active);
  }
  return slot.values;
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

void RowCache::invalidatePartial() {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (!it->partial) {
      ++it;
      continue;
    }
    CASVM_ASSERT(it->pins == 0, "invalidatePartial with a pinned partial row");
    index_.erase(it->rowIndex);
    it = lru_.erase(it);
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
