#include "casvm/kernel/row_cache.hpp"

#include <algorithm>
#include <limits>

#include "casvm/kernel/tile_kernel.hpp"
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
      fillWidth_(std::clamp<std::size_t>(src_->fillWidth(), 1,
                                         tile::kMaxQueries)),
      scratch_(std::max<std::size_t>(2, fillWidth_) * src_->rows()),
      slot_(src_->rows(), nullptr) {}

RowCache::RowCache(RowSource& source, std::size_t budgetBytes)
    : src_(&source),
      capacityRows_(capacityFor(src_->rows(), budgetBytes)),
      fillWidth_(std::clamp<std::size_t>(src_->fillWidth(), 1,
                                         tile::kMaxQueries)),
      scratch_(std::max<std::size_t>(2, fillWidth_) * src_->rows()),
      slot_(src_->rows(), nullptr) {}

RowCache::Slot& RowCache::claimSlot(std::size_t i) {
  SlotList& unretained = lists_[0];
  const auto claim = [&](Slot& slot) -> Slot& {
    slot.rowIndex = i;
    slot.generation = nextGeneration_++;
    slot_[i] = &slot;
    return slot;
  };
  if (size() >= capacityRows_) {
    // Recycle the coldest *unpinned* slot's allocation, retained rows
    // last: a pinned row backs a span the solver currently holds, and
    // recycling it would silently corrupt that span. At most the
    // iteration's two rows are pinned, so each walk stops within three
    // steps.
    for (SlotList& list : lists_) {
      for (auto it = list.end(); it != list.begin();) {
        if ((--it)->pins != 0) continue;
        slot_[it->rowIndex] = nullptr;
        it->retained = false;
        unretained.splice(unretained.end(), list, it);
        return claim(*it);
      }
    }
    // Every slot is pinned (cannot happen with the solver's at-most-two
    // pins and the two-slot capacity floor, but stay safe): grow past the
    // budget for this fill rather than corrupt a live span.
  }
  Slot& fresh = unretained.emplace_back();
  fresh.values.resize(src_->rows());
  fresh.self = std::prev(unretained.end());
  return claim(fresh);
}

std::span<double> RowCache::scratch(std::size_t k) {
  const std::size_t m = src_->rows();
  return {scratch_.data() + k * m, m};
}

RowCache::Lookup RowCache::lookup(std::size_t i,
                                  const std::span<const std::size_t>* active) {
  CASVM_CHECK(i < src_->rows(), "kernel row out of range");
  Need need = Need::Full;
  Slot* slot = slot_[i];
  if (slot != nullptr) {
    SlotList& list = lists_[slot->retained];
    list.splice(list.begin(), list, slot->self);
    // Full rows serve any read. A partial fill serves active-set reads,
    // which are subsets of the set it was computed with while the solver
    // only shrinks (invalidatePartial() handles the grow-back); a
    // full-row read upgrades it in place, as a miss.
    if (!slot->partial || active != nullptr) {
      ++hits_;
      return {slot, Need::Nothing};
    }
    slot->generation = nextGeneration_++;
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

void RowCache::fillPartial(Slot& slot, std::size_t i,
                           std::span<const std::size_t> active) {
#ifndef CASVM_NO_ASSERT
  // Poison the untouched entries so a read outside `active` trips tests
  // instead of returning a stale previous row.
  std::fill(slot.values.begin(), slot.values.end(),
            std::numeric_limits<CacheValue>::quiet_NaN());
#endif
  const std::span<double> row = scratch(0);
  src_->fillRowSubset(i, active, row);
  for (std::size_t j : active) {
    slot.values[j] = static_cast<CacheValue>(row[j]);
  }
}

void RowCache::fillFull(const std::size_t* rows, Slot* const* slots,
                        std::size_t q) {
  std::span<double> outs[tile::kMaxQueries];
  for (std::size_t t = 0; t < q; ++t) outs[t] = scratch(t);
  if (q == 1) {
    src_->fillRow(rows[0], outs[0]);
  } else {
    src_->fillRows({rows, q}, {outs, q});
  }
  ++fillSweeps_;
  for (std::size_t t = 0; t < q; ++t) {
    std::transform(outs[t].begin(), outs[t].end(), slots[t]->values.begin(),
                   [](double v) { return static_cast<CacheValue>(v); });
  }
}

std::span<const CacheValue> RowCache::row(std::size_t i) {
  const Lookup found = lookup(i, nullptr);
  if (found.need == Need::Full) fillFull(&i, &found.slot, 1);
  return found.slot->values;
}

std::span<const CacheValue> RowCache::row(
    std::size_t i, std::span<const std::size_t> active) {
  const Lookup found = lookup(i, &active);
  if (found.need == Need::Full) fillFull(&i, &found.slot, 1);
  if (found.need == Need::Partial) fillPartial(*found.slot, i, active);
  return found.slot->values;
}

RowCache::RowPair RowCache::fetchPair(
    std::size_t i, std::size_t j, const std::span<const std::size_t>* active,
    Ahead ahead) {
  // Pinning i before looking up j keeps j's claim off i's slot, exactly
  // as the single-fetch sequence does.
  const Lookup first = lookup(i, active);
  pin(i);
  const Lookup second = lookup(j, active);
  pin(j);
  std::size_t rows[tile::kMaxQueries];
  Slot* slots[tile::kMaxQueries];
  std::size_t q = 0;
  for (const auto& [found, r] : {std::pair{first, i}, std::pair{second, j}}) {
    if (found.need == Need::Partial) fillPartial(*found.slot, r, *active);
    if (found.need == Need::Full) {
      rows[q] = r;
      slots[q++] = found.slot;
    }
  }
  if (q == 0) return {first.slot->values, second.slot->values};
  // Rows filled ahead ride along in the demand rows' pass: free slots
  // only, so they never evict, and claimed after the demand rows, so they
  // sit coldest. The pair and rows claimed here are cached by now, so the
  // residency test skips them as it skips resident candidates.
  for (std::size_t c : ahead.candidates) {
    if (q >= fillWidth_ || size() >= capacityRows_) break;
    CASVM_CHECK(c < src_->rows(), "lookahead row out of range");
    if (slot_[c] != nullptr) continue;
    Slot& slot = claimSlot(c);
    slot.partial = false;
    rows[q] = c;
    slots[q++] = &slot;
    ++aheadFills_;
  }
  fillFull(rows, slots, q);
  return {first.slot->values, second.slot->values};
}

RowCache::RowPair RowCache::rows(std::size_t i, std::size_t j, Ahead ahead) {
  return fetchPair(i, j, nullptr, ahead);
}

RowCache::RowPair RowCache::rows(std::size_t i, std::size_t j,
                                 std::span<const std::size_t> active) {
  return fetchPair(i, j, &active, {});
}

std::size_t RowCache::aheadRoom(std::size_t i, std::size_t j) const {
  const auto fresh = [&](std::size_t r) { return slot_[r] == nullptr; };
  const auto needsFill = [&](std::size_t r) {
    return fresh(r) || slot_[r]->partial;
  };
  const std::size_t demand = needsFill(i) + (j != i && needsFill(j));
  const std::size_t used = size() + fresh(i) + (j != i && fresh(j));
  if (demand == 0 || demand >= fillWidth_ || used >= capacityRows_) return 0;
  return std::min(fillWidth_ - demand, capacityRows_ - used);
}

void RowCache::pin(std::size_t i) {
  CASVM_ASSERT(i < slot_.size() && slot_[i] != nullptr,
               "pin of a row that is not cached");
  if (slot_[i]->pins++ == 0) ++pinned_;
}

void RowCache::unpin(std::size_t i) {
  CASVM_ASSERT(i < slot_.size() && slot_[i] != nullptr,
               "unpin of a row that is not cached");
  CASVM_ASSERT(slot_[i]->pins > 0, "unpin without matching pin");
  if (--slot_[i]->pins == 0) --pinned_;
}

void RowCache::retain(std::size_t i, bool keep) {
  CASVM_ASSERT(i < slot_.size() && slot_[i] != nullptr,
               "retain of a row that is not cached");
  Slot& slot = *slot_[i];
  if (slot.retained == keep) return;
  lists_[keep].splice(lists_[keep].end(), lists_[slot.retained], slot.self);
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
      slot_[it->rowIndex] = nullptr;
      it = list.erase(it);
    }
  }
}

std::uint64_t RowCache::generation(std::size_t i) const {
  return i < slot_.size() && slot_[i] != nullptr ? slot_[i]->generation : 0;
}

void RowCache::checkLive(std::size_t i, std::uint64_t gen) const {
  (void)i;
  (void)gen;
  CASVM_ASSERT(generation(i) == gen && gen != 0,
               "kernel row span used after eviction");
}

}  // namespace casvm::kernel
