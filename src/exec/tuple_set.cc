#include "exec/tuple_set.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>

namespace sjos {

TupleSet::TupleSet(std::vector<PatternNodeId> slots)
    : slots_(std::move(slots)) {}

int TupleSet::SlotOf(PatternNodeId node) const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == node) return static_cast<int>(i);
  }
  return -1;
}

void TupleSet::AppendRow(const NodeId* row) {
  data_.insert(data_.end(), row, row + arity());
}

void TupleSet::AppendConcat(const NodeId* left, size_t left_n,
                            const NodeId* right, size_t right_n) {
  data_.insert(data_.end(), left, left + left_n);
  data_.insert(data_.end(), right, right + right_n);
}

void TupleSet::AppendSet(const TupleSet& other) {
  SJOS_CHECK(other.arity() == arity(), "AppendSet arity mismatch");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
}

void TupleSet::SortBySlot(size_t slot) {
  const size_t n = size();
  const size_t a = arity();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return data_[x * a + slot] < data_[y * a + slot];
  });
  std::vector<NodeId> sorted;
  sorted.reserve(data_.size());
  for (uint32_t row : order) {
    const NodeId* src = &data_[row * a];
    sorted.insert(sorted.end(), src, src + a);
  }
  data_ = std::move(sorted);
  ordered_by_slot_ = static_cast<int>(slot);
}

bool TupleSet::IsSortedBySlot(size_t slot) const {
  const size_t n = size();
  const size_t a = arity();
  for (size_t i = 1; i < n; ++i) {
    if (data_[(i - 1) * a + slot] > data_[i * a + slot]) return false;
  }
  return true;
}

std::vector<uint32_t> TupleSet::CanonicalColumns() const {
  std::vector<uint32_t> cols(slots_.size());
  std::iota(cols.begin(), cols.end(), 0);
  std::sort(cols.begin(), cols.end(),
            [&](uint32_t x, uint32_t y) { return slots_[x] < slots_[y]; });
  return cols;
}

std::vector<uint32_t> TupleSet::CanonicalOrder() const {
  const size_t n = size();
  SJOS_CHECK(n <= std::numeric_limits<uint32_t>::max(),
             "TupleSet too large for a 32-bit row permutation");
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n < 2) return order;
  const std::vector<uint32_t> cols = CanonicalColumns();
  const size_t a = arity();
  const NodeId* data = data_.data();

  // Column by column: a range of rows equal in the columns before `level`
  // is sorted by its value in column `level`, then each run of equal
  // values is handed to the next column. Each sort is over packed
  // (value, row) keys, contiguous and compared as plain integers, so no
  // comparison reaches back into the rows; ranges already in order (the
  // column the executor sorted by, say) skip the sort.
  struct Range {
    size_t begin;
    size_t end;
    size_t level;
  };
  std::vector<uint64_t> keys(n);
  std::vector<Range> todo = {{0, n, 0}};
  while (!todo.empty()) {
    const Range range = todo.back();
    todo.pop_back();
    const size_t col = cols[range.level];
    bool sorted = true;
    for (size_t i = range.begin; i < range.end; ++i) {
      keys[i] = (static_cast<uint64_t>(data[order[i] * a + col]) << 32) |
                order[i];
      if (i > range.begin && keys[i] < keys[i - 1]) sorted = false;
    }
    if (!sorted) {
      std::sort(keys.begin() + static_cast<ptrdiff_t>(range.begin),
                keys.begin() + static_cast<ptrdiff_t>(range.end));
    }
    for (size_t i = range.begin; i < range.end; ++i) {
      order[i] = static_cast<uint32_t>(keys[i]);
    }
    if (range.level + 1 == cols.size()) continue;
    for (size_t begin = range.begin; begin < range.end;) {
      size_t end = begin + 1;
      while (end < range.end && (keys[end] >> 32) == (keys[begin] >> 32)) {
        ++end;
      }
      if (end - begin > 1) todo.push_back({begin, end, range.level + 1});
      begin = end;
    }
  }
  return order;
}

std::vector<std::vector<NodeId>> TupleSet::Canonical() const {
  const std::vector<uint32_t> cols = CanonicalColumns();
  std::vector<std::vector<NodeId>> rows;
  rows.reserve(size());
  for (uint32_t r : CanonicalOrder()) {
    const NodeId* src = Row(r);
    std::vector<NodeId>& row = rows.emplace_back(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) row[c] = src[cols[c]];
  }
  return rows;
}

}  // namespace sjos
