// Row-major result batches — the engine's boundary type. A TupleSet is a
// batch of bindings: each row assigns one document node to every pattern
// node in the set's schema ("slots"). Data is stored row-major in one flat
// vector. The set records which slot its rows are physically ordered by —
// the property the Stack-Tree operators require of their inputs and
// establish on their outputs.
//
// The execution core itself trades in columnar ColumnBatch batches
// (exec/column_batch.h); TupleSet remains the currency of results, the
// wire codec, and tests, with conversions only at that boundary.

#ifndef SJOS_EXEC_TUPLE_SET_H_
#define SJOS_EXEC_TUPLE_SET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/pattern.h"
#include "xml/node.h"

namespace sjos {

/// A batch of pattern-node bindings.
class TupleSet {
 public:
  TupleSet() = default;

  /// Creates an empty set with the given schema.
  explicit TupleSet(std::vector<PatternNodeId> slots);

  size_t arity() const { return slots_.size(); }
  size_t size() const { return arity() == 0 ? 0 : data_.size() / arity(); }
  bool empty() const { return data_.empty(); }

  const std::vector<PatternNodeId>& slots() const { return slots_; }

  /// Index of `node` in the schema, or -1.
  int SlotOf(PatternNodeId node) const;

  NodeId At(size_t row, size_t slot) const {
    return data_[row * arity() + slot];
  }

  /// Pointer to the start of row `row` (arity() consecutive NodeIds).
  const NodeId* Row(size_t row) const { return &data_[row * arity()]; }

  /// All rows, flat and row-major: size() * arity() NodeIds.
  const NodeId* data() const { return data_.data(); }

  /// Appends one row; `row` must have arity() entries.
  void AppendRow(const NodeId* row);

  /// Appends a row assembled from two halves (used by the join).
  void AppendConcat(const NodeId* left, size_t left_n, const NodeId* right,
                    size_t right_n);

  /// Appends every row of `other`, which must have the same arity (checked).
  /// Used by the partitioned join to concatenate partition outputs.
  void AppendSet(const TupleSet& other);

  /// Appends `nrows` rows stored flat (nrows * arity() NodeIds).
  void AppendRows(const NodeId* rows, size_t nrows) {
    data_.insert(data_.end(), rows, rows + nrows * arity());
  }

  /// Drops all rows, keeping the schema and ordering property. Batches in
  /// the streaming engine are cleared and refilled between NextBatch calls.
  void Clear() { data_.clear(); }

  void Reserve(size_t rows) { data_.reserve(rows * arity()); }

  /// Which slot the rows are sorted by (document order of that column);
  /// -1 when unknown/unsorted.
  int ordered_by_slot() const { return ordered_by_slot_; }
  void set_ordered_by_slot(int slot) { ordered_by_slot_ = slot; }

  /// The pattern node the rows are ordered by, or kNoPatternNode.
  PatternNodeId OrderedByNode() const {
    return ordered_by_slot_ < 0 ? kNoPatternNode
                                : slots_[static_cast<size_t>(ordered_by_slot_)];
  }

  /// Stable-sorts rows by the given slot's document order and records the
  /// new ordering property. O(n log n) with one rebuild pass.
  void SortBySlot(size_t slot);

  /// True if rows are non-decreasing in `slot`.
  bool IsSortedBySlot(size_t slot) const;

  /// Canonical column order: the schema positions sorted by ascending
  /// pattern-node id.
  std::vector<uint32_t> CanonicalColumns() const;

  /// Canonical row order: a permutation of the row indices that sorts the
  /// rows lexicographically, comparing the columns in CanonicalColumns()
  /// order. One sort over the flat row-major data, with no per-row
  /// allocation; the wire encoder walks the rows in this order.
  std::vector<uint32_t> CanonicalOrder() const;

  /// Canonical row dump for result comparison in tests: columns reordered
  /// by ascending pattern-node id, rows sorted lexicographically. Built
  /// from CanonicalColumns() and CanonicalOrder(), so it matches the wire
  /// encoding row for row.
  std::vector<std::vector<NodeId>> Canonical() const;

 private:
  std::vector<PatternNodeId> slots_;
  std::vector<NodeId> data_;
  int ordered_by_slot_ = -1;
};

}  // namespace sjos

#endif  // SJOS_EXEC_TUPLE_SET_H_
