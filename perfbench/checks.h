// Result checks made apart from the engine. None of them compares against
// a stored copy of earlier output:
//
//  - CheckSoundness: every row, against the document itself — each
//    binding's tag, '/' edges as parent, '//' edges as interval
//    containment, value predicates.
//  - Digest: row count plus an order-independent hash, compared against
//    the NaiveMatch oracle (completeness) and across the five optimizers'
//    plans (join order must not change the answer).
//  - MatchCounter: counts pattern matches on a plain tree by dynamic
//    programming, so the mixed workload can predict every read's row count
//    from the base document plus the fragments it inserted.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/tuple_set.h"
#include "query/pattern.h"
#include "storage/differential_index.h"
#include "xml/document.h"

namespace perfbench {

/// Row count plus a commutative sum of per-row hashes. Each row is hashed
/// with its columns in ascending pattern-node order, so two results with
/// the same set of rows have the same digest whatever their row order.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;

  bool operator==(const Digest&) const = default;
  std::string ToString() const;
};

/// Rows given row-major, with `columns[c]` the pattern node of column c.
/// When `rank_order` is non-null (a sorted list of live node keys, as from
/// Database::MergedOrder), every key is replaced by its index there — its
/// pre-order rank — so results taken under different key numberings
/// compare equal.
sjos::Result<Digest> DigestRows(const std::vector<sjos::PatternNodeId>& columns,
                                const sjos::NodeId* data, size_t num_rows,
                                const std::vector<sjos::NodeId>* rank_order =
                                    nullptr);

sjos::Result<Digest> DigestTuples(
    const sjos::TupleSet& tuples,
    const std::vector<sjos::NodeId>* rank_order = nullptr);

/// NaiveMatch output: row[i] binds pattern node i.
Digest DigestNaive(const std::vector<std::vector<sjos::NodeId>>& rows);

/// OK when `actual` equals `expected`; otherwise a description naming
/// `what`.
sjos::Status CheckDigest(const std::string& what, const Digest& expected,
                         const Digest& actual);

/// Checks every row against `view` (see file comment). `columns[c]` is the
/// pattern node bound by column c; every pattern node must have a column.
sjos::Status CheckSoundness(const sjos::DocView& view,
                            const sjos::Pattern& pattern,
                            const std::vector<sjos::PatternNodeId>& columns,
                            const sjos::NodeId* data, size_t num_rows);

sjos::Status CheckTupleSoundness(const sjos::DocView& view,
                                 const sjos::Pattern& pattern,
                                 const sjos::TupleSet& tuples);

/// A plain labelled tree for counting matches: built from a document,
/// optionally extended with fragments grafted under existing nodes.
class MatchCounter {
 public:
  /// Copies the tree of `doc` (node index = pre-order rank).
  explicit MatchCounter(const sjos::Document& doc);

  /// Grafts a copy of `fragment` under node `parent` (an index of this
  /// tree). Returns the index of the grafted root.
  size_t Graft(size_t parent, const sjos::Document& fragment);

  /// Removes the subtree grafted at `root` (as returned by Graft).
  void Prune(size_t root);

  /// Number of total mappings of `pattern` into the tree.
  uint64_t Count(const sjos::Pattern& pattern) const;

  size_t size() const { return tags_.size(); }

 private:
  std::vector<std::string> tags_;
  std::vector<std::string> texts_;
  std::vector<int64_t> parents_;  // -1 for the root
  std::vector<bool> alive_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
