#include "checks.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using sjos::NodeId;
using sjos::Pattern;
using sjos::PatternNodeId;
using sjos::Result;
using sjos::Status;

namespace {

uint64_t Mix(uint64_t h) {
  // splitmix64 finalizer.
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

uint64_t HashRow(const NodeId* values, size_t n) {
  uint64_t h = n;
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ values[i]);
  return h;
}

}  // namespace

std::string Digest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu rows #%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(hash));
  return buf;
}

Result<Digest> DigestRows(const std::vector<PatternNodeId>& columns,
                          const NodeId* data, size_t num_rows,
                          const std::vector<NodeId>* rank_order) {
  const size_t arity = columns.size();
  // order[i] = the column holding the i-th smallest pattern node.
  std::vector<size_t> order(arity);
  for (size_t i = 0; i < arity; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return columns[a] < columns[b]; });
  Digest digest;
  std::vector<NodeId> row(arity);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t i = 0; i < arity; ++i) {
      NodeId key = data[r * arity + order[i]];
      if (rank_order != nullptr) {
        auto it = std::lower_bound(rank_order->begin(), rank_order->end(), key);
        if (it == rank_order->end() || *it != key) {
          return Status::NotFound("row binds a key that is not a live node: " +
                                  std::to_string(key));
        }
        key = static_cast<NodeId>(it - rank_order->begin());
      }
      row[i] = key;
    }
    digest.hash += HashRow(row.data(), arity);
  }
  digest.rows = num_rows;
  return digest;
}

Result<Digest> DigestTuples(const sjos::TupleSet& tuples,
                            const std::vector<NodeId>* rank_order) {
  return DigestRows(tuples.slots(), tuples.empty() ? nullptr : tuples.Row(0),
                    tuples.size(), rank_order);
}

Digest DigestNaive(const std::vector<std::vector<NodeId>>& rows) {
  Digest digest;
  for (const std::vector<NodeId>& row : rows) {
    digest.hash += HashRow(row.data(), row.size());
  }
  digest.rows = rows.size();
  return digest;
}

Status CheckDigest(const std::string& what, const Digest& expected,
                   const Digest& actual) {
  if (expected == actual) return Status::OK();
  return Status::Internal(what + ": expected " + expected.ToString() +
                          ", got " + actual.ToString());
}

Status CheckSoundness(const sjos::DocView& view, const Pattern& pattern,
                      const std::vector<PatternNodeId>& columns,
                      const NodeId* data, size_t num_rows) {
  const size_t n = pattern.NumNodes();
  const size_t arity = columns.size();
  std::vector<int> column_of(n, -1);
  for (size_t c = 0; c < arity; ++c) {
    const PatternNodeId p = columns[c];
    if (p < 0 || static_cast<size_t>(p) >= n || column_of[p] >= 0) {
      return Status::Internal("result schema is not a permutation of the "
                              "pattern's nodes");
    }
    column_of[p] = static_cast<int>(c);
  }
  if (arity != n) {
    return Status::Internal("result has " + std::to_string(arity) +
                            " columns for a pattern of " + std::to_string(n) +
                            " nodes");
  }
  std::vector<sjos::TagId> tags(n);
  for (size_t p = 0; p < n; ++p) {
    tags[p] = view.doc().dict().Find(pattern.node(static_cast<int>(p)).tag);
  }
  const sjos::DifferentialIndex* diff = view.diff();
  auto fail = [&](size_t r, size_t p, NodeId key, const char* what) {
    return Status::Internal(
        "row " + std::to_string(r) + ", pattern node " + std::to_string(p) +
        " (" + pattern.node(static_cast<int>(p)).tag + ") bound to " +
        std::to_string(key) + ": " + what);
  };
  for (size_t r = 0; r < num_rows; ++r) {
    const NodeId* row = data + r * arity;
    for (size_t p = 0; p < n; ++p) {
      const sjos::PatternNode& node = pattern.node(static_cast<int>(p));
      const NodeId key = row[column_of[p]];
      const bool live = view.IsBase(key)
                            ? key < view.doc().KeyDomain() &&
                                  (diff == nullptr || diff->IsLive(key))
                            : diff != nullptr && diff->IsLive(key);
      if (!live) return fail(r, p, key, "not a live node");
      if (tags[p] == sjos::kInvalidTag || view.TagOf(key) != tags[p]) {
        return fail(r, p, key, "wrong tag");
      }
      if (!node.predicate.Empty() &&
          !node.predicate.Matches(view.TextOf(key))) {
        return fail(r, p, key, "value predicate fails");
      }
      if (node.parent == sjos::kNoPatternNode) continue;
      const NodeId up = row[column_of[node.parent]];
      if (!view.IsAncestorKey(up, key)) {
        return fail(r, p, key,
                    "not contained in the binding of its pattern parent");
      }
      if (node.axis == sjos::Axis::kChild &&
          view.LevelOf(key) != view.LevelOf(up) + 1) {
        return fail(r, p, key, "'/' edge binds a non-child");
      }
    }
  }
  return Status::OK();
}

Status CheckTupleSoundness(const sjos::DocView& view, const Pattern& pattern,
                           const sjos::TupleSet& tuples) {
  return CheckSoundness(view, pattern, tuples.slots(),
                        tuples.empty() ? nullptr : tuples.Row(0),
                        tuples.size());
}

MatchCounter::MatchCounter(const sjos::Document& doc) {
  const size_t n = doc.NumNodes();
  tags_.reserve(n);
  texts_.reserve(n);
  parents_.reserve(n);
  for (size_t slot = 0; slot < n; ++slot) {
    const NodeId key = doc.KeyOfSlot(static_cast<NodeId>(slot));
    tags_.push_back(doc.TagNameOf(key));
    texts_.emplace_back(doc.TextOf(key));
    const NodeId parent = doc.ParentOf(key);
    parents_.push_back(parent == sjos::kInvalidNode
                           ? -1
                           : static_cast<int64_t>(doc.SlotOfKey(parent)));
  }
  alive_.assign(n, true);
}

size_t MatchCounter::Graft(size_t parent, const sjos::Document& fragment) {
  const size_t base = tags_.size();
  for (size_t slot = 0; slot < fragment.NumNodes(); ++slot) {
    const NodeId key = fragment.KeyOfSlot(static_cast<NodeId>(slot));
    tags_.push_back(fragment.TagNameOf(key));
    texts_.emplace_back(fragment.TextOf(key));
    const NodeId p = fragment.ParentOf(key);
    parents_.push_back(
        p == sjos::kInvalidNode
            ? static_cast<int64_t>(parent)
            : static_cast<int64_t>(base + fragment.SlotOfKey(p)));
    alive_.push_back(true);
  }
  return base;
}

void MatchCounter::Prune(size_t root) {
  // Grafted nodes follow their parent, so one forward pass finds the
  // whole subtree.
  alive_[root] = false;
  for (size_t i = root + 1; i < tags_.size(); ++i) {
    if (parents_[i] >= 0 && !alive_[static_cast<size_t>(parents_[i])] &&
        static_cast<size_t>(parents_[i]) >= root) {
      alive_[i] = false;
    }
  }
}

uint64_t MatchCounter::Count(const Pattern& pattern) const {
  // m[q][v]: matches of the pattern subtree at q with q bound to v.
  // below[q][v]: sum of m[q][d] over proper descendants d of v.
  // Every node's index exceeds its parent's, so a reverse sweep sees all
  // children before their parent.
  const size_t n = tags_.size();
  const size_t k = pattern.NumNodes();
  std::vector<std::vector<uint64_t>> m(k, std::vector<uint64_t>(n, 0));
  std::vector<std::vector<uint64_t>> below(k, std::vector<uint64_t>(n, 0));
  std::vector<std::vector<uint64_t>> child_sum(k, std::vector<uint64_t>(n, 0));
  for (int q = static_cast<int>(k) - 1; q >= 0; --q) {
    const sjos::PatternNode& node = pattern.node(q);
    const std::vector<PatternNodeId> kids = pattern.ChildrenOf(q);
    for (size_t v = n; v-- > 0;) {
      if (!alive_[v]) continue;
      if (tags_[v] == node.tag &&
          (node.predicate.Empty() || node.predicate.Matches(texts_[v]))) {
        uint64_t product = 1;
        for (PatternNodeId c : kids) {
          product *= pattern.node(c).axis == sjos::Axis::kChild
                         ? child_sum[c][v]
                         : below[c][v];
          if (product == 0) break;
        }
        m[q][v] = product;
      }
      if (parents_[v] >= 0) {
        const size_t p = static_cast<size_t>(parents_[v]);
        child_sum[q][p] += m[q][v];
        below[q][p] += m[q][v] + below[q][v];
      }
    }
  }
  uint64_t total = 0;
  for (size_t v = 0; v < n; ++v) total += m[0][v];
  return total;
}

}  // namespace perfbench
