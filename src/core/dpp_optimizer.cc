// Best-first engine (see best_first.h) and the DPP optimizer built on it.

#include <queue>
#include <unordered_map>
#include <vector>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/best_first.h"
#include "core/move_gen.h"
#include "core/opt_status.h"
#include "core/plan_builder.h"

namespace sjos {

namespace {

/// Arena record for one discovered status. `cost` is the best-known Cost;
/// a record is superseded (and its queue entries go stale) when a cheaper
/// path to the same key is found.
struct NodeRec {
  OptStatus status;
  StatusKey key;  // cached: hashing the status is on the pop hot path
  double cost = 0.0;
  double ub = 0.0;
  int parent = -1;  // arena index
  Move via;
};

struct QueueEntry {
  double priority;  // Cost + ubCost
  int arena_index;
  bool operator>(const QueueEntry& other) const {
    return priority > other.priority;
  }
};

}  // namespace

Result<OptimizeResult> BestFirstOptimize(const OptimizeContext& ctx,
                                         const BestFirstOptions& options) {
  Timer timer;
  SJOS_FAILPOINT("opt.search");
  SJOS_RETURN_IF_ERROR(ctx.pattern->Validate());
  if (ctx.pattern->NumNodes() > kMaxPatternNodes) {
    return Status::Unsupported("pattern too large for status optimization");
  }

  MoveGenerator gen(*ctx.pattern, *ctx.estimates, *ctx.cost_model);
  const size_t num_edges = gen.num_edges();
  OptimizerStats stats;
  MoveGenOptions move_options;
  move_options.left_deep_only = options.left_deep_only;
  move_options.navigation_everywhere = options.navigation_everywhere;

  std::vector<NodeRec> arena;
  std::unordered_map<StatusKey, int, StatusKeyHash> best_index;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  std::vector<uint32_t> expanded_at(num_edges + 1, 0);

  // MinCost: cost of the best complete plan found (incl. order fix).
  double min_cost = 0.0;
  int best_final = -1;

  OptStatus start = OptStatus::Start(*ctx.pattern);
  arena.push_back(NodeRec{start, start.Key(), 0.0, gen.UbCost(start), -1, {}});
  best_index.emplace(arena[0].key, 0);
  queue.push(QueueEntry{arena[0].ub, 0});
  ++stats.statuses_generated;

  std::vector<Move> moves;
  const bool tracing = Tracer::Global().enabled();
  const int64_t search_start_us = tracing ? Tracer::Global().NowMicros() : 0;
  const double deadline_ms = ctx.options.deadline_ms;
  uint64_t pops = 0;
  while (!queue.empty()) {
    // Deadline poll every 64 pops (the best-first analogue of DP's
    // per-level check): a breach degrades to the FP heuristic.
    if ((pops++ & 63) == 0) {
      SJOS_FAILPOINT("opt.search.step");
      if (deadline_ms > 0.0 && timer.ElapsedMs() >= deadline_ms) {
        return FallbackToFp(ctx, options.algo_name, stats, timer.ElapsedMs());
      }
    }
    const QueueEntry top = queue.top();
    queue.pop();
    const NodeRec rec = arena[static_cast<size_t>(top.arena_index)];
    // Stale queue entry: a cheaper path to this key exists.
    auto idx_it = best_index.find(rec.key);
    if (idx_it == best_index.end() || idx_it->second != top.arena_index) {
      continue;
    }
    // Pruning Rule: dead once a complete plan at or below this cost exists.
    if (best_final >= 0 && rec.cost >= min_cost) continue;
    if (rec.status.IsFinal(num_edges)) continue;  // finals are not expanded

    // DPAP-EB Expansion Bound: statuses at a saturated level are dropped.
    const size_t level = static_cast<size_t>(rec.status.Level());
    if (options.expansion_bound > 0 &&
        expanded_at[level] >= options.expansion_bound) {
      continue;
    }
    ++expanded_at[level];
    ++stats.statuses_expanded;

    moves.clear();
    gen.Enumerate(rec.status, move_options, &moves);
    for (const Move& move : moves) {
      OptStatus next = gen.Apply(rec.status, move);
      const double cost = rec.cost + move.cost;
      // Pruning Rule applied at generation time too.
      if (best_final >= 0 && cost >= min_cost) continue;
      const bool is_final = next.IsFinal(num_edges);
      // Lookahead Rule: never generate dead ends. Such moves are filtered
      // before the partial plan counts as "considered" — the paper's
      // DPP vs DPP' comparison (Table 2) hinges on this.
      if (!is_final && options.lookahead && gen.IsDeadend(next)) continue;
      ++stats.statuses_generated;
      ++stats.plans_considered;

      StatusKey key = next.Key();
      auto it = best_index.find(key);
      if (it != best_index.end() &&
          arena[static_cast<size_t>(it->second)].cost <= cost) {
        continue;  // cheaper path already known
      }
      const int index = static_cast<int>(arena.size());
      arena.push_back(NodeRec{next, key, cost,
                              is_final ? 0.0 : gen.UbCost(next),
                              top.arena_index, move});
      if (it != best_index.end()) {
        it->second = index;
      } else {
        best_index.emplace(key, index);
      }
      if (is_final) {
        const double total = cost + gen.FinalOrderFixCost(next);
        if (best_final < 0 || total < min_cost) {
          best_final = index;
          min_cost = total;
        }
      } else {
        queue.push(QueueEntry{cost + arena[static_cast<size_t>(index)].ub,
                              index});
      }
    }
  }

  if (tracing && Tracer::Global().enabled()) {
    Tracer::Global().RecordSpan(
        "optimize.search:best-first", nullptr, search_start_us,
        Tracer::Global().NowMicros() - search_start_us);
  }

  if (best_final < 0) {
    return Status::NotFound(StrFormat(
        "no complete plan found in the restricted search space (bound=%u, "
        "left-deep=%d)",
        options.expansion_bound, options.left_deep_only ? 1 : 0));
  }

  std::vector<Move> chosen(num_edges);
  int at = best_final;
  for (size_t lv = num_edges; lv > 0; --lv) {
    const NodeRec& rec = arena[static_cast<size_t>(at)];
    chosen[lv - 1] = rec.via;
    at = rec.parent;
  }

  Result<OptimizeResult> result = BuildResultFromMoves(ctx, gen, chosen, min_cost);
  if (!result.ok()) return result;
  result.value().stats = stats;
  result.value().stats.opt_time_ms = timer.ElapsedMs();
  RecordOptimizerMetrics(result.value().stats);
  return result;
}

namespace {

class DppOptimizer : public Optimizer {
 public:
  DppOptimizer(bool lookahead, bool navigation_everywhere)
      : lookahead_(lookahead), navigation_everywhere_(navigation_everywhere) {}

  const char* name() const override {
    if (navigation_everywhere_) return "DPP+nav";
    return lookahead_ ? "DPP" : "DPP'";
  }

 protected:
  Result<OptimizeResult> Search(const OptimizeContext& ctx) override {
    TraceSpan span("optimize:", name());
    BestFirstOptions options;
    options.lookahead = lookahead_;
    options.navigation_everywhere = navigation_everywhere_;
    options.algo_name = name();
    return BestFirstOptimize(ctx, options);
  }

 private:
  bool lookahead_;
  bool navigation_everywhere_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeDppOptimizer(bool lookahead) {
  return std::make_unique<DppOptimizer>(lookahead, false);
}

std::unique_ptr<Optimizer> MakeDppNavOptimizer() {
  return std::make_unique<DppOptimizer>(true, true);
}

}  // namespace sjos
