// The optimizer interface shared by the five algorithms of Sec. 3, plus
// the statistics each run reports (optimization time and the number of
// alternative plans considered — the currency of Table 2).
//
// Expert path: these factories and OptimizeContext are the low-level
// optimization API — you bring your own PatternEstimates and CostModel and
// execute the plan yourself. Most callers should use sjos::Engine
// (service/engine.h), which selects the algorithm via
// QueryOptions::optimizer, caches plans across repeated patterns, and
// handles estimation wiring internally.

#ifndef SJOS_CORE_OPTIMIZER_H_
#define SJOS_CORE_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimate/composite.h"
#include "plan/cost_model.h"
#include "plan/plan.h"
#include "query/pattern.h"

namespace sjos {

/// Optimizer-side resource limits (distinct from ExecOptions, which
/// govern execution).
struct OptimizerOptions {
  /// Wall-clock budget for the plan search in milliseconds (0 =
  /// unlimited). DP and the best-first engines (DPP, DPAP-*) poll it
  /// during search; on a breach they degrade gracefully to the linear FP
  /// heuristic instead of failing, recording the fallback in metrics
  /// (sjos_opt_deadline_fallbacks_total), OptimizeResult::fallback_from,
  /// and the plan's EXPLAIN note. Only when FP itself cannot plan the
  /// pattern (unindexed nodes) does the breach surface as
  /// Status::DeadlineExceeded. FP ignores the deadline — it IS the
  /// fallback, and its search is linear in the pattern size.
  double deadline_ms = 0.0;
};

/// Everything an optimizer needs for one query.
struct OptimizeContext {
  const Pattern* pattern = nullptr;
  const PatternEstimates* estimates = nullptr;
  const CostModel* cost_model = nullptr;
  OptimizerOptions options;
};

/// Per-run search statistics.
struct OptimizerStats {
  uint64_t plans_considered = 0;    // alternatives costed during search
  uint64_t statuses_generated = 0;  // statuses created (incl. duplicates)
  uint64_t statuses_expanded = 0;   // statuses whose moves were enumerated
  double opt_time_ms = 0.0;         // wall-clock optimization time

  std::string ToString() const;
};

/// Publishes one run's statistics to the global MetricsRegistry
/// (sjos_opt_runs_total, plans-considered/statuses counters, and the
/// sjos_opt_time_us histogram). Every algorithm calls it once per
/// successful Optimize.
void RecordOptimizerMetrics(const OptimizerStats& stats);

/// The outcome of one optimization.
struct OptimizeResult {
  PhysicalPlan plan;
  /// Cost accumulated over the chosen move sequence (joins + sorts; index
  /// scans excluded, being identical across plans).
  double search_cost = 0.0;
  /// Full modelled cost of the built plan, index scans included.
  double modelled_cost = 0.0;
  OptimizerStats stats;
  /// Name of the algorithm whose search was cut short when this result
  /// came from the deadline-triggered FP fallback ("DP", "DPP", ...);
  /// empty when the original search finished.
  std::string fallback_from;
};

/// Abstract join-order optimizer.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Finds an evaluation plan for the context's pattern. Fails on invalid
  /// patterns, patterns over kMaxPatternNodes, or (for restricted search
  /// spaces) when no plan within the space exists. A one-node pattern has
  /// no join order to choose: every algorithm returns the single
  /// index-scan plan, built here rather than by each search.
  Result<OptimizeResult> Optimize(const OptimizeContext& ctx);

  /// Algorithm name as used in the paper's tables ("DP", "DPP", ...).
  virtual const char* name() const = 0;

 protected:
  /// The algorithm's plan search, for patterns with at least one edge.
  virtual Result<OptimizeResult> Search(const OptimizeContext& ctx) = 0;
};

/// Factory helpers for the paper's line-up.
std::unique_ptr<Optimizer> MakeDpOptimizer();
std::unique_ptr<Optimizer> MakeDppOptimizer(bool lookahead = true);
/// DPP with subtree navigation offered on every edge (extension beyond
/// the paper's join-only plan space; see bench_nav for the ablation).
std::unique_ptr<Optimizer> MakeDppNavOptimizer();
std::unique_ptr<Optimizer> MakeDpapEbOptimizer(uint32_t expansion_bound);
std::unique_ptr<Optimizer> MakeDpapLdOptimizer();
std::unique_ptr<Optimizer> MakeFpOptimizer();

/// All five algorithms with the paper's Table 1 settings (DPAP-EB bound =
/// number of pattern edges, chosen per Sec. 4.2).
std::vector<std::unique_ptr<Optimizer>> MakePaperOptimizers(size_t num_edges);

/// Graceful degradation shared by the search-based optimizers: called when
/// `from_name`'s search exceeded OptimizerOptions::deadline_ms after
/// `elapsed_ms` with `partial_stats` of work done. Re-plans with FP (its
/// own deadline cleared), folds the abandoned search's counters into the
/// returned stats, marks the result (fallback_from + plan note) and bumps
/// sjos_opt_deadline_fallbacks_total. Returns DeadlineExceeded when FP
/// cannot plan the pattern either.
Result<OptimizeResult> FallbackToFp(const OptimizeContext& ctx,
                                    const char* from_name,
                                    const OptimizerStats& partial_stats,
                                    double elapsed_ms);

}  // namespace sjos

#endif  // SJOS_CORE_OPTIMIZER_H_
