#include "core/optimizer.h"

#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "plan/plan_props.h"

namespace sjos {

void RecordOptimizerMetrics(const OptimizerStats& stats) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter& runs = registry.GetCounter("sjos_opt_runs_total");
  static Counter& plans =
      registry.GetCounter("sjos_opt_plans_considered_total");
  static Counter& generated =
      registry.GetCounter("sjos_opt_statuses_generated_total");
  static Counter& expanded =
      registry.GetCounter("sjos_opt_statuses_expanded_total");
  static Histogram& time_us = registry.GetHistogram("sjos_opt_time_us");
  runs.Add(1);
  plans.Add(stats.plans_considered);
  generated.Add(stats.statuses_generated);
  expanded.Add(stats.statuses_expanded);
  time_us.Observe(static_cast<uint64_t>(stats.opt_time_ms * 1000.0));
}

std::string OptimizerStats::ToString() const {
  return StrFormat(
      "plans=%llu statuses(gen=%llu, expanded=%llu) time=%.3fms",
      static_cast<unsigned long long>(plans_considered),
      static_cast<unsigned long long>(statuses_generated),
      static_cast<unsigned long long>(statuses_expanded), opt_time_ms);
}

Result<OptimizeResult> Optimizer::Optimize(const OptimizeContext& ctx) {
  if (ctx.pattern->NumNodes() != 1) return Search(ctx);
  // One node, no edges: the plan is its index scan, whatever the
  // algorithm (the scan FP's re-rooting search also arrives at).
  TraceSpan span("optimize:", name());
  Timer timer;
  SJOS_FAILPOINT("opt.search");
  SJOS_RETURN_IF_ERROR(ctx.pattern->Validate());
  OptimizeResult result;
  result.plan.SetRoot(result.plan.AddIndexScan(0));
  SJOS_RETURN_IF_ERROR(ValidatePlan(result.plan, *ctx.pattern));
  Result<PlanProps> props = ComputePlanProps(result.plan, *ctx.pattern,
                                             *ctx.estimates, *ctx.cost_model);
  if (!props.ok()) return props.status();
  result.modelled_cost = props.value().total_cost;
  AnnotatePlanEstimates(&result.plan, props.value());
  result.stats.statuses_generated = 1;
  result.stats.opt_time_ms = timer.ElapsedMs();
  RecordOptimizerMetrics(result.stats);
  return result;
}

Result<OptimizeResult> FallbackToFp(const OptimizeContext& ctx,
                                    const char* from_name,
                                    const OptimizerStats& partial_stats,
                                    double elapsed_ms) {
  static Counter& fallbacks = MetricsRegistry::Global().GetCounter(
      "sjos_opt_deadline_fallbacks_total");
  fallbacks.Add(1);
  OptimizeContext fp_ctx = ctx;
  fp_ctx.options.deadline_ms = 0.0;  // the fallback must be allowed to finish
  Result<OptimizeResult> fp = MakeFpOptimizer()->Optimize(fp_ctx);
  if (!fp.ok()) {
    return Status::DeadlineExceeded(StrFormat(
        "%s search exceeded its %.0f ms deadline after %.1f ms and the FP "
        "fallback failed: %s",
        from_name, ctx.options.deadline_ms, elapsed_ms,
        fp.status().ToString().c_str()));
  }
  OptimizeResult result = std::move(fp).value();
  // Keep the accounting honest: the abandoned search's work still happened.
  result.stats.plans_considered += partial_stats.plans_considered;
  result.stats.statuses_generated += partial_stats.statuses_generated;
  result.stats.statuses_expanded += partial_stats.statuses_expanded;
  result.stats.opt_time_ms += elapsed_ms;
  result.fallback_from = from_name;
  result.plan.SetNote(StrFormat(
      "optimizer deadline (%.0f ms) exceeded: fell back from %s to FP",
      ctx.options.deadline_ms, from_name));
  return result;
}

std::vector<std::unique_ptr<Optimizer>> MakePaperOptimizers(size_t num_edges) {
  std::vector<std::unique_ptr<Optimizer>> out;
  out.push_back(MakeDpOptimizer());
  out.push_back(MakeDppOptimizer());
  out.push_back(MakeDpapEbOptimizer(static_cast<uint32_t>(num_edges)));
  out.push_back(MakeDpapLdOptimizer());
  out.push_back(MakeFpOptimizer());
  return out;
}

}  // namespace sjos
