// DPAP-EB (Sec. 3.3.1): Dynamic Programming with Aggressive Pruning via an
// Expansion Bound. Identical to DPP except that at most T_e statuses may
// be expanded per level; statuses popped at a saturated level are dropped.
// Heuristic: costly sub-plans rarely grow into the optimum, so bounding
// per-level expansion keeps the cheap ones and discards the tail.

#include "common/str_util.h"
#include "common/trace.h"
#include "core/best_first.h"

namespace sjos {

namespace {

class DpapEbOptimizer : public Optimizer {
 public:
  explicit DpapEbOptimizer(uint32_t expansion_bound)
      : expansion_bound_(expansion_bound == 0 ? 1 : expansion_bound),
        name_(StrFormat("DPAP-EB(%u)", expansion_bound_)) {}

  const char* name() const override { return "DPAP-EB"; }

  /// The configured bound, for bench labels.
  uint32_t expansion_bound() const { return expansion_bound_; }

 protected:
  Result<OptimizeResult> Search(const OptimizeContext& ctx) override {
    TraceSpan span("optimize:", name());
    BestFirstOptions options;
    options.lookahead = true;
    options.expansion_bound = expansion_bound_;
    options.algo_name = name();
    return BestFirstOptimize(ctx, options);
  }

 private:
  uint32_t expansion_bound_;
  std::string name_;
};

}  // namespace

std::unique_ptr<Optimizer> MakeDpapEbOptimizer(uint32_t expansion_bound) {
  return std::make_unique<DpapEbOptimizer>(expansion_bound);
}

}  // namespace sjos
