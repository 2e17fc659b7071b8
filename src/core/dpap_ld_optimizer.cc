// DPAP-LD (Sec. 3.3.2): the relational rule of thumb — consider only
// left-deep plans. A status may contain at most one multi-node cluster
// (the "growing node"); every move joins that cluster with a base
// candidate list. The paper's experiments show this heuristic, unlike in
// the relational world, misses the optimum badly on larger data sets.

#include "common/trace.h"
#include "core/best_first.h"

namespace sjos {

namespace {

class DpapLdOptimizer : public Optimizer {
 public:
  const char* name() const override { return "DPAP-LD"; }

 protected:
  Result<OptimizeResult> Search(const OptimizeContext& ctx) override {
    TraceSpan span("optimize:", name());
    BestFirstOptions options;
    options.lookahead = true;
    options.left_deep_only = true;
    options.algo_name = name();
    return BestFirstOptimize(ctx, options);
  }
};

}  // namespace

std::unique_ptr<Optimizer> MakeDpapLdOptimizer() {
  return std::make_unique<DpapLdOptimizer>();
}

}  // namespace sjos
