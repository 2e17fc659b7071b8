// Pieces the three workloads share: run options, seeded data sets, the
// NaiveMatch oracle, the five-optimizer survey, the traced-mode write and
// wire probes, and the assembly of the printed metrics. Every workload
// prints the same metric names (BENCHMARK.json); README.md says what each
// one measures on each workload.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "estimate/positional_histogram.h"
#include "net/client.h"
#include "net/json.h"
#include "query/workload.h"
#include "service/engine.h"
#include "stats.h"
#include "storage/catalog.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// When the process started; setup_s is measured from here.
  Clock::time_point process_start;
};

/// Derives an independent seed for one input from the run's --seed.
uint64_t DeriveSeed(uint64_t seed, const std::string& salt);

/// One of the paper's data sets at a given size, generated from a seed
/// and opened, with the two set-up steps timed.
struct OpenedDataset {
  sjos::Database db;
  double generate_ms = 0.0;
  double open_ms = 0.0;
};

/// `dataset` is "Mbench", "DBLP" or "Pers"; nodes 0 = the paper's size.
OpenedDataset OpenDataset(const std::string& dataset, uint64_t nodes,
                          uint64_t seed);

/// Builds the positional-histogram estimator the Engine builds for `db`,
/// on its own, adding the time it took to `*build_ms` (traced mode: the
/// estimate and core layers are then called directly).
std::unique_ptr<sjos::PositionalHistogramEstimator> BuildEstimator(
    const sjos::Database& db, double* build_ms);

/// Hands `db` to a fresh Engine (which builds the estimator).
std::unique_ptr<sjos::Engine> MakeEngine(sjos::Database db);

/// The Table 1 queries of one data set.
std::vector<sjos::BenchQuery> QueriesOf(const std::string& dataset);

/// Per-query counters from a traced run, for the detail file and the
/// per-layer metrics.
struct QueryDetail {
  std::string id;
  std::vector<double> latency_ms;
  std::vector<double> eval_ms;  // ExecStats::wall_ms
  double max_q_error = 0.0;
  uint64_t peak_live_bytes = 0;
  uint64_t rows = 0;
  double canonicalize_ms = 0.0;
  double plan_warm_us = 0.0;
  double chosen_over_best = 0.0;
  double result_bytes = 0.0;
  double client_decode_ms = 0.0;
  double unattributed_ms = 0.0;
};

/// Everything the per-layer metrics are made from. Sums and maxima run
/// over the workload's data sets and queries.
struct LayerFigures {
  double generate_ms = 0.0;
  double open_ms = 0.0;
  double estimator_build_ms = 0.0;
  double fragment_parse_us = 0.0;
  double overlay_read_ms = 0.0;
  double base_read_ms = 0.0;
  double write_ms = 0.0;
  double flush_ms = 0.0;
  double invalidated_per_write = 0.0;
  double histogram_deltas_per_write = 0.0;
  double plan_cache_hit_ratio = 0.0;
  double server_total_ms = 0.0;
  std::map<std::string, double> plan_cold_us;       // by optimizer
  std::map<std::string, double> plans_considered;   // by optimizer
  std::vector<QueryDetail> queries;
  /// End-to-end figures measured under tracing (overhead = these against
  /// the untraced run's).
  double traced_read_geomean_ms = 0.0;
  double traced_ops_per_s = 0.0;
};

/// The end-to-end figures every workload measures. setup_s is printed
/// (with peak_rss_mb); the rest go to the detail file and stderr.
struct EndToEnd {
  double setup_s = 0.0;
  double read_geomean_ms = 0.0;
  double read_p95_ms = 0.0;
  double ops_per_s = 0.0;
};

/// Completeness oracle: NaiveMatch digest of `pattern` on `doc`.
Digest NaiveDigest(const sjos::Document& doc, const sjos::Pattern& pattern);

/// Runs every optimizer's plan for `query` on `engine` and checks that
/// each result is sound and has `expected` as its digest (join order must
/// not change the answer). With an `estimator` (traced mode), also times
/// each optimizer called directly on the pattern's estimates (cold
/// planning) and fills the chosen-over-best figure. `rank_order`: see
/// DigestRows.
sjos::Status SurveyOptimizers(
    sjos::Engine* engine, const sjos::BenchQuery& query,
    const Digest& expected, const sjos::CardinalityEstimator* estimator,
    LayerFigures* layers, QueryDetail* detail,
    const std::vector<sjos::NodeId>* rank_order = nullptr);

/// Checks one engine result: sound against the engine's current view, and
/// equal to `expected`.
sjos::Status CheckResult(
    const sjos::Engine& engine, const sjos::Pattern& pattern,
    const sjos::TupleSet& tuples, const Digest& expected,
    const std::string& what,
    const std::vector<sjos::NodeId>* rank_order = nullptr);

/// The fragment the mixed workload and the write probe insert.
extern const char kFragmentXml[];

/// Keys of the live managers that are not inside an inserted fragment, in
/// document order. Stable identities across flushes: the i-th entry is
/// always the same original manager.
std::vector<sjos::NodeId> OriginalManagers(const sjos::Database& db);

/// Keys of the live fragment roots, in document order.
std::vector<sjos::NodeId> FragmentRoots(const sjos::Database& db);

/// Parent key of a live node, base or overlay.
sjos::NodeId ParentKey(const sjos::Database& db, sjos::NodeId key);

/// The first insert into a freshly built (densely numbered) document
/// respaces its keys before it resolves the parent key, so only the
/// root's key survives it. This primes the key space with one insert under
/// the root, undone at once; afterwards keys read from the database stay
/// valid for inserts. A no-op on an already spaced document.
sjos::Status SpaceKeys(sjos::Engine* engine);

/// Submits `query` under wire id `id` and sends the blocking poll; the
/// caller then reads the result frame with Client::Receive.
sjos::Status SendQuery(sjos::net::Client* client, const std::string& id,
                       const std::string& query);

/// One query over the wire: its check's verdict, when the decoded result
/// was in hand (the latency end point; the check comes after it), and what
/// the frame and its response carried.
struct WireOutcome {
  sjos::Status status;
  Clock::time_point done;
  double frame_bytes = 0.0;
  double decode_ms = 0.0;  // net::ParseJson of the frame
  double eval_ms = 0.0;
  double max_q_error = 0.0;
  uint64_t peak_live_bytes = 0;
  uint64_t rows = 0;
};

/// Sends `query` under wire id `id`, waits for its result, and checks it:
/// every row sound against `engine`'s view, and `expected` as the digest.
/// `rank_order`: see DigestRows.
WireOutcome RunWireQuery(sjos::net::Client* client, const std::string& id,
                         const sjos::BenchQuery& query,
                         const sjos::Engine& engine, const Digest& expected,
                         const std::vector<sjos::NodeId>* rank_order = nullptr);

/// One engine and its queries, for the traced-mode probes.
struct ProbeSet {
  sjos::Engine* engine = nullptr;
  std::vector<sjos::BenchQuery> queries;
  std::vector<Digest> expected;  // by query
  /// Non-empty when the engine's keys are not pre-order ranks (see
  /// DigestRows).
  std::vector<sjos::NodeId> rank_order;
};

/// Traced mode, after the measured loop: the traced end-to-end figures,
/// the plan-cache hit ratio between `before` and `after`, and the probes
/// (canonicalizing, cache-hit planning, audit-log totals, the wire probe
/// over loopback, and the write probe on the last set, which must hold the
/// Pers document). With `fill_write_figures` false the workload's own
/// write figures are kept.
sjos::Status FillTracedLayers(const std::vector<ProbeSet>& sets,
                              const sjos::PlanCacheCounters& before,
                              const sjos::PlanCacheCounters& after,
                              const EndToEnd& e2e, bool fill_write_figures,
                              LayerFigures* layers);

/// Fills `report` with the end-to-end metrics (untraced) or the
/// per-layer metrics (traced), and writes the detail JSON and the trace.
void FinishReport(const Options& options, const EndToEnd& e2e,
                  const LayerFigures& layers, RunReport* report);

/// The three workloads (README.md). Each fills `report`; a failed check
/// comes back as a non-OK status.
sjos::Status RunPaper(const Options& options, RunReport* report);
sjos::Status RunServe(const Options& options, RunReport* report);
sjos::Status RunMixed(const Options& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
