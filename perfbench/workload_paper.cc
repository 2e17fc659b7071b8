// paper: the eight Table 1 queries on Mbench, DBLP and Pers at the
// paper's default sizes, run in-process through Engine::Query with DPP and
// a warm plan cache, one client, closed loop. Almost all of its time is in
// exec (scans, sorts, Stack-Tree joins); none is in encoding or the wire.

#include <cstdio>

#include "harness.h"
#include "trace_spans.h"

namespace perfbench {

using sjos::BenchQuery;
using sjos::Engine;
using sjos::Result;
using sjos::Status;

namespace {

/// Below this many nodes NaiveMatch is fast enough to check the one query
/// whose full-size oracle is too slow (Q.Mbench.2.b: minutes).
constexpr uint64_t kSmallMbenchNodes = 20000;

struct DataSet {
  std::string name;
  std::unique_ptr<Engine> engine;
  /// Traced mode only: for calling the estimate and core layers directly.
  std::unique_ptr<sjos::PositionalHistogramEstimator> estimator;
};

struct PaperQuery {
  BenchQuery query;
  const DataSet* set = nullptr;
  Digest expected;
};

sjos::PlanCacheCounters SumCounters(const std::vector<DataSet>& sets) {
  sjos::PlanCacheCounters sum;
  for (const DataSet& s : sets) {
    const sjos::PlanCacheCounters c = s.engine->plan_cache().Counters();
    sum.hits += c.hits;
    sum.misses += c.misses;
  }
  return sum;
}

/// Q.Mbench.2.b at full size is checked by the five optimizers agreeing;
/// here the engine must also match NaiveMatch on a smaller Mbench.
Status CheckSmallMbench(const BenchQuery& query, uint64_t seed) {
  OpenedDataset small = OpenDataset("Mbench", kSmallMbenchNodes, seed);
  const Digest expected = NaiveDigest(small.db.doc(), query.pattern);
  std::unique_ptr<Engine> engine = MakeEngine(std::move(small.db));
  Result<sjos::QueryResult> r = engine->Query(query.pattern);
  if (!r.ok()) return r.status();
  return CheckResult(*engine, query.pattern, r.value().tuples, expected,
                     query.id + " on a " + std::to_string(kSmallMbenchNodes) +
                         "-node Mbench");
}

}  // namespace

Status RunPaper(const Options& options, RunReport* report) {
  LayerFigures layers;
  EndToEnd e2e;

  // Set-up: data, databases, engines, one warm-up pass.
  std::vector<DataSet> sets;
  std::vector<PaperQuery> queries;
  for (const char* name : {"Mbench", "DBLP", "Pers"}) {
    OpenedDataset ds = OpenDataset(name, 0, DeriveSeed(options.seed, name));
    layers.generate_ms += ds.generate_ms;
    layers.open_ms += ds.open_ms;
    sets.push_back({name, MakeEngine(std::move(ds.db)), nullptr});
    if (options.trace) {
      sets.back().estimator =
          BuildEstimator(sets.back().engine->db(), &layers.estimator_build_ms);
    }
  }
  for (const BenchQuery& q : sjos::PaperWorkload()) {
    for (DataSet& s : sets) {
      if (s.name == q.dataset) queries.push_back({q, &s, {}});
    }
  }
  std::vector<sjos::TupleSet> warm(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<sjos::QueryResult> r =
        queries[i].set->engine->Query(queries[i].query.pattern);
    if (!r.ok()) return r.status();
    warm[i] = std::move(r.value().tuples);
  }
  e2e.setup_s = MsSince(options.process_start) / 1000.0;

  // Oracles, outside the set-up time: NaiveMatch, and the five optimizers.
  layers.queries.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    PaperQuery& pq = queries[i];
    layers.queries[i].id = pq.query.id;
    if (pq.query.id == "Q.Mbench.2.b") {
      SJOS_RETURN_IF_ERROR(
          CheckSmallMbench(pq.query, DeriveSeed(options.seed, "Mbench")));
      Result<Digest> d = DigestTuples(warm[i]);
      if (!d.ok()) return d.status();
      pq.expected = d.value();  // must now agree with all five optimizers
    } else {
      pq.expected = NaiveDigest(pq.set->engine->db().doc(), pq.query.pattern);
    }
    SJOS_RETURN_IF_ERROR(CheckResult(*pq.set->engine, pq.query.pattern, warm[i],
                                     pq.expected, pq.query.id + " warm-up"));
    SJOS_RETURN_IF_ERROR(SurveyOptimizers(
        pq.set->engine.get(), pq.query, pq.expected, pq.set->estimator.get(),
        &layers, &layers.queries[i]));
  }
  warm.clear();

  // Closed loop: whole passes over the eight queries.
  const sjos::PlanCacheCounters before = SumCounters(sets);
  std::vector<double> all_latencies, pass_ms;
  const Clock::time_point loop_start = Clock::now();
  while (pass_ms.empty() || MsSince(loop_start) < options.seconds * 1000.0) {
    double pass = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const PaperQuery& pq = queries[i];
      QueryDetail& detail = layers.queries[i];
      Result<sjos::QueryResult> r = Status::Internal("unset");
      double latency = 0.0;
      {
        ScopedOperation op(pq.query.id);
        const Clock::time_point t0 = Clock::now();
        {
          ScopedSpan span("service", "Engine::Query");
          r = pq.set->engine->Query(pq.query.pattern);
        }
        latency = MsSince(t0);
      }
      ++report->attempted;
      if (!r.ok()) {
        return Status::Internal(pq.query.id + " failed: " +
                                r.status().ToString());
      }
      pass += latency;
      detail.latency_ms.push_back(latency);
      detail.eval_ms.push_back(r.value().stats.wall_ms);
      detail.max_q_error = r.value().stats.max_q_error;
      detail.peak_live_bytes = r.value().stats.peak_live_bytes;
      detail.rows = r.value().tuples.size();
      all_latencies.push_back(latency);
      SJOS_RETURN_IF_ERROR(CheckResult(*pq.set->engine, pq.query.pattern,
                                       r.value().tuples, pq.expected,
                                       pq.query.id));
    }
    pass_ms.push_back(pass);
  }
  const sjos::PlanCacheCounters after = SumCounters(sets);

  std::vector<double> medians;
  for (const QueryDetail& d : layers.queries) {
    medians.push_back(Median(d.latency_ms));
  }
  e2e.read_geomean_ms = Geomean(medians);
  e2e.read_p95_ms = Percentile(all_latencies, 95.0);
  // Operations of one pass over its median length: a slow pass does not
  // move it.
  e2e.ops_per_s =
      static_cast<double>(queries.size()) / (Median(pass_ms) / 1000.0);
  std::fprintf(stderr,
               "paper: %zu passes, pass %.1f ms, geomean %.2f ms, p95 %.1f ms "
               "(%zu samples above), setup %.2f s\n",
               pass_ms.size(), Median(pass_ms), e2e.read_geomean_ms,
               e2e.read_p95_ms, SamplesAbove(all_latencies, 95.0), e2e.setup_s);

  if (options.trace) {
    std::vector<ProbeSet> probes;
    for (DataSet& s : sets) {  // Pers last: it takes the write probe
      ProbeSet probe;
      probe.engine = s.engine.get();
      for (const PaperQuery& pq : queries) {
        if (pq.set != &s) continue;
        probe.queries.push_back(pq.query);
        probe.expected.push_back(pq.expected);
      }
      probes.push_back(std::move(probe));
    }
    SJOS_RETURN_IF_ERROR(
        FillTracedLayers(probes, before, after, e2e, true, &layers));
  }
  FinishReport(options, e2e, layers, report);
  return Status::OK();
}

}  // namespace perfbench
