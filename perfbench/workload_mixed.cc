// mixed: a 20K-node Pers document driven in-process by one seeded closed
// loop that mixes Pers reads with Engine::Apply inserts of small subtrees,
// deletes of subtrees the loop inserted earlier, and a periodic
// FlushDifferential. The only workload that exercises the differential
// overlay, incremental histograms, tag-set plan-cache invalidation and
// the re-planning that follows.
//
// Every read's row count is checked against a conserved total: the
// count on the document as set up plus what each live inserted fragment
// contributes, both computed by MatchCounter apart from the engine. After
// each flush every query is compared with NaiveMatch over
// Database::MaterializeMerged(), in pre-order-rank space.
//
// Each round also looks up the fragments' root tag with a one-node
// pattern. Those lookups fail today (single-node patterns have no plan
// under DPP) and are counted as failed; their latency is kept out of the
// read figures.

#include <algorithm>
#include <cstdio>
#include <random>

#include "harness.h"
#include "query/pattern_parser.h"
#include "trace_spans.h"
#include "xml/parser.h"

namespace perfbench {

using sjos::BenchQuery;
using sjos::Engine;
using sjos::NodeId;
using sjos::Result;
using sjos::Status;

namespace {

constexpr uint64_t kPersNodes = 20000;
/// Managers the loop inserts under, chosen by seed, and the fragments
/// placed during set-up (one under each).
constexpr size_t kCandidates = 16;
/// Per round: kPairs x (insert, read, delete, read), kLookups failing
/// lookups, one flush.
constexpr size_t kPairs = 8;
constexpr size_t kLookups = 2;

struct Candidate {
  size_t ordinal = 0;                 // index into OriginalManagers()
  std::vector<uint64_t> contribution;  // rows added per query
};

/// Compares every query's engine answer with NaiveMatch over the merged
/// document, in pre-order-rank space, and with the conserved count.
Status CheckAgainstMaterialized(Engine* engine,
                                const std::vector<BenchQuery>& queries,
                                const std::vector<uint64_t>& expected_rows,
                                const std::string& when) {
  ScopedSpan span("oracle", "CheckAgainstMaterialized");
  const std::vector<NodeId> order = engine->db().MergedOrder();
  Result<sjos::Document> merged = engine->db().MaterializeMerged();
  if (!merged.ok()) return merged.status();
  for (size_t q = 0; q < queries.size(); ++q) {
    const Digest naive = NaiveDigest(merged.value(), queries[q].pattern);
    if (naive.rows != expected_rows[q]) {
      return Status::Internal(queries[q].id + " " + when +
                              ": NaiveMatch finds " +
                              std::to_string(naive.rows) +
                              " rows, the conserved count is " +
                              std::to_string(expected_rows[q]));
    }
    Result<sjos::QueryResult> r = engine->Query(queries[q].pattern);
    if (!r.ok()) return r.status();
    SJOS_RETURN_IF_ERROR(CheckResult(*engine, queries[q].pattern,
                                     r.value().tuples, naive,
                                     queries[q].id + " " + when, &order));
  }
  return Status::OK();
}

/// Index of `key` in the sorted `managers`, or SIZE_MAX.
size_t OrdinalOf(const std::vector<NodeId>& managers, NodeId key) {
  auto it = std::lower_bound(managers.begin(), managers.end(), key);
  return it != managers.end() && *it == key
             ? static_cast<size_t>(it - managers.begin())
             : static_cast<size_t>(-1);
}

}  // namespace

Status RunMixed(const Options& options, RunReport* report) {
  LayerFigures layers;
  EndToEnd e2e;
  std::mt19937_64 rng(DeriveSeed(options.seed, "mixed.ops"));

  OpenedDataset ds =
      OpenDataset("Pers", kPersNodes, DeriveSeed(options.seed, "mixed.Pers"));
  layers.generate_ms = ds.generate_ms;
  layers.open_ms = ds.open_ms;
  std::unique_ptr<Engine> engine = MakeEngine(std::move(ds.db));
  const std::vector<BenchQuery> queries = QueriesOf("Pers");
  const size_t nq = queries.size();
  Result<sjos::Pattern> lookup = sjos::ParsePattern("bmfrag");
  if (!lookup.ok()) return lookup.status();

  // Set-up: candidate managers, one fragment under each, a flush, and one
  // read of every query.
  std::vector<Candidate> candidates(kCandidates);
  {
    SJOS_RETURN_IF_ERROR(SpaceKeys(engine.get()));
    const std::vector<NodeId> managers = OriginalManagers(engine->db());
    std::vector<size_t> picks(managers.size());
    for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    for (size_t i = 0; i < kCandidates; ++i) {
      std::swap(picks[i], picks[i + rng() % (picks.size() - i)]);
      candidates[i].ordinal = picks[i];
    }
    for (const Candidate& c : candidates) {
      const std::vector<NodeId> live = OriginalManagers(engine->db());
      Result<sjos::MutationResult> r = engine->Apply(sjos::InsertSubtree{
          live[c.ordinal], 0, kFragmentXml});
      if (!r.ok()) return r.status();
    }
    Result<sjos::MutationResult> r = engine->Apply(sjos::FlushDifferential{});
    if (!r.ok()) return r.status();
  }
  for (const BenchQuery& q : queries) {
    Result<sjos::QueryResult> r = engine->Query(q.pattern);
    if (!r.ok()) return r.status();
  }
  e2e.setup_s = MsSince(options.process_start) / 1000.0;

  // Oracles, outside the set-up time: counts on the document as set up,
  // each candidate's contribution, NaiveMatch, the five optimizers.
  std::vector<uint64_t> expected_rows(nq);
  {
    ScopedSpan span("oracle", "MatchCounter");
    Result<sjos::Document> merged = engine->db().MaterializeMerged();
    if (!merged.ok()) return merged.status();
    MatchCounter counter(merged.value());
    for (size_t q = 0; q < nq; ++q) {
      expected_rows[q] = counter.Count(queries[q].pattern);
    }
    Result<sjos::Document> fragment = sjos::ParseXml(kFragmentXml);
    if (!fragment.ok()) return fragment.status();
    const std::vector<NodeId> order = engine->db().MergedOrder();
    const std::vector<NodeId> managers = OriginalManagers(engine->db());
    for (Candidate& c : candidates) {
      const size_t rank = static_cast<size_t>(
          std::lower_bound(order.begin(), order.end(), managers[c.ordinal]) -
          order.begin());
      const size_t root = counter.Graft(rank, fragment.value());
      for (size_t q = 0; q < nq; ++q) {
        c.contribution.push_back(counter.Count(queries[q].pattern) -
                                 expected_rows[q]);
      }
      counter.Prune(root);
    }
  }
  SJOS_RETURN_IF_ERROR(CheckAgainstMaterialized(engine.get(), queries,
                                                expected_rows, "at start"));
  layers.queries.resize(nq);
  std::unique_ptr<sjos::PositionalHistogramEstimator> estimator;
  if (options.trace) {
    estimator = BuildEstimator(engine->db(), &layers.estimator_build_ms);
  }
  {
    const std::vector<NodeId> order = engine->db().MergedOrder();
    Result<sjos::Document> merged = engine->db().MaterializeMerged();
    if (!merged.ok()) return merged.status();
    for (size_t q = 0; q < nq; ++q) {
      layers.queries[q].id = queries[q].id;
      const Digest naive = NaiveDigest(merged.value(), queries[q].pattern);
      SJOS_RETURN_IF_ERROR(SurveyOptimizers(engine.get(), queries[q], naive,
                                            estimator.get(), &layers,
                                            &layers.queries[q], &order));
    }
  }

  // The loop: whole rounds.
  const sjos::PlanCacheCounters before = engine->plan_cache().Counters();
  std::vector<double> reads_all, write_ms, flush_ms, round_ms;
  double invalidated = 0.0, deltas = 0.0;
  auto apply = [&](const char* what, sjos::Mutation m,
                   double* latency) -> Result<sjos::MutationResult> {
    ScopedOperation op(what);
    const Clock::time_point t0 = Clock::now();
    Result<sjos::MutationResult> r = [&] {
      ScopedSpan span("service", "Engine::Apply");
      return engine->Apply(std::move(m));
    }();
    *latency = MsSince(t0);
    ++report->attempted;
    return r;
  };
  auto read = [&](size_t q, double* latency) -> Status {
    Result<sjos::QueryResult> r = Status::Internal("unset");
    {
      ScopedOperation op("mixed.read");
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span("service", "Engine::Query");
      r = engine->Query(queries[q].pattern);
      *latency = MsSince(t0);
    }
    ++report->attempted;
    if (!r.ok()) return r.status();
    QueryDetail& d = layers.queries[q];
    d.latency_ms.push_back(*latency);
    d.eval_ms.push_back(r.value().stats.wall_ms);
    d.max_q_error = r.value().stats.max_q_error;
    d.peak_live_bytes = r.value().stats.peak_live_bytes;
    d.rows = r.value().tuples.size();
    reads_all.push_back(*latency);
    ScopedSpan span("oracle", "CheckRead");
    if (r.value().tuples.size() != expected_rows[q]) {
      return Status::Internal(queries[q].id + " returned " +
                              std::to_string(r.value().tuples.size()) +
                              " rows; the conserved count is " +
                              std::to_string(expected_rows[q]));
    }
    return CheckTupleSoundness(engine->db().View(), queries[q].pattern,
                               r.value().tuples);
  };

  const Clock::time_point loop_start = Clock::now();
  while (round_ms.empty() || MsSince(loop_start) < options.seconds * 1000.0) {
    double round = 0.0, latency = 0.0;
    // Candidates whose flushed (base) fragment was deleted this round.
    // An insert under such a manager can be given the deleted base node's
    // key, which then cannot be deleted (see CHANGES.md); the loop keeps
    // those inserts out until the next flush.
    std::vector<bool> base_deleted(kCandidates, false);
    for (size_t i = 0; i < kPairs; ++i) {
      // Insert under a seeded candidate.
      std::vector<size_t> open;
      for (size_t c = 0; c < kCandidates; ++c) {
        if (!base_deleted[c]) open.push_back(c);
      }
      const size_t k = open[rng() % open.size()];
      const NodeId parent =
          OriginalManagers(engine->db())[candidates[k].ordinal];
      Result<sjos::MutationResult> ins = apply(
          "mixed.insert",
          sjos::InsertSubtree{parent, 0, kFragmentXml},
          &latency);
      if (!ins.ok()) return ins.status();
      round += latency;
      write_ms.push_back(latency);
      invalidated += static_cast<double>(ins.value().cache_invalidated);
      deltas += static_cast<double>(ins.value().histogram_deltas);
      for (size_t q = 0; q < nq; ++q) {
        expected_rows[q] += candidates[k].contribution[q];
      }

      SJOS_RETURN_IF_ERROR(read(i % nq, &latency));
      round += latency;

      // Delete a seeded live fragment.
      const std::vector<NodeId> roots = FragmentRoots(engine->db());
      const NodeId victim = roots[rng() % roots.size()];
      const size_t ordinal = OrdinalOf(OriginalManagers(engine->db()),
                                       ParentKey(engine->db(), victim));
      const auto owner = std::find_if(
          candidates.begin(), candidates.end(),
          [&](const Candidate& c) { return c.ordinal == ordinal; });
      if (owner == candidates.end()) {
        return Status::Internal("a fragment sits under a manager the loop "
                                "never inserted under");
      }
      if (engine->db().doc().IsBaseKey(victim)) {
        base_deleted[static_cast<size_t>(owner - candidates.begin())] = true;
      }
      Result<sjos::MutationResult> del =
          apply("mixed.delete", sjos::DeleteSubtree{victim}, &latency);
      if (!del.ok()) return del.status();
      round += latency;
      write_ms.push_back(latency);
      invalidated += static_cast<double>(del.value().cache_invalidated);
      deltas += static_cast<double>(del.value().histogram_deltas);
      for (size_t q = 0; q < nq; ++q) {
        expected_rows[q] -= owner->contribution[q];
      }

      SJOS_RETURN_IF_ERROR(read((i + 2) % nq, &latency));
      round += latency;
    }
    for (size_t i = 0; i < kLookups; ++i) {
      Result<sjos::QueryResult> r = Status::Internal("unset");
      {
        ScopedOperation op("mixed.lookup");
        const Clock::time_point t0 = Clock::now();
        ScopedSpan span("service", "Engine::Query");
        r = engine->Query(lookup.value());
        latency = MsSince(t0);
      }
      ++report->attempted;
      round += latency;
      if (!r.ok()) {
        ++report->failed;
        continue;
      }
      const size_t live = FragmentRoots(engine->db()).size();
      if (r.value().tuples.size() != live) {
        return Status::Internal("bmfrag lookup returned " +
                                std::to_string(r.value().tuples.size()) +
                                " rows for " + std::to_string(live) +
                                " live fragments");
      }
      SJOS_RETURN_IF_ERROR(CheckTupleSoundness(
          engine->db().View(), lookup.value(), r.value().tuples));
    }
    Result<sjos::MutationResult> flushed =
        apply("mixed.flush", sjos::FlushDifferential{}, &latency);
    if (!flushed.ok()) return flushed.status();
    round += latency;
    flush_ms.push_back(latency);
    round_ms.push_back(round);
    SJOS_RETURN_IF_ERROR(CheckAgainstMaterialized(
        engine.get(), queries, expected_rows,
        "after flush " + std::to_string(round_ms.size())));
  }
  const sjos::PlanCacheCounters after = engine->plan_cache().Counters();

  std::vector<double> medians;
  for (const QueryDetail& d : layers.queries) {
    medians.push_back(Median(d.latency_ms));
  }
  e2e.read_geomean_ms = Geomean(medians);
  e2e.read_p95_ms = Percentile(reads_all, 95.0);
  e2e.ops_per_s = static_cast<double>(report->attempted / round_ms.size()) /
                  (Median(round_ms) / 1000.0);
  std::fprintf(stderr,
               "mixed: %zu rounds, round %.1f ms, read geomean %.2f ms, p95 "
               "%.2f ms (%zu samples above), write p50 %.3f ms, flush p50 "
               "%.2f ms, %llu of %llu operations failed\n",
               round_ms.size(), Median(round_ms), e2e.read_geomean_ms,
               e2e.read_p95_ms, SamplesAbove(reads_all, 95.0), Median(write_ms),
               Median(flush_ms), report->failed, report->attempted);

  if (options.trace) {
    layers.write_ms = Median(write_ms);
    layers.flush_ms = Median(flush_ms);
    layers.invalidated_per_write =
        invalidated / static_cast<double>(write_ms.size());
    layers.histogram_deltas_per_write =
        deltas / static_cast<double>(write_ms.size());
    // The last operation was a flush: the wire probe's oracle is
    // NaiveMatch over the merged document, in rank space.
    ProbeSet probe{engine.get(), queries, {}, engine->db().MergedOrder()};
    Result<sjos::Document> merged = engine->db().MaterializeMerged();
    if (!merged.ok()) return merged.status();
    for (const BenchQuery& q : queries) {
      probe.expected.push_back(NaiveDigest(merged.value(), q.pattern));
    }
    SJOS_RETURN_IF_ERROR(
        FillTracedLayers({probe}, before, after, e2e, false, &layers));
  }
  FinishReport(options, e2e, layers, report);
  return Status::OK();
}

}  // namespace perfbench
