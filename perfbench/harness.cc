#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "estimate/composite.h"
#include "estimate/positional_histogram.h"
#include "exec/naive_matcher.h"
#include "net/client.h"
#include "net/json.h"
#include "net/frame.h"
#include "net/server.h"
#include "plan/plan_printer.h"
#include "trace_spans.h"
#include "xml/generators/dblp_gen.h"
#include "xml/generators/mbench_gen.h"
#include "xml/generators/pers_gen.h"
#include "xml/parser.h"

namespace perfbench {

using sjos::Engine;
using sjos::NodeId;
using sjos::Pattern;
using sjos::Result;
using sjos::Status;

const char kFragmentXml[] =
    "<bmfrag><manager><employee><name>x</name></employee></manager></bmfrag>";

namespace {

constexpr const char* kLayers[] = {"xml",  "storage", "estimate", "core",
                                   "plan", "exec",    "service",  "net"};

double SumOf(const std::vector<QueryDetail>& queries,
             double QueryDetail::*field) {
  double sum = 0.0;
  for (const QueryDetail& q : queries) sum += q.*field;
  return sum;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, const std::string& salt) {
  uint64_t h = 1469598103934665603ull ^ (seed * 0x9e3779b97f4a7c15ull);
  for (char c : salt) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

OpenedDataset OpenDataset(const std::string& dataset, uint64_t nodes,
                          uint64_t seed) {
  Result<sjos::Document> doc = Status::InvalidArgument("unknown data set");
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("xml", "Generate" + dataset);
    if (dataset == "Mbench") {
      sjos::MbenchGenConfig config;
      if (nodes > 0) config.target_nodes = nodes;
      config.seed = seed;
      doc = sjos::GenerateMbench(config);
    } else if (dataset == "DBLP") {
      sjos::DblpGenConfig config;
      if (nodes > 0) config.target_nodes = nodes;
      config.seed = seed;
      doc = sjos::GenerateDblp(config);
    } else if (dataset == "Pers") {
      sjos::PersGenConfig config;
      if (nodes > 0) config.target_nodes = nodes;
      config.seed = seed;
      doc = sjos::GeneratePers(config);
    }
  }
  SJOS_CHECK(doc.ok(), doc.status().ToString().c_str());
  const Clock::time_point t1 = Clock::now();
  OpenedDataset out;
  {
    ScopedSpan span("storage", "Database::Open");
    out.db = sjos::Database::Open(std::move(doc).value(), dataset);
  }
  out.generate_ms = MsBetween(t0, t1);
  out.open_ms = MsSince(t1);
  return out;
}

std::unique_ptr<Engine> MakeEngine(sjos::Database db) {
  ScopedSpan span("service", "Engine::OpenDatabase");
  auto engine = std::make_unique<Engine>();
  const Status st = engine->OpenDatabase(std::move(db));
  SJOS_CHECK(st.ok(), st.ToString().c_str());
  return engine;
}

std::unique_ptr<sjos::PositionalHistogramEstimator> BuildEstimator(
    const sjos::Database& db, double* build_ms) {
  ScopedSpan span("estimate", "PositionalHistogramEstimator::Build");
  const Clock::time_point t0 = Clock::now();
  auto estimator = std::make_unique<sjos::PositionalHistogramEstimator>(
      sjos::PositionalHistogramEstimator::Build(db.doc(), db.index(),
                                                db.stats()));
  *build_ms += MsSince(t0);
  return estimator;
}

std::vector<sjos::BenchQuery> QueriesOf(const std::string& dataset) {
  std::vector<sjos::BenchQuery> out;
  for (const sjos::BenchQuery& q : sjos::PaperWorkload()) {
    if (q.dataset == dataset) out.push_back(q);
  }
  return out;
}

Digest NaiveDigest(const sjos::Document& doc, const Pattern& pattern) {
  ScopedSpan span("oracle", "NaiveMatch");
  Result<std::vector<std::vector<NodeId>>> rows =
      sjos::NaiveMatch(doc, pattern);
  SJOS_CHECK(rows.ok(), rows.status().ToString().c_str());
  return DigestNaive(rows.value());
}

Status CheckResult(const Engine& engine, const Pattern& pattern,
                   const sjos::TupleSet& tuples, const Digest& expected,
                   const std::string& what,
                   const std::vector<NodeId>* rank_order) {
  ScopedSpan span("oracle", "CheckResult");
  SJOS_RETURN_IF_ERROR(
      CheckTupleSoundness(engine.db().View(), pattern, tuples));
  Result<Digest> digest = DigestTuples(tuples, rank_order);
  if (!digest.ok()) return digest.status();
  return CheckDigest(what, expected, digest.value());
}

Status SurveyOptimizers(Engine* engine, const sjos::BenchQuery& query,
                        const Digest& expected,
                        const sjos::CardinalityEstimator* estimator,
                        LayerFigures* layers, QueryDetail* detail,
                        const std::vector<NodeId>* rank_order) {
  const bool traced = estimator != nullptr;
  std::optional<sjos::PatternEstimates> estimates;
  if (traced) {
    ScopedSpan span("estimate", "PatternEstimates::Make");
    Result<sjos::PatternEstimates> made = sjos::PatternEstimates::Make(
        query.pattern, engine->db().doc(), *estimator);
    if (!made.ok()) return made.status();
    estimates.emplace(std::move(made).value());
  }
  const sjos::CostModel cost_model;
  std::map<std::string, double> eval_ms;
  for (sjos::OptimizerKind kind : sjos::kAllOptimizerKinds) {
    const std::string algo = sjos::OptimizerKindName(kind);
    sjos::QueryOptions options;
    options.optimizer = kind;
    options.use_plan_cache = false;
    std::vector<double> evals;
    for (int rep = 0; rep < (traced ? 3 : 1); ++rep) {
      Result<sjos::QueryResult> r = [&] {
        ScopedSpan span("service", "Engine::Query");
        return engine->Query(query.pattern, options);
      }();
      if (!r.ok()) {
        return Status::Internal(query.id + " under " + algo + ": " +
                                r.status().ToString());
      }
      if (rep == 0) {
        SJOS_RETURN_IF_ERROR(CheckResult(*engine, query.pattern,
                                         r.value().tuples, expected,
                                         query.id + " under " + algo,
                                         rank_order));
      }
      evals.push_back(r.value().stats.wall_ms);
    }
    eval_ms[algo] = Median(evals);
    if (!traced) continue;
    std::vector<double> plan_us;
    uint64_t considered = 0;
    const sjos::OptimizeContext ctx{&query.pattern, &*estimates, &cost_model,
                                    options.OptimizerView()};
    std::unique_ptr<sjos::Optimizer> optimizer =
        sjos::MakeOptimizer(kind, query.pattern.NumEdges());
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      Result<sjos::OptimizeResult> planned = [&] {
        ScopedSpan span("core", "Optimizer::Optimize");
        return optimizer->Optimize(ctx);
      }();
      plan_us.push_back(MsSince(t0) * 1000.0);
      if (!planned.ok()) return planned.status();
      considered = planned.value().stats.plans_considered;
      if (rep == 0) {
        ScopedSpan span("plan", "PlanSignature");
        (void)sjos::PlanSignature(planned.value().plan, query.pattern);
      }
    }
    layers->plan_cold_us[algo] += Median(plan_us);
    layers->plans_considered[algo] += static_cast<double>(considered);
  }
  double best = eval_ms.begin()->second;
  for (const auto& [algo, ms] : eval_ms) best = std::min(best, ms);
  detail->chosen_over_best =
      eval_ms[sjos::OptimizerKindName(sjos::OptimizerKind::kDpp)] /
      std::max(best, 1e-6);
  return Status::OK();
}

std::vector<NodeId> OriginalManagers(const sjos::Database& db) {
  const sjos::TagId manager = db.doc().dict().Find("manager");
  const sjos::TagId frag = db.doc().dict().Find("bmfrag");
  std::vector<NodeId> all =
      sjos::MergedPostings(db.index().Postings(manager), db.View(), manager);
  if (frag == sjos::kInvalidTag) return all;
  std::vector<NodeId> out;
  out.reserve(all.size());
  for (NodeId key : all) {
    if (db.View().TagOf(ParentKey(db, key)) != frag) out.push_back(key);
  }
  return out;
}

std::vector<NodeId> FragmentRoots(const sjos::Database& db) {
  const sjos::TagId frag = db.doc().dict().Find("bmfrag");
  if (frag == sjos::kInvalidTag) return {};
  return sjos::MergedPostings(db.index().Postings(frag), db.View(), frag);
}

NodeId ParentKey(const sjos::Database& db, NodeId key) {
  if (db.doc().IsBaseKey(key)) return db.doc().ParentOf(key);
  const sjos::DifferentialIndex::InsertedNode* node = db.diff()->Find(key);
  return node == nullptr ? sjos::kInvalidNode : node->parent_key;
}

Status SpaceKeys(Engine* engine) {
  if (engine->db().doc().Spaced()) return Status::OK();
  Result<sjos::MutationResult> primed =
      engine->Apply(sjos::InsertSubtree{0, 0, kFragmentXml});
  if (!primed.ok()) return primed.status();
  for (NodeId root : FragmentRoots(engine->db())) {
    Result<sjos::MutationResult> undone =
        engine->Apply(sjos::DeleteSubtree{root});
    if (!undone.ok()) return undone.status();
  }
  return Status::OK();
}

namespace {

/// Cache-hit planning time (median of repeated Engine::Plan), in us.
double WarmPlanUs(Engine* engine, const Pattern& pattern) {
  std::vector<double> us;
  for (int rep = 0; rep < 50; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span("service", "Engine::Plan");
    Result<sjos::PlannedQuery> planned = engine->Plan(pattern);
    us.push_back(MsSince(t0) * 1000.0);
    SJOS_CHECK(planned.ok(), "warm plan failed");
  }
  return Median(us);
}

/// Median TupleSet::Canonical() time of `tuples`, in ms.
double CanonicalizeMs(const sjos::TupleSet& tuples) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span("exec", "TupleSet::Canonical");
    std::vector<std::vector<NodeId>> rows = tuples.Canonical();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

/// Median audit-log total_ms per query fingerprint, summed over the
/// fingerprints seen (successful queries only).
void FillServerTotals(const Engine& engine, LayerFigures* layers) {
  std::map<std::string, std::vector<double>> by_fingerprint;
  const std::string dpp = sjos::OptimizerKindName(sjos::OptimizerKind::kDpp);
  for (const sjos::QueryLogRecord& rec : engine.query_log().Recent(1024)) {
    if (rec.ok && rec.optimizer == dpp) {
      by_fingerprint[rec.fingerprint].push_back(rec.total_ms);
    }
  }
  for (auto& [fingerprint, totals] : by_fingerprint) {
    layers->server_total_ms += Median(totals);
  }
}

/// Inserts fragments into `engine`'s Pers document, reads with the overlay
/// populated and after a flush, then deletes them again. Fills the
/// xml/storage/service write-path figures.
Status WriteProbe(Engine* engine, const Pattern& read, bool fill_write_figures,
                  LayerFigures* layers) {
  std::vector<double> parse_us;
  for (int rep = 0; rep < 200; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span("xml", "ParseXml");
    Result<sjos::Document> fragment = sjos::ParseXml(kFragmentXml);
    parse_us.push_back(MsSince(t0) * 1000.0);
    if (!fragment.ok()) return fragment.status();
  }
  layers->fragment_parse_us = Median(parse_us);

  SJOS_RETURN_IF_ERROR(SpaceKeys(engine));
  std::vector<double> write_ms, flush_ms, overlay_ms, base_ms;
  double invalidated = 0.0, deltas = 0.0;
  auto apply = [&](sjos::Mutation m, std::vector<double>* sink) -> Status {
    ScopedOperation op("probe.write");
    const Clock::time_point t0 = Clock::now();
    Result<sjos::MutationResult> r = [&] {
      ScopedSpan span("service", "Engine::Apply");
      return engine->Apply(std::move(m));
    }();
    sink->push_back(MsSince(t0));
    if (!r.ok()) return r.status();
    if (sink == &write_ms) {
      invalidated += static_cast<double>(r.value().cache_invalidated);
      deltas += static_cast<double>(r.value().histogram_deltas);
    }
    return Status::OK();
  };
  auto timed_read = [&](std::vector<double>* sink) -> Result<uint64_t> {
    uint64_t rows = 0;
    for (int rep = 0; rep < 2; ++rep) {  // the first read re-plans
      ScopedOperation op("probe.read");
      const Clock::time_point t0 = Clock::now();
      Result<sjos::QueryResult> r = [&] {
        ScopedSpan span("service", "Engine::Query");
        return engine->Query(read);
      }();
      if (rep == 1) sink->push_back(MsSince(t0));
      if (!r.ok()) return r.status();
      SJOS_RETURN_IF_ERROR(
          CheckTupleSoundness(engine->db().View(), read, r.value().tuples));
      rows = r.value().tuples.size();
    }
    return rows;
  };
  constexpr int kInserts = 4;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < kInserts; ++i) {
      const std::vector<NodeId> managers = OriginalManagers(engine->db());
      const NodeId parent =
          managers[(managers.size() * (i + 1)) / (kInserts + 1)];
      SJOS_RETURN_IF_ERROR(apply(
          sjos::InsertSubtree{parent, 0, kFragmentXml},
          &write_ms));
    }
    Result<uint64_t> overlay_rows = timed_read(&overlay_ms);
    if (!overlay_rows.ok()) return overlay_rows.status();
    SJOS_RETURN_IF_ERROR(apply(sjos::FlushDifferential{}, &flush_ms));
    Result<uint64_t> base_rows = timed_read(&base_ms);
    if (!base_rows.ok()) return base_rows.status();
    if (overlay_rows.value() != base_rows.value()) {
      return Status::Internal("write probe: a flush changed the answer from " +
                              std::to_string(overlay_rows.value()) + " to " +
                              std::to_string(base_rows.value()) + " rows");
    }
    for (NodeId root : FragmentRoots(engine->db())) {
      SJOS_RETURN_IF_ERROR(apply(sjos::DeleteSubtree{root}, &write_ms));
    }
    SJOS_RETURN_IF_ERROR(apply(sjos::FlushDifferential{}, &flush_ms));
  }
  layers->overlay_read_ms = Median(overlay_ms);
  layers->base_read_ms = Median(base_ms);
  if (fill_write_figures) {
    layers->write_ms = Median(write_ms);
    layers->flush_ms = Median(flush_ms);
    layers->invalidated_per_write =
        invalidated / static_cast<double>(write_ms.size());
    layers->histogram_deltas_per_write =
        deltas / static_cast<double>(write_ms.size());
  }
  return Status::OK();
}

/// Unpacks a poll response into its schema and row-major rows.
Status DecodeWireRows(const sjos::net::JsonValue& response,
                      std::vector<sjos::PatternNodeId>* columns,
                      std::vector<NodeId>* data) {
  const sjos::net::JsonValue* ok = response.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    const sjos::net::JsonValue* message = response.Find("message");
    return Status::Internal(
        "wire error: " +
        (message != nullptr && message->is_string() ? message->string_value()
                                                    : std::string("?")));
  }
  const sjos::net::JsonValue* result = response.Find("result");
  if (result == nullptr || !result->is_object()) {
    return Status::Internal("wire response without a result");
  }
  const sjos::net::JsonValue* slots = result->Find("slots");
  const sjos::net::JsonValue* rows = result->Find("rows");
  const sjos::net::JsonValue* count = result->Find("row_count");
  if (slots == nullptr || !slots->is_array() || rows == nullptr ||
      !rows->is_array() || count == nullptr || !count->is_number()) {
    return Status::Internal("malformed wire result");
  }
  columns->clear();
  for (const sjos::net::JsonValue& s : slots->array()) {
    columns->push_back(static_cast<sjos::PatternNodeId>(s.number_value()));
  }
  data->clear();
  data->reserve(rows->array().size() * columns->size());
  for (const sjos::net::JsonValue& row : rows->array()) {
    if (!row.is_array() || row.array().size() != columns->size()) {
      return Status::Internal("wire row of the wrong arity");
    }
    for (const sjos::net::JsonValue& v : row.array()) {
      data->push_back(static_cast<NodeId>(v.number_value()));
    }
  }
  if (static_cast<size_t>(count->number_value()) != rows->array().size()) {
    return Status::Internal("wire row_count disagrees with its rows");
  }
  return Status::OK();
}

double NumberAt(const sjos::net::JsonValue& v, const char* object,
                const char* key) {
  const sjos::net::JsonValue* o = v.Find(object);
  if (o == nullptr || !o->is_object()) return 0.0;
  const sjos::net::JsonValue* f = o->Find(key);
  return f != nullptr && f->is_number() ? f->number_value() : 0.0;
}

}  // namespace

Status SendQuery(sjos::net::Client* client, const std::string& id,
                 const std::string& query) {
  std::string submit = "{\"verb\":\"submit\",\"id\":";
  sjos::net::AppendJsonString(id, &submit);
  submit += ",\"query\":";
  sjos::net::AppendJsonString(query, &submit);
  submit += "}";
  Result<sjos::net::JsonValue> ack = [&] {
    ScopedSpan span("net", "Client::Call(submit)");
    return client->Call(submit);
  }();
  if (!ack.ok()) return ack.status();
  const sjos::net::JsonValue* ok = ack.value().Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    return Status::Internal("submit of " + id + " refused");
  }
  std::string poll = "{\"verb\":\"poll\",\"id\":";
  sjos::net::AppendJsonString(id, &poll);
  poll += ",\"wait_ms\":10000}";
  ScopedSpan span("net", "Client::Send(poll)");
  return client->Send(poll);
}

WireOutcome RunWireQuery(sjos::net::Client* client, const std::string& id,
                         const sjos::BenchQuery& query, const Engine& engine,
                         const Digest& expected,
                         const std::vector<NodeId>* rank_order) {
  WireOutcome out;
  out.status = SendQuery(client, id, query.pattern_text);
  if (!out.status.ok()) return out;
  Result<std::string> raw = [&] {
    ScopedSpan span("net", "Client::Receive");
    return client->Receive();
  }();
  if (!raw.ok()) {
    out.status = raw.status();
    return out;
  }
  const Clock::time_point received = Clock::now();
  Result<sjos::net::JsonValue> parsed = [&] {
    ScopedSpan span("net", "ParseJson");
    return sjos::net::ParseJson(raw.value());
  }();
  out.done = Clock::now();
  out.frame_bytes = static_cast<double>(raw.value().size());
  out.decode_ms = MsBetween(received, out.done);
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  const sjos::net::JsonValue* result = parsed.value().Find("result");
  if (result != nullptr && result->is_object()) {
    out.eval_ms = NumberAt(*result, "stats", "wall_ms");
    out.max_q_error = NumberAt(*result, "stats", "max_q_error");
    out.peak_live_bytes =
        static_cast<uint64_t>(NumberAt(*result, "stats", "peak_live_bytes"));
  }
  ScopedSpan span("oracle", "CheckWireResult");
  std::vector<sjos::PatternNodeId> columns;
  std::vector<NodeId> data;
  out.status = DecodeWireRows(parsed.value(), &columns, &data);
  if (!out.status.ok()) return out;
  if (columns.empty()) {
    out.status = Status::Internal(query.id + " over the wire: no columns");
    return out;
  }
  out.rows = data.size() / columns.size();
  out.status = CheckSoundness(engine.db().View(), query.pattern, columns,
                              data.data(), out.rows);
  if (!out.status.ok()) return out;
  Result<Digest> digest = DigestRows(columns, data.data(), out.rows, rank_order);
  out.status = digest.ok() ? CheckDigest(query.id + " over the wire", expected,
                                         digest.value())
                           : digest.status();
  return out;
}

namespace {

/// Serves `set`'s engine over loopback and sends each query a few times
/// through RunWireQuery, filling the net figures of the matching
/// QueryDetail entries.
Status WireProbe(const ProbeSet& set, LayerFigures* layers) {
  sjos::net::ServerOptions server_options;
  server_options.max_frame_bytes = sjos::net::kFrameAbsoluteMaxPayload;
  sjos::net::QueryServer server(set.engine, server_options);
  SJOS_RETURN_IF_ERROR(server.Start());
  Result<sjos::net::Client> connected =
      sjos::net::Client::Connect("127.0.0.1", server.port());
  if (!connected.ok()) return connected.status();
  sjos::net::Client client = std::move(connected).value();
  const std::vector<NodeId>* rank_order =
      set.rank_order.empty() ? nullptr : &set.rank_order;
  for (size_t i = 0; i < set.queries.size(); ++i) {
    const sjos::BenchQuery& q = set.queries[i];
    QueryDetail* detail = nullptr;
    for (QueryDetail& d : layers->queries) {
      if (d.id == q.id) detail = &d;
    }
    if (detail == nullptr) return Status::Internal("no detail for " + q.id);
    std::vector<double> bytes, decode, unattributed;
    for (int rep = 0; rep < 3; ++rep) {
      ScopedOperation op("probe.wire");
      const std::string id = "probe-" + q.id + "-" + std::to_string(rep);
      const Clock::time_point t0 = Clock::now();
      const WireOutcome o = RunWireQuery(&client, id, q, *set.engine,
                                         set.expected[i], rank_order);
      SJOS_RETURN_IF_ERROR(o.status);
      bytes.push_back(o.frame_bytes);
      decode.push_back(o.decode_ms);
      double total_ms = -1.0;
      for (const sjos::QueryLogRecord& rec :
           set.engine->query_log().Recent(16)) {
        if (rec.query_id == id) total_ms = rec.total_ms;
      }
      if (total_ms < 0) return Status::Internal("no audit record for " + id);
      unattributed.push_back(MsBetween(t0, o.done) - total_ms);
    }
    detail->result_bytes = Median(bytes);
    detail->client_decode_ms = Median(decode);
    detail->unattributed_ms = Median(unattributed);
  }
  client.Close();
  server.Stop();
  return Status::OK();
}

}  // namespace

Status FillTracedLayers(const std::vector<ProbeSet>& sets,
                        const sjos::PlanCacheCounters& before,
                        const sjos::PlanCacheCounters& after,
                        const EndToEnd& e2e, bool fill_write_figures,
                        LayerFigures* layers) {
  layers->traced_read_geomean_ms = e2e.read_geomean_ms;
  layers->traced_ops_per_s = e2e.ops_per_s;
  const double lookups = static_cast<double>(
      (after.hits - before.hits) + (after.misses - before.misses));
  layers->plan_cache_hit_ratio =
      static_cast<double>(after.hits - before.hits) / std::max(lookups, 1.0);
  for (const ProbeSet& set : sets) {
    for (const sjos::BenchQuery& q : set.queries) {
      QueryDetail* detail = nullptr;
      for (QueryDetail& d : layers->queries) {
        if (d.id == q.id) detail = &d;
      }
      if (detail == nullptr) return Status::Internal("no detail for " + q.id);
      Result<sjos::QueryResult> r = set.engine->Query(q.pattern);
      if (!r.ok()) return r.status();
      detail->canonicalize_ms = CanonicalizeMs(r.value().tuples);
      detail->plan_warm_us = WarmPlanUs(set.engine, q.pattern);
    }
    FillServerTotals(*set.engine, layers);
    SJOS_RETURN_IF_ERROR(WireProbe(set, layers));
  }
  if (sets.empty()) return Status::OK();
  Result<sjos::BenchQuery> read = sjos::FindQuery("Q.Pers.3.d");
  if (!read.ok()) return read.status();
  return WriteProbe(sets.back().engine, read.value().pattern,
                    fill_write_figures, layers);
}

void FinishReport(const Options& options, const EndToEnd& e2e,
                  const LayerFigures& layers, RunReport* report) {
  std::vector<SpanRecorder::Span> spans;
  if (!options.trace) {
    // The latency and throughput figures spread beyond the 0.25 bound
    // between ten-run sets on the reference machine (README.md), so only
    // these two are gated; the others go to the detail file.
    report->Add("setup_s", e2e.setup_s, "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const std::vector<QueryDetail>& q = layers.queries;
    report->Add("xml.generate_ms", layers.generate_ms, "ms");
    report->Add("xml.fragment_parse_us", layers.fragment_parse_us, "us");
    report->Add("storage.open_ms", layers.open_ms, "ms");
    report->Add("storage.overlay_read_ms", layers.overlay_read_ms, "ms");
    report->Add("storage.base_read_ms", layers.base_read_ms, "ms");
    report->Add("estimate.build_ms", layers.estimator_build_ms, "ms");
    double max_q_error = 0.0;
    uint64_t peak_bytes = 0;
    std::vector<double> over_best;
    double eval_ms = 0.0;
    for (const QueryDetail& d : q) {
      max_q_error = std::max(max_q_error, d.max_q_error);
      peak_bytes = std::max(peak_bytes, d.peak_live_bytes);
      over_best.push_back(d.chosen_over_best);
      eval_ms += Median(d.eval_ms);
    }
    report->Add("estimate.max_q_error", max_q_error, "ratio");
    for (const auto& [algo, us] : layers.plan_cold_us) {
      report->Add("core.plan_cold_us." + algo, us, "us");
    }
    for (const auto& [algo, n] : layers.plans_considered) {
      report->Add("core.plans_considered." + algo, n, "count");
    }
    report->Add("core.plan_warm_us", SumOf(q, &QueryDetail::plan_warm_us),
                "us");
    report->Add("plan.chosen_over_best", Geomean(over_best), "ratio");
    report->Add("exec.eval_ms", eval_ms, "ms");
    report->Add("exec.peak_live_bytes", static_cast<double>(peak_bytes),
                "bytes");
    report->Add("exec.canonicalize_ms",
                SumOf(q, &QueryDetail::canonicalize_ms), "ms");
    report->Add("service.plan_cache_hit_ratio", layers.plan_cache_hit_ratio,
                "ratio");
    report->Add("service.invalidated_per_write", layers.invalidated_per_write,
                "count");
    report->Add("service.histogram_deltas_per_write",
                layers.histogram_deltas_per_write, "count");
    report->Add("service.server_total_ms", layers.server_total_ms, "ms");
    report->Add("service.write_ms", layers.write_ms, "ms");
    report->Add("service.flush_ms", layers.flush_ms, "ms");
    report->Add("net.result_bytes", SumOf(q, &QueryDetail::result_bytes),
                "bytes");
    report->Add("net.client_decode_ms",
                SumOf(q, &QueryDetail::client_decode_ms), "ms");
    report->Add("net.unattributed_ms", SumOf(q, &QueryDetail::unattributed_ms),
                "ms");
    spans = SpanRecorder::Get().Snapshot();
    const std::map<std::string, double> self =
        SpanRecorder::SelfMsByLayer(spans);
    for (const char* layer : kLayers) {
      auto it = self.find(layer);
      report->Add(std::string("self_ms.") + layer,
                  it == self.end() ? 0.0 : it->second, "ms");
    }
    std::fprintf(stderr, "perfbench: %zu spans traced\n", spans.size());
    report->Add("traced.read_geomean_ms", layers.traced_read_geomean_ms, "ms");
    report->Add("traced.ops_per_s", layers.traced_ops_per_s, "1/s");
  }

  // The detail file: per-query figures behind the sums, for people.
  const std::string dir = ".bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  std::ofstream out(stem + ".json");
  out << "{\"workload\":\"" << options.workload << "\",\"seed\":"
      << options.seed << ",\"result\":" << report->ToJson()
      << ",\"read_geomean_ms\":" << Json(e2e.read_geomean_ms)
      << ",\"read_p95_ms\":" << Json(e2e.read_p95_ms)
      << ",\"ops_per_s\":" << Json(e2e.ops_per_s) << ",\"queries\":[";
  for (size_t i = 0; i < layers.queries.size(); ++i) {
    const QueryDetail& d = layers.queries[i];
    out << (i ? "," : "") << "\n{\"id\":\"" << d.id << "\",\"rows\":" << d.rows
        << ",\"latency_p50_ms\":" << Json(Median(d.latency_ms))
        << ",\"samples\":" << d.latency_ms.size()
        << ",\"eval_ms\":" << Json(Median(d.eval_ms))
        << ",\"max_q_error\":" << Json(d.max_q_error)
        << ",\"peak_live_bytes\":" << d.peak_live_bytes
        << ",\"canonicalize_ms\":" << Json(d.canonicalize_ms)
        << ",\"plan_warm_us\":" << Json(d.plan_warm_us)
        << ",\"chosen_over_best\":" << Json(d.chosen_over_best)
        << ",\"result_bytes\":" << Json(d.result_bytes)
        << ",\"client_decode_ms\":" << Json(d.client_decode_ms)
        << ",\"unattributed_ms\":" << Json(d.unattributed_ms) << "}";
  }
  out << "]}\n";
  if (options.trace &&
      !SpanRecorder::WriteChromeTrace(spans, stem + ".trace.json")) {
    std::fprintf(stderr, "perfbench: could not write %s.trace.json\n",
                 stem.c_str());
  }
}

}  // namespace perfbench
