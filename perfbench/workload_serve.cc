// serve: the four Pers queries on a 20K-node Pers document, over loopback
// to an in-process net::QueryServer through net::Client, warm plan cache,
// no deadlines or failpoints. Two phases: an open loop at a fixed rate
// below saturation gives latency (timed from each request's scheduled
// send to its decoded result); a closed loop of lock-step rounds gives
// throughput. Most of a request's time here is outside the engine:
// canonicalizing, encoding, framing and client decode.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "harness.h"
#include "net/frame.h"
#include "net/server.h"
#include "trace_spans.h"

namespace perfbench {

using sjos::BenchQuery;
using sjos::Engine;
using sjos::Result;
using sjos::Status;
namespace net = sjos::net;

namespace {

constexpr uint64_t kPersNodes = 20000;
/// Client connections (and client threads): four, or nproc if fewer.
size_t ClientCount() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}
/// Open-loop arrival rate, about a third of the closed-loop saturation
/// measured with four connections (~15 queries/s on 4 cores), so that
/// queueing magnifies the machine's own variation little. At 45 s it
/// yields ~200 requests: at least ten beyond p95.
constexpr double kOpenRate = 5.5;
/// Share of --seconds spent in the open-loop phase.
constexpr double kOpenShare = 0.85;

/// Thread-safe sink for per-query samples and the first failure.
struct Samples {
  std::mutex mu;
  std::vector<std::vector<double>> latency_ms;  // by query index
  std::vector<std::vector<double>> eval_ms;
  std::vector<WireOutcome> last;                // by query index
  std::vector<double> send_lag_ms;
  Status status;

  void Record(size_t q, double latency, const WireOutcome& o, double lag) {
    std::lock_guard<std::mutex> lock(mu);
    if (!o.status.ok()) {
      if (status.ok()) status = o.status;
      return;
    }
    latency_ms[q].push_back(latency);
    eval_ms[q].push_back(o.eval_ms);
    last[q] = o;
    send_lag_ms.push_back(lag);
  }
};

}  // namespace

Status RunServe(const Options& options, RunReport* report) {
  LayerFigures layers;
  EndToEnd e2e;

  OpenedDataset ds =
      OpenDataset("Pers", kPersNodes, DeriveSeed(options.seed, "serve.Pers"));
  layers.generate_ms = ds.generate_ms;
  layers.open_ms = ds.open_ms;
  std::unique_ptr<Engine> engine = MakeEngine(std::move(ds.db));
  std::unique_ptr<sjos::PositionalHistogramEstimator> estimator;
  if (options.trace) {
    estimator = BuildEstimator(engine->db(), &layers.estimator_build_ms);
  }
  const std::vector<BenchQuery> queries = QueriesOf("Pers");
  const size_t nq = queries.size();

  net::ServerOptions server_options;
  server_options.max_frame_bytes = net::kFrameAbsoluteMaxPayload;
  net::QueryServer server(engine.get(), server_options);
  SJOS_RETURN_IF_ERROR(server.Start());
  std::vector<net::Client> clients;
  for (size_t c = 0; c < ClientCount(); ++c) {
    Result<net::Client> client =
        net::Client::Connect("127.0.0.1", server.port());
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }
  // Warm-up: each query once, spread over the connections (fills the
  // plan cache and starts every connection).
  std::vector<Digest> expected(nq);
  for (size_t q = 0; q < nq; ++q) {
    net::Client& client = clients[q % clients.size()];
    SJOS_RETURN_IF_ERROR(
        SendQuery(&client, "warm-" + std::to_string(q), queries[q].pattern_text));
    Result<std::string> raw = client.Receive();
    if (!raw.ok()) return raw.status();
  }
  e2e.setup_s = MsSince(options.process_start) / 1000.0;

  // Oracles, outside the set-up time.
  layers.queries.resize(nq);
  for (size_t q = 0; q < nq; ++q) {
    layers.queries[q].id = queries[q].id;
    expected[q] = NaiveDigest(engine->db().doc(), queries[q].pattern);
    SJOS_RETURN_IF_ERROR(SurveyOptimizers(engine.get(), queries[q], expected[q],
                                          estimator.get(), &layers,
                                          &layers.queries[q]));
  }
  const sjos::PlanCacheCounters before = engine->plan_cache().Counters();

  // Open loop: arrivals at kOpenRate, a whole number of rounds of the four
  // queries, served by clients.size() connections that each take the next due
  // arrival.
  Samples open;
  open.latency_ms.resize(nq);
  open.eval_ms.resize(nq);
  open.last.resize(nq);
  const double open_s = options.seconds * kOpenShare;
  const uint64_t rounds =
      std::max<uint64_t>(1, static_cast<uint64_t>(open_s * kOpenRate) / nq);
  const uint64_t arrivals = rounds * nq;
  std::atomic<uint64_t> next{0};
  const Clock::time_point open_start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients.size(); ++c) {
      workers.emplace_back([&, c] {
        for (;;) {
          const uint64_t i = next.fetch_add(1);
          if (i >= arrivals) break;
          const Clock::time_point due =
              open_start + std::chrono::microseconds(static_cast<int64_t>(
                               static_cast<double>(i) * 1e6 / kOpenRate));
          std::this_thread::sleep_until(due);
          const double lag = MsSince(due);
          const size_t q = i % nq;
          ScopedOperation op("serve.open." + queries[q].id);
          const WireOutcome o =
              RunWireQuery(&clients[c], "open-" + std::to_string(i), queries[q],
                           *engine, expected[q]);
          open.Record(q, MsBetween(due, o.done), o, lag);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  SJOS_RETURN_IF_ERROR(open.status);
  report->attempted += arrivals;

  // Closed loop: lock-step rounds; in each, every client runs the four
  // queries once (in a rotated order) and waits for each reply.
  Samples closed;
  closed.latency_ms.resize(nq);
  closed.eval_ms.resize(nq);
  closed.last.resize(nq);
  std::vector<double> round_ms;
  uint64_t closed_queries = 0;
  const double closed_s = options.seconds - open_s;
  const Clock::time_point closed_start = Clock::now();
  while (round_ms.empty() || MsSince(closed_start) < closed_s * 1000.0) {
    const size_t round = round_ms.size();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients.size(); ++c) {
      workers.emplace_back([&, c] {
        for (size_t k = 0; k < nq; ++k) {
          const size_t q = (c + k) % nq;
          ScopedOperation op("serve.closed." + queries[q].id);
          const Clock::time_point start = Clock::now();
          const WireOutcome o = RunWireQuery(
              &clients[c],
              "closed-" + std::to_string(round) + "-" + std::to_string(c) +
                  "-" + std::to_string(k),
              queries[q], *engine, expected[q]);
          closed.Record(q, MsBetween(start, o.done), o, 0.0);
        }
      });
    }
    for (std::thread& t : workers) t.join();
    SJOS_RETURN_IF_ERROR(closed.status);
    round_ms.push_back(MsSince(t0));
    closed_queries += clients.size() * nq;
  }
  report->attempted += closed_queries;
  const sjos::PlanCacheCounters after = engine->plan_cache().Counters();

  std::vector<double> medians, all;
  for (size_t q = 0; q < nq; ++q) {
    medians.push_back(Median(open.latency_ms[q]));
    all.insert(all.end(), open.latency_ms[q].begin(), open.latency_ms[q].end());
  }
  e2e.read_geomean_ms = Geomean(medians);
  e2e.read_p95_ms = Percentile(all, 95.0);
  e2e.ops_per_s =
      static_cast<double>(clients.size() * nq) / (Median(round_ms) / 1000.0);
  std::fprintf(stderr,
               "serve: open loop %zu requests at %.1f/s, geomean %.1f ms, p50 "
               "%.1f ms, p95 %.1f ms (%zu samples above), send lag p50 %.2f "
               "max %.2f ms; closed loop %zu rounds, %.2f queries/s\n",
               all.size(), kOpenRate, e2e.read_geomean_ms, Median(all),
               e2e.read_p95_ms, SamplesAbove(all, 95.0),
               Median(open.send_lag_ms), Percentile(open.send_lag_ms, 100.0),
               round_ms.size(), e2e.ops_per_s);

  for (net::Client& c : clients) c.Close();
  server.Stop();

  if (options.trace) {
    for (size_t q = 0; q < nq; ++q) {
      QueryDetail& d = layers.queries[q];
      d.latency_ms = open.latency_ms[q];
      d.eval_ms = open.eval_ms[q];
      d.max_q_error = open.last[q].max_q_error;
      d.peak_live_bytes = open.last[q].peak_live_bytes;
      d.rows = open.last[q].rows;
    }
    SJOS_RETURN_IF_ERROR(FillTracedLayers({{engine.get(), queries, expected, {}}},
                                          before, after, e2e, true, &layers));
  }
  FinishReport(options, e2e, layers, report);
  return Status::OK();
}

}  // namespace perfbench
