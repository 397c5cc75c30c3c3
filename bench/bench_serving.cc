// Serving-layer benchmark: QPS and submit-to-complete latency of a
// resident ClusterService under an open-loop multi-client load, across
// a client-count x cache-hit-ratio matrix. Distinct query fingerprints
// come from distinct WHERE literals: "hit" submissions draw from a
// small pool of shapes warmed into the result cache before measurement,
// "miss" submissions each carry a never-seen literal so they must
// execute on the data plane. Latencies are read off the tickets' wall
// stamps (EXPERIMENTS.md "Serving mode" has the methodology). Numbers
// go to BENCH_serving.json.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/str_cat.h"
#include "exec/expression.h"
#include "serve/cluster_service.h"

namespace adaptagg {
namespace {

using bench::BenchJsonWriter;
using bench::FmtInt;
using bench::FmtSeconds;
using bench::TablePrinter;

constexpr int kQueriesPerClient = 16;
constexpr int kWarmShapes = 8;

/// One (clients, hit%) load point of the matrix.
struct LoadPoint {
  int clients;
  int hit_pct;  // share of submissions aimed at the warmed shape pool
};

/// WHERE g > w: the warm pool uses w in [0, kWarmShapes); misses use a
/// per-submission literal far outside it, so every miss is a distinct
/// fingerprint that can never have been cached.
AlgorithmOptions ShapeOptions(int64_t literal) {
  AlgorithmOptions options;
  options.where = Gt(Col(kBenchGroupCol), Lit(literal));
  return options;
}

struct PointOutcome {
  int completed = 0;
  int failed = 0;
  int cache_hits = 0;
  double elapsed_s = 0;
  double qps = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  MetricsSnapshot metrics;
  bool ok = false;
};

double Percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(q * static_cast<double>(
                          sorted.size() - 1));
  return sorted[rank];
}

PointOutcome RunPoint(const LoadPoint& load, PartitionedRelation& rel,
                      const SystemParams& params,
                      const AggregationSpec& spec) {
  PointOutcome out;

  ServiceConfig config;
  config.params = params;
  config.cache_entries = 512;        // nothing evicts during a point
  config.scheduler.max_inflight = 4;
  config.scheduler.queue_capacity = 256;  // open loop: never reject
  auto service = ClusterService::Start(config, &rel);
  if (!service.ok()) {
    std::fprintf(stderr, "start: %s\n",
                 service.status().ToString().c_str());
    return out;
  }

  // Warm the cache: execute each pool shape once, to completion.
  for (int w = 0; w < kWarmShapes; ++w) {
    ServeQuery query;
    query.spec = spec;
    query.options = ShapeOptions(w);
    auto ticket = (*service)->Submit(std::move(query));
    if (!ticket.ok() || !(*ticket)->Wait().status.ok()) return out;
  }

  // Open-loop measured phase: every client fires its whole script
  // without pacing, then everyone waits.
  const int total = load.clients * kQueriesPerClient;
  std::vector<QueryTicketPtr> tickets(static_cast<size_t>(total));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(load.clients));
  for (int c = 0; c < load.clients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        ServeQuery query;
        query.spec = spec;
        // Deterministic hit/miss script: the first hit_pct% of each
        // client's positions go to the warm pool, the rest carry a
        // unique literal (groups never reach it, so the predicate
        // selects everything below it — a full execution).
        if (q < load.hit_pct * kQueriesPerClient / 100) {
          query.options = ShapeOptions(q % kWarmShapes);
        } else {
          query.options =
              ShapeOptions(1'000'000 + c * kQueriesPerClient + q);
        }
        auto ticket = (*service)->Submit(std::move(query));
        if (ticket.ok()) {
          tickets[static_cast<size_t>(c * kQueriesPerClient + q)] =
              *ticket;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::vector<double> latencies;
  double first_submit = 0, last_complete = 0;
  for (const QueryTicketPtr& ticket : tickets) {
    if (ticket == nullptr) {
      ++out.failed;
      continue;
    }
    const RunResult& run = ticket->Wait();
    if (!run.status.ok()) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    if (run.from_cache) ++out.cache_hits;
    latencies.push_back(ticket->complete_wall_s() -
                        ticket->submit_wall_s());
    if (first_submit == 0 || ticket->submit_wall_s() < first_submit) {
      first_submit = ticket->submit_wall_s();
    }
    last_complete = std::max(last_complete, ticket->complete_wall_s());
  }
  std::sort(latencies.begin(), latencies.end());
  out.elapsed_s = last_complete - first_submit;
  out.qps = out.elapsed_s > 0 ? out.completed / out.elapsed_s : 0;
  out.p50_s = Percentile(latencies, 0.50);
  out.p95_s = Percentile(latencies, 0.95);
  out.p99_s = Percentile(latencies, 0.99);
  out.metrics = (*service)->Metrics();
  (*service)->Shutdown();
  out.ok = (*service)->resident_threads() == 0 && out.failed == 0;
  return out;
}

}  // namespace
}  // namespace adaptagg

int main(int argc, char** argv) {
  using namespace adaptagg;
  (void)argc;
  bench::SetBenchBinaryName(argv[0]);

  const double scale = bench::BenchScale();
  const int nodes = 4;
  const int64_t tuples = static_cast<int64_t>(40'000 * scale);
  const int64_t groups = 2'000;

  WorkloadSpec workload;
  workload.num_nodes = nodes;
  workload.num_tuples = tuples;
  workload.num_groups = groups;
  auto rel = GenerateRelation(workload);
  if (!rel.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 rel.status().ToString().c_str());
    return 1;
  }
  auto spec = MakeBenchQuery(&rel->schema());
  if (!spec.ok()) return 1;

  SystemParams params;
  params.num_nodes = nodes;
  params.num_tuples = tuples;
  params.max_hash_entries = 1'000;
  params.network = NetworkKind::kHighBandwidth;

  const std::string config_line =
      "nodes=" + std::to_string(nodes) + " tuples=" +
      std::to_string(tuples) + " groups=" + std::to_string(groups) +
      " queries/client=" + std::to_string(kQueriesPerClient) +
      " max_inflight=4";
  bench::PrintHeader(
      "serving",
      "resident multi-query serving: QPS and latency percentiles under "
      "an open-loop client matrix",
      config_line);

  const LoadPoint kMatrix[] = {
      {1, 0}, {4, 0}, {8, 0}, {4, 50}, {4, 90},
  };

  TablePrinter table({"clients", "hit%", "done", "hits", "qps",
                      "p50 s", "p95 s", "p99 s"});
  BenchJsonWriter json("serving", config_line);
  bool all_ok = true;
  for (const LoadPoint& load : kMatrix) {
    PointOutcome out = RunPoint(load, *rel, params, *spec);
    all_ok = all_ok && out.ok;
    table.AddRow({FmtInt(load.clients), FmtInt(load.hit_pct),
                  FmtInt(out.completed), FmtInt(out.cache_hits),
                  FmtSeconds(out.qps), FmtSeconds(out.p50_s),
                  FmtSeconds(out.p95_s), FmtSeconds(out.p99_s)});
    const std::string base =
        StrCat({"c", std::to_string(load.clients), "_hit",
                std::to_string(load.hit_pct)});
    // One throughput point (tuples_per_sec carries QPS) plus one point
    // per latency percentile (wall_time_s carries the latency).
    json.AddPoint(base + "_qps", 0, out.elapsed_s, out.qps);
    json.AddPoint(base + "_p50", 0, out.p50_s, 0);
    json.AddPoint(base + "_p95", 0, out.p95_s, 0);
    json.AddPoint(base + "_p99", 0, out.p99_s, 0);
    json.MergeMetrics(out.metrics);
  }
  table.Print();
  if (!json.Write()) return 1;
  if (!all_ok) {
    std::fprintf(stderr, "serving bench: failures or leaked threads\n");
    return 1;
  }
  return 0;
}
