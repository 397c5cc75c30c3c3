// Served workload: a resident ClusterService answers a dashboard-style
// query mix from a closed loop of one client. Every round first appends
// one page of tuples (bumping the relation version, which invalidates
// the result cache), then the client runs a fixed script in which some
// queries repeat (cache hits after their first run) and others carry a
// fresh HAVING literal (cache misses).

#include <memory>
#include <vector>

#include "core/query.h"
#include "drivers.h"
#include "layers.h"
#include "net/fault.h"
#include "obs/trace_export.h"
#include "serve/cluster_service.h"
#include "storage/page.h"

namespace adaptagg {
namespace e2e {
namespace {

const std::vector<Shape>& DashboardShapes() {
  static const std::vector<Shape> shapes = {
      {"count_sum_by_g", 0, {AggKind::kSum}},
      {"all_aggs_by_g", 0, {AggKind::kSum, AggKind::kMin, AggKind::kMax}},
      {"min_max_by_g_v_lt_25000", 1, {AggKind::kMin, AggKind::kMax}},
      {"count_sum_by_g_v_lt_75000", 3, {AggKind::kSum}},
  };
  return shapes;
}

/// Sessions the scheduler may admit at once: 2 node worker threads on
/// each of the 2 nodes, no more than the host's 4 cores (README.md,
/// "Thread budget"). The one client has one query in flight at a time.
constexpr int kMaxInflight = 2;

/// One position of the client's per-round script. A repeat step reuses
/// a fixed literal for `shape`, so it misses the first time after an
/// append and hits afterwards; other steps are fresh.
struct Step {
  int shape;
  bool repeat;
};

/// Ten steps per round in five equal kinds: two cache hits, and two
/// executions of each shape. The median and the 90th percentile then
/// fall inside one kind's share of the samples, never on the edge
/// between two.
constexpr Step kScript[] = {
    {0, true},  {2, true},  {1, false}, {0, true},  {3, false},
    {2, true},  {0, false}, {1, false}, {2, false}, {3, false},
};
constexpr int kScriptLength = sizeof(kScript) / sizeof(kScript[0]);

/// What a sequence of rounds measured.
struct Timed {
  Samples samples;
  /// Wall time inside Submit of the misses, and submit to complete of
  /// the hits (untraced rounds).
  std::vector<double> miss_submit_s;
  std::vector<double> hit_latency_s;
  /// Modelled seconds of the first round's executed queries.
  double first_round_sim_s = 0;
  /// Traced rounds: the merged snapshot and the first query's trace.
  TracedWork traced;
  std::vector<TraceEvent> first_trace;
};

class ServedRun {
 public:
  ServedRun(const RunArgs& args, RunOutcome* out)
      : args_(args), config_(*args.config), out_(out) {}

  ~ServedRun() { Stop(); }

  /// Loads the relation and starts the service: the set-up a served
  /// workload pays before its first query can be submitted.
  Status Setup() {
    ADAPTAGG_ASSIGN_OR_RETURN(loaded_, LoadRelation(config_, args_.seed));
    ServiceConfig sc;
    sc.params = ParamsFor(config_, loaded_.rel->total_tuples());
    sc.scheduler.max_inflight = kMaxInflight;
    ADAPTAGG_ASSIGN_OR_RETURN(service_,
                              ClusterService::Start(sc, loaded_.rel.get()));
    queries_.clear();
    for (const Shape& shape : DashboardShapes()) {
      // Built untagged: Submit attaches each step's HAVING literal.
      ADAPTAGG_ASSIGN_OR_RETURN(Query q,
                                BuildQuery(&loaded_.rel->schema(), shape, 0));
      queries_.push_back(std::move(q));
    }
    return Status::OK();
  }

  /// Shuts the service down and joins its threads.
  void Stop() {
    if (service_ != nullptr) service_->Shutdown();
    service_.reset();
  }

  /// Stops the service and drops the relation, before the next Setup.
  void Reset() {
    Stop();
    loaded_ = Loaded();
  }

  /// One round: an append, then the client's script.
  void Round(const ObsConfig& obs, Timed* timed) {
    const bool first = timed->samples.queries() == 0;
    Append();
    for (int i = 0; i < kScriptLength; ++i) {
      const Step& step = kScript[i];
      const Shape& shape = DashboardShapes()[static_cast<size_t>(step.shape)];
      // Repeat literals are fixed per shape; fresh ones are unique to
      // (round, step).
      const int64_t tag = step.repeat
                              ? 1 + step.shape
                              : 1'000'000 + round_ * kScriptLength + i;
      const std::string what =
          std::string(shape.label) + " step " + std::to_string(i);
      const QueryClock clock;
      Result<QueryTicketPtr> ticket =
          Submit(static_cast<size_t>(step.shape), tag, obs, nullptr);
      const double submit_s = clock.wall_s();
      if (!ticket.ok()) {
        out_->Record(what, ticket.status(), Status::OK());
        continue;
      }
      const RunResult& r = (*ticket)->Wait();
      timed->samples.Add(clock, loaded_.rel->total_tuples());
      Status check;
      if (r.status.ok()) {
        check = loaded_.oracle->Check(shape, r.results);
        // The first run of a repeat query after an append must see the
        // appended tuples, never the previous version's cached answer.
        if (check.ok() && step.repeat && i < 2 && r.from_cache) {
          check = Status::Internal("cached answer served after an append");
        }
      }
      out_->Record(what, r.status, check);
      if (!obs.metrics) {
        if (r.from_cache) {
          timed->hit_latency_s.push_back(timed->samples.wall_s.back());
        } else {
          timed->miss_submit_s.push_back(submit_s);
        }
      }
      if (r.from_cache) continue;
      if (first) timed->first_round_sim_s += r.sim_time_s;
      if (obs.metrics) {
        ++timed->traced.executed_queries;
        timed->traced.metrics.Merge(r.metrics);
      }
      if (obs.traces && timed->first_trace.empty()) {
        timed->first_trace = r.trace_events;
      }
    }
    ++round_;
  }

  Timed Loop(const ObsConfig& obs, int64_t rounds) {
    Timed timed;
    for (int64_t i = 0; i < rounds; ++i) Round(obs, &timed);
    return timed;
  }

  /// Served answers must equal one-shot answers of the same query at
  /// the same relation version. The one-shot answer of the first shape
  /// is the fault-free reference of the crash queries.
  void CompareWithOneShot() {
    Cluster cluster(ParamsFor(config_, loaded_.rel->total_tuples()));
    for (size_t s = 0; s < queries_.size(); ++s) {
      const Shape& shape = DashboardShapes()[s];
      Result<QueryTicketPtr> ticket =
          Submit(s, next_fresh_tag_++, ObsConfig::Disabled(), nullptr);
      if (!ticket.ok()) {
        out_->Record(std::string("served ") + shape.label, ticket.status(),
                     Status::OK());
        continue;
      }
      const RunResult& served = (*ticket)->Wait();
      out_->Record(std::string("served ") + shape.label, served.status,
                   served.status.ok()
                       ? loaded_.oracle->Check(shape, served.results)
                       : Status::OK());
      AlgorithmOptions options;
      options.seed = args_.seed;
      options.obs = ObsConfig::Disabled();
      RunResult one_shot = queries_[s].Execute(cluster, *loaded_.rel,
                                               AlgorithmKind::kSampling,
                                               std::move(options));
      Status check;
      if (one_shot.status.ok()) {
        check = loaded_.oracle->Check(shape, one_shot.results);
        if (check.ok() && served.status.ok() &&
            !SameRows(served.results, one_shot.results, config_.groups)) {
          check = Status::Internal("served rows differ from one-shot rows");
        }
        if (s == 0) fault_free_ = DigestOf(one_shot.results);
      }
      out_->Record(std::string("one-shot ") + shape.label, one_shot.status,
                   check);
    }
  }

  /// Crashed-and-recovered sessions, kCrashRounds rounds of five; the
  /// service replays each one.
  Samples Crashes(const ObsConfig& obs, TracedWork* traced) {
    Samples samples;
    Result<FaultPlan> plan = FaultPlan::Parse(kCrashPlan);
    if (!plan.ok()) {
      out_->Record("crash plan", plan.status(), Status::OK());
      return samples;
    }
    for (int i = 0; i < kCrashRounds * 5; ++i) {
      const QueryClock clock;
      Result<QueryTicketPtr> ticket =
          Submit(0, next_fresh_tag_++, obs, &*plan);
      if (!ticket.ok()) {
        out_->Record("recovered session", ticket.status(), Status::OK());
        continue;
      }
      const RunResult& r = (*ticket)->Wait();
      samples.Add(clock, loaded_.rel->total_tuples());
      Status check;
      if (r.status.ok()) {
        check = loaded_.oracle->Check(DashboardShapes()[0], r.results);
        if (check.ok() && DigestOf(r.results) != fault_free_) {
          check = Status::Internal("recovered rows differ from fault-free");
        }
      }
      out_->Record("recovered session", r.status, check);
      if (traced != nullptr) {
        ++traced->crash_queries;
        traced->crash_metrics.Merge(r.metrics);
      }
    }
    return samples;
  }

  PartitionedRelation& rel() { return *loaded_.rel; }
  const Query& where_query() const { return queries_[2]; }
  static int64_t queries_per_round() { return kScriptLength; }

 private:
  /// Submits query `s` with the HAVING literal `tag`.
  Result<QueryTicketPtr> Submit(size_t s, int64_t tag, const ObsConfig& obs,
                                const FaultPlan* crash) {
    const Query& q = queries_[s];
    ServeQuery sq;
    sq.spec = q.spec;
    sq.options.where = q.where;
    sq.options.having = Gt(ColNamed("cnt"), Lit(-tag));
    sq.options.seed = args_.seed;
    sq.options.obs = obs;
    if (crash != nullptr) {
      sq.options.fault_plan = *crash;
      sq.options.recovery.enabled = true;  // cost-modelled checkpoints
    }
    return service_->Submit(std::move(sq));
  }

  /// Appends one relation page of tuples to one node, rotating over the
  /// nodes, so appends never leave partly filled pages behind.
  void Append() {
    const int node = static_cast<int>(round_ % config_.nodes);
    out_->Record("append",
                 AppendTuples(&loaded_, node,
                              PageBuilder::Capacity(kDefaultPageSize,
                                                    loaded_.rel->schema()
                                                        .tuple_size())),
                 Status::OK());
  }

  const RunArgs& args_;
  const WorkloadConfig& config_;
  RunOutcome* out_;
  Loaded loaded_;
  std::unique_ptr<ClusterService> service_;
  std::vector<Query> queries_;
  /// Rounds run so far.
  int64_t round_ = 0;
  int64_t next_fresh_tag_ = 2'000'000'000;
  RowDigest fault_free_;
};

}  // namespace

RunOutcome RunServed(const RunArgs& args) {
  RunOutcome out;
  ServedRun run(args, &out);
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    run.Reset();
    const QueryClock clock;
    if (Status st = run.Setup(); !st.ok()) {
      out.Record("setup", st, Status::OK());
      return out;
    }
    setup_s.push_back(clock.cpu_s());
  }
  const ObsConfig untraced = ObsConfig::Disabled();
  // Warm-up, outside the timed loop.
  run.Loop(untraced, WarmupRounds(*args.config));

  if (!args.trace) {
    const int64_t rounds =
        TimedRounds(*args.config, args.seconds, run.queries_per_round(),
                    kMinTimedQueries);
    const std::vector<int64_t> ticks = HostCpuTicks();
    const Timed timed = run.Loop(untraced, rounds);
    const LoopFigures f = Summarize(timed.samples, ticks);
    run.CompareWithOneShot();
    const Samples crashes = run.Crashes(untraced, nullptr);
    run.Stop();
    PrintLoop(f);
    std::printf("cache hits: %zu of %zu queries\n",
                timed.hit_latency_s.size(), f.queries);
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("cpu_ms_per_query", f.cpu_ms_per_query, "ms");
    out.Add("query_cpu_p50_ms", f.cpu_p50_ms, "ms");
    out.Add("query_cpu_p90_ms", f.cpu_p90_ms, "ms");
    out.Add("recover_cpu_ms", Median(crashes.cpu_s) * 1e3, "ms");
    out.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    out.Add("sim_s", timed.first_round_sim_s, "s");
    return out;
  }

  // Traced-run mode: untraced and traced rounds alternate, so both see
  // the same host, for the tracing overhead; then the per-layer metrics.
  const int64_t rounds =
      TimedRounds(*args.config, args.seconds / 2, run.queries_per_round(),
                  kMinTimedQueries);
  Timed plain, traced;
  for (int64_t i = 0; i < rounds; ++i) {
    run.Round(untraced, &plain);
    run.Round(ObsConfig::Full(), &traced);
  }
  run.CompareWithOneShot();
  run.Crashes(ObsConfig::Full(), &traced.traced);
  run.Stop();
  WriteOutput(args, std::string(args.config->name) + ".trace.json",
              ChromeTraceJson(traced.first_trace, args.config->nodes));

  if (Status st = AddLayerTimings(
          *args.config, run.rel(),
          ParamsFor(*args.config, run.rel().total_tuples()),
          run.where_query().where, &out);
      !st.ok()) {
    out.Record("layer timers", st, Status::OK());
  }
  out.Add("serve.submit_us", Median(plain.miss_submit_s) * 1e6, "us");
  out.Add("serve.cache_hit_us", Median(plain.hit_latency_s) * 1e6, "us");
  AddTracedMetrics(traced.traced, args.config->nodes, &out);
  out.Add("serve.cache_hit_ratio",
          static_cast<double>(plain.hit_latency_s.size()) /
              static_cast<double>(plain.samples.queries()),
          "ratio");
  out.Add("obs.trace_overhead_pct",
          TraceOverheadPct(traced.samples, plain.samples), "%");
  WriteLayerTable(args, out);
  return out;
}

}  // namespace e2e
}  // namespace adaptagg
