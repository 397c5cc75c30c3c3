// One-shot workloads: each query runs to completion through
// Query::Execute on a four-node in-process cluster, cycling through the
// paper's Figure 8 algorithms (2P, Rep, Samp, A-2P, A-Rep).

#include <optional>
#include <vector>

#include "core/query.h"
#include "drivers.h"
#include "layers.h"
#include "net/fault.h"
#include "obs/trace_export.h"

namespace adaptagg {
namespace e2e {
namespace {

/// The paper's query, `SELECT g, COUNT(*), SUM(v) FROM R GROUP BY g`.
/// A round runs it once under each of the five algorithms, so the
/// median and the 90th percentile fall inside one algorithm's share of
/// the samples, never on the edge between two.
const Shape kPaperShape = {"count_sum_by_g", 0, {AggKind::kSum}};

/// The WHERE predicate the layer timers evaluate on these workloads.
ExprPtr LayerTimerWhere() {
  return Lt(ColNamed("v"), Lit(FilterBound(2)));
}

/// What a sequence of rounds measured.
struct Timed {
  Samples samples;
  /// Modelled seconds of the first round's queries.
  double first_round_sim_s = 0;
  /// Traced rounds: the merged snapshot and the first query's trace.
  TracedWork traced;
  std::vector<TraceEvent> first_trace;
};

class OneShotRun {
 public:
  OneShotRun(const RunArgs& args, Loaded loaded, Query query,
             RunOutcome* out)
      : args_(args),
        loaded_(std::move(loaded)),
        query_(std::move(query)),
        out_(out),
        cluster_(ParamsFor(*args.config, loaded_.rel->total_tuples())),
        algorithms_(Figure8Algorithms()) {}

  /// One round: the query under every algorithm, in a fixed order.
  void Round(const ObsConfig& obs, Timed* timed) {
    const bool first = timed->samples.queries() == 0;
    for (AlgorithmKind alg : algorithms_) {
      const QueryClock clock;
      RunResult r = query_.Execute(cluster_, *loaded_.rel, alg,
                                   BaseOptions(obs));
      timed->samples.Add(clock, loaded_.rel->total_tuples());
      Check(alg, r, "");
      if (first) timed->first_round_sim_s += r.sim_time_s;
      if (obs.metrics) {
        ++timed->traced.executed_queries;
        timed->traced.metrics.Merge(r.metrics);
      }
      if (obs.traces && timed->first_trace.empty()) {
        timed->first_trace = std::move(r.trace_events);
      }
    }
  }

  Timed Loop(const ObsConfig& obs, int64_t rounds) {
    Timed timed;
    for (int64_t i = 0; i < rounds; ++i) Round(obs, &timed);
    return timed;
  }

  /// Crashed-and-recovered queries: kCrashRounds rounds, each crashing
  /// the query once under every algorithm.
  Samples Crashes(const ObsConfig& obs, TracedWork* traced) {
    Samples samples;
    Result<FaultPlan> plan = FaultPlan::Parse(kCrashPlan);
    if (!plan.ok()) {
      out_->Record("crash plan", plan.status(), Status::OK());
      return samples;
    }
    for (int round = 0; round < kCrashRounds; ++round) {
      for (AlgorithmKind alg : algorithms_) {
        AlgorithmOptions options = BaseOptions(obs);
        options.fault_plan = *plan;
        options.recovery.enabled = true;  // cost-modelled checkpoints
        const QueryClock clock;
        RunResult r =
            query_.Execute(cluster_, *loaded_.rel, alg, std::move(options));
        samples.Add(clock, loaded_.rel->total_tuples());
        Check(alg, r, "recovered ");
        if (traced != nullptr) {
          ++traced->crash_queries;
          traced->crash_metrics.Merge(r.metrics);
        }
      }
    }
    return samples;
  }

  int64_t queries_per_round() const {
    return static_cast<int64_t>(algorithms_.size());
  }
  PartitionedRelation& rel() { return *loaded_.rel; }

 private:
  AlgorithmOptions BaseOptions(const ObsConfig& obs) const {
    AlgorithmOptions options;
    options.seed = args_.seed;
    options.obs = obs;
    return options;
  }

  /// Checks one answer against the oracle and against the first answer
  /// (every algorithm, and every recovered run, must return the same
  /// rows), and counts the operation.
  void Check(AlgorithmKind alg, const RunResult& r, const char* prefix) {
    const std::string what = std::string(prefix) + kPaperShape.label + " " +
                             AlgorithmKindToString(alg);
    Status check;
    if (r.status.ok()) {
      check = loaded_.oracle->Check(kPaperShape, r.results);
      const RowDigest digest = DigestOf(r.results);
      if (!reference_.has_value()) {
        reference_ = digest;
      } else if (check.ok() && *reference_ != digest) {
        check = Status::Internal("rows differ from an earlier answer");
      }
    }
    out_->Record(what, r.status, check);
  }

  const RunArgs& args_;
  Loaded loaded_;
  Query query_;
  RunOutcome* out_;
  Cluster cluster_;
  std::vector<AlgorithmKind> algorithms_;
  std::optional<RowDigest> reference_;
};

}  // namespace

RunOutcome RunOneShot(const RunArgs& args) {
  RunOutcome out;
  // Set-up: generate, load and tally the relation; until then no query
  // can be submitted.
  std::vector<double> setup_s;
  Loaded loaded;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    loaded = Loaded();
    const QueryClock clock;
    Result<Loaded> made = LoadRelation(*args.config, args.seed);
    if (!made.ok()) {
      out.Record("load", made.status(), Status::OK());
      return out;
    }
    loaded = std::move(made).value();
    setup_s.push_back(clock.cpu_s());
  }
  Result<Query> query = BuildQuery(&loaded.rel->schema(), kPaperShape, 0);
  if (!query.ok()) {
    out.Record("query", query.status(), Status::OK());
    return out;
  }
  OneShotRun run(args, std::move(loaded), std::move(query).value(), &out);
  const ObsConfig untraced = ObsConfig::Disabled();
  // Warm-up, outside the timed loop.
  run.Loop(untraced, WarmupRounds(*args.config));

  if (!args.trace) {
    const int64_t rounds = TimedRounds(*args.config, args.seconds,
                                       run.queries_per_round(),
                                       kMinTimedQueries);
    const std::vector<int64_t> ticks = HostCpuTicks();
    const Timed timed = run.Loop(untraced, rounds);
    const LoopFigures f = Summarize(timed.samples, ticks);
    const Samples crashes = run.Crashes(untraced, nullptr);
    PrintLoop(f);
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
  const int64_t rounds = TimedRounds(*args.config, args.seconds / 2,
                                     run.queries_per_round(),
                                     kMinTimedQueries);
  Timed plain, traced;
  for (int64_t i = 0; i < rounds; ++i) {
    run.Round(untraced, &plain);
    run.Round(ObsConfig::Full(), &traced);
  }
  run.Crashes(ObsConfig::Full(), &traced.traced);
  WriteOutput(args, std::string(args.config->name) + ".trace.json",
              ChromeTraceJson(traced.first_trace, args.config->nodes));

  if (Status st = AddLayerTimings(
          *args.config, run.rel(),
          ParamsFor(*args.config, run.rel().total_tuples()),
          LayerTimerWhere(), &out);
      !st.ok()) {
    out.Record("layer timers", st, Status::OK());
  }
  out.Add("serve.submit_us", 0, "us");
  out.Add("serve.cache_hit_us", 0, "us");
  AddTracedMetrics(traced.traced, args.config->nodes, &out);
  out.Add("serve.cache_hit_ratio", 0, "ratio");
  out.Add("obs.trace_overhead_pct",
          TraceOverheadPct(traced.samples, plain.samples), "%");
  WriteLayerTable(args, out);
  return out;
}

}  // namespace e2e
}  // namespace adaptagg
