// adaptagg_cli — run aggregation experiments from the command line.
//
//   adaptagg_cli --nodes 8 --tuples 500000 --groups 10000 --algorithm all
//   adaptagg_cli --output-skew --algorithm a2p --network low
//   adaptagg_cli --model --nodes 32 --sweep          (analytical curves)
//
// Prints one row per run: algorithm, modeled time, wall time, result
// rows, spills, adaptive switches. --csv makes the output
// machine-readable.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "agg/reference.h"
#include "cluster/run_report.h"
#include "cluster/cluster.h"
#include "common/str_cat.h"
#include "core/algorithm.h"
#include "model/cost_model.h"
#include "net/fault.h"
#include "obs/trace_export.h"
#include "serve/cluster_service.h"
#include "workload/generator.h"
#include "workload/skew.h"

namespace adaptagg {
namespace {

struct CliOptions {
  int nodes = 8;
  int64_t tuples = 200'000;
  int64_t groups = 1'000;
  int64_t hash_entries = -1;
  std::string algorithm = "all";
  NetworkKind network = NetworkKind::kHighBandwidth;
  GroupDistribution distribution = GroupDistribution::kUniform;
  double zipf_theta = 0.0;
  double input_skew = 1.0;
  bool output_skew = false;
  uint64_t seed = 42;
  bool model = false;
  bool sweep = false;
  bool csv = false;
  bool verify = false;
  bool verbose = false;
  std::string trace_file;
  std::string fault;
  double fault_timeout = -1;
  bool recover = false;
  int64_t checkpoint_every = -1;
  bool serve = false;
  int clients = 4;
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --nodes N            cluster size (default 8)\n"
      "  --tuples T           relation cardinality (default 200000)\n"
      "  --groups G           number of GROUP BY groups (default 1000)\n"
      "  --hash-entries M     per-node hash table bound (default: Table 1)\n"
      "  --algorithm A        c2p|2p|rep|samp|a2p|arep|opt2p|sort2p|all\n"
      "  --network K          high|low (bandwidth; default high)\n"
      "  --distribution D     uniform|zipf|sequential\n"
      "  --zipf-theta X       zipf skew in [0,1) (default 0)\n"
      "  --input-skew F       first node gets F x the tuples (default 1)\n"
      "  --output-skew        figure-9 layout (half the nodes: 1 group)\n"
      "  --seed S             workload seed\n"
      "  --model              analytical cost model instead of the engine\n"
      "  --sweep              sweep grouping selectivity instead of one G\n"
      "  --verify             check results against the reference oracle\n"
      "  --csv                machine-readable output\n"
      "  --verbose            per-node clock/counter report per run\n"
      "  --trace FILE         write a Chrome trace-event JSON of the run\n"
      "                       (with --algorithm all, FILE gets a\n"
      "                       _<algo> suffix per run)\n"
      "  --fault PLAN         inject faults, e.g.\n"
      "                       'drop:from=1,to=2,nth=0;crash:node=2,\n"
      "                       tuple=5000;straggle:node=3,factor=4'\n"
      "                       (arms failure detection; aborted runs\n"
      "                       report node, phase, and cause)\n"
      "  --fault-timeout S    override the derived recv idle deadline\n"
      "                       and arm failure detection explicitly\n"
      "  --recover            enable fault recovery: checkpoint partial\n"
      "                       aggregates and re-execute crashed nodes\n"
      "                       from the last checkpoint instead of\n"
      "                       aborting (DESIGN.md recovery protocol)\n"
      "  --checkpoint-every K checkpoint cadence in scan batches\n"
      "                       (default: cost-model choice; 0 = replay\n"
      "                       from scratch; implies --recover)\n"
      "  --serve              serving-mode demo: resident ClusterService,\n"
      "                       concurrent clients, result cache; prints\n"
      "                       throughput, latency percentiles, and the\n"
      "                       serve.* counters\n"
      "  --clients N          concurrent clients for --serve (default 4)\n",
      argv0);
}

Result<AlgorithmKind> ParseAlgorithm(const std::string& s) {
  if (s == "c2p") return AlgorithmKind::kCentralizedTwoPhase;
  if (s == "2p") return AlgorithmKind::kTwoPhase;
  if (s == "rep") return AlgorithmKind::kRepartitioning;
  if (s == "samp") return AlgorithmKind::kSampling;
  if (s == "a2p") return AlgorithmKind::kAdaptiveTwoPhase;
  if (s == "arep") return AlgorithmKind::kAdaptiveRepartitioning;
  if (s == "opt2p") return AlgorithmKind::kGraefeTwoPhase;
  if (s == "sort2p") return AlgorithmKind::kSortTwoPhase;
  return Status::InvalidArgument("unknown algorithm: " + s);
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(arg + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else if (arg == "--nodes") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.nodes = std::atoi(v.c_str());
    } else if (arg == "--tuples") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.tuples = std::atoll(v.c_str());
    } else if (arg == "--groups") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.groups = std::atoll(v.c_str());
    } else if (arg == "--hash-entries") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.hash_entries = std::atoll(v.c_str());
    } else if (arg == "--algorithm") {
      ADAPTAGG_ASSIGN_OR_RETURN(opt.algorithm, next());
    } else if (arg == "--network") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "high") {
        opt.network = NetworkKind::kHighBandwidth;
      } else if (v == "low") {
        opt.network = NetworkKind::kLimitedBandwidth;
      } else {
        return Status::InvalidArgument("bad --network: " + v);
      }
    } else if (arg == "--distribution") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "uniform") {
        opt.distribution = GroupDistribution::kUniform;
      } else if (v == "zipf") {
        opt.distribution = GroupDistribution::kZipf;
      } else if (v == "sequential") {
        opt.distribution = GroupDistribution::kSequential;
      } else {
        return Status::InvalidArgument("bad --distribution: " + v);
      }
    } else if (arg == "--zipf-theta") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.zipf_theta = std::atof(v.c_str());
    } else if (arg == "--input-skew") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.input_skew = std::atof(v.c_str());
    } else if (arg == "--output-skew") {
      opt.output_skew = true;
    } else if (arg == "--seed") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--model") {
      opt.model = true;
    } else if (arg == "--sweep") {
      opt.sweep = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--trace") {
      ADAPTAGG_ASSIGN_OR_RETURN(opt.trace_file, next());
    } else if (arg == "--fault") {
      ADAPTAGG_ASSIGN_OR_RETURN(opt.fault, next());
    } else if (arg == "--fault-timeout") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.fault_timeout = std::atof(v.c_str());
    } else if (arg == "--recover") {
      opt.recover = true;
    } else if (arg == "--checkpoint-every") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.checkpoint_every = std::atoll(v.c_str());
      opt.recover = true;
    } else if (arg == "--serve") {
      opt.serve = true;
    } else if (arg == "--clients") {
      ADAPTAGG_ASSIGN_OR_RETURN(std::string v, next());
      opt.clients = std::atoi(v.c_str());
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return opt;
}

Result<std::vector<AlgorithmKind>> SelectAlgorithms(const CliOptions& opt) {
  if (opt.algorithm == "all") return AllAlgorithms();
  ADAPTAGG_ASSIGN_OR_RETURN(AlgorithmKind kind,
                            ParseAlgorithm(opt.algorithm));
  return std::vector<AlgorithmKind>{kind};
}

SystemParams MakeParams(const CliOptions& opt) {
  SystemParams p;
  p.num_nodes = opt.nodes;
  p.num_tuples = opt.tuples;
  p.network = opt.network;
  if (opt.network == NetworkKind::kLimitedBandwidth) {
    p.msg_latency_s = 4096.0 * 8.0 / 10e6;  // 10 Mbit/s Ethernet
  }
  if (opt.hash_entries > 0) p.max_hash_entries = opt.hash_entries;
  return p;
}

int RunModel(const CliOptions& opt,
             const std::vector<AlgorithmKind>& algorithms) {
  CostModel::Config cfg;
  cfg.params = MakeParams(opt);
  CostModel model(cfg);

  std::vector<double> selectivities;
  if (opt.sweep) {
    for (double s = 1.0 / static_cast<double>(opt.tuples); s < 0.5;
         s *= 10) {
      selectivities.push_back(s);
    }
    selectivities.push_back(0.5);
  } else {
    selectivities.push_back(static_cast<double>(opt.groups) /
                            static_cast<double>(opt.tuples));
  }

  if (opt.csv) {
    std::printf("selectivity,algorithm,model_seconds\n");
  } else {
    std::printf("analytical model: %s\n", cfg.params.ToString().c_str());
    std::printf("%-12s %-8s %12s\n", "S", "algo", "model(s)");
  }
  for (double s : selectivities) {
    for (AlgorithmKind kind : algorithms) {
      double t = model.Time(kind, s);
      if (opt.csv) {
        std::printf("%.6e,%s,%.6f\n", s,
                    AlgorithmKindToString(kind).c_str(), t);
      } else {
        std::printf("%-12.3e %-8s %12.4f\n", s,
                    AlgorithmKindToString(kind).c_str(), t);
      }
    }
  }
  return 0;
}

Result<PartitionedRelation> MakeCliRelation(const CliOptions& opt) {
  if (opt.output_skew) {
    OutputSkewSpec spec;
    spec.num_nodes = opt.nodes;
    spec.single_group_nodes = opt.nodes / 2;
    spec.num_tuples = opt.tuples;
    spec.num_groups = opt.groups;
    spec.seed = opt.seed;
    return GenerateOutputSkewRelation(spec);
  }
  WorkloadSpec spec;
  spec.num_nodes = opt.nodes;
  spec.num_tuples = opt.tuples;
  spec.num_groups = opt.groups;
  spec.distribution = opt.distribution;
  spec.zipf_theta = opt.zipf_theta;
  spec.input_skew_factor = opt.input_skew;
  spec.seed = opt.seed;
  return GenerateRelation(spec);
}

int RunEngine(const CliOptions& opt,
              const std::vector<AlgorithmKind>& algorithms) {
  SystemParams params = MakeParams(opt);

  Result<PartitionedRelation> rel = MakeCliRelation(opt);
  if (!rel.ok()) {
    std::fprintf(stderr, "workload: %s\n", rel.status().ToString().c_str());
    return 1;
  }
  Result<AggregationSpec> spec = MakeBenchQuery(&rel->schema());
  if (!spec.ok()) {
    std::fprintf(stderr, "query: %s\n", spec.status().ToString().c_str());
    return 1;
  }

  ResultSet expected;
  if (opt.verify) {
    Result<ResultSet> ref = ReferenceAggregate(*spec, *rel);
    if (!ref.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   ref.status().ToString().c_str());
      return 1;
    }
    expected = std::move(ref).value();
  }

  FaultPlan fault_plan;
  if (!opt.fault.empty()) {
    Result<FaultPlan> parsed = FaultPlan::Parse(opt.fault);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--fault: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    fault_plan = std::move(parsed).value();
  }

  // One resident service runs every algorithm; the cache is off so each
  // algorithm actually executes instead of replaying the first one's
  // rows (they all produce the same result by design).
  ServiceConfig service_config;
  service_config.params = params;
  service_config.cache_entries = 0;
  Result<std::unique_ptr<ClusterService>> service =
      ClusterService::Start(service_config, &*rel);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  if (opt.csv) {
    std::printf(
        "algorithm,model_seconds,wall_seconds,rows,spilled,switched%s\n",
        opt.verify ? ",verified" : "");
  } else {
    std::printf("engine: %s\n", params.ToString().c_str());
    std::printf("%-8s %10s %10s %10s %10s %9s%s\n", "algo", "model(s)",
                "wall(s)", "rows", "spilled", "switched",
                opt.verify ? "  verified" : "");
  }
  for (AlgorithmKind kind : algorithms) {
    AlgorithmOptions run_opts;
    run_opts.gather_results = opt.verify;
    run_opts.fault_plan = fault_plan;
    if (opt.fault_timeout > 0) {
      run_opts.failure.enabled = true;
      run_opts.failure.recv_idle_timeout_s = opt.fault_timeout;
    }
    if (opt.recover) {
      run_opts.recovery.enabled = true;
      run_opts.recovery.checkpoint_every_batches = opt.checkpoint_every;
    }
    if (!opt.trace_file.empty()) {
      run_opts.obs.spans = true;
      run_opts.obs.traces = true;
    }
    ServeQuery submission;
    submission.spec = *spec;
    submission.algorithm = kind;
    submission.options = run_opts;
    Result<QueryTicketPtr> ticket = (*service)->Submit(std::move(submission));
    if (!ticket.ok()) {
      std::fprintf(stderr, "%s: %s\n", AlgorithmKindToString(kind).c_str(),
                   ticket.status().ToString().c_str());
      return 1;
    }
    RunResult run = (*ticket)->Wait();
    if (!run.status.ok()) {
      if (!fault_plan.empty()) {
        // Failing is the expected outcome of many fault plans; report
        // the (node, phase, cause) diagnosis and keep going.
        std::printf("%-8s ABORTED: %s\n",
                    AlgorithmKindToString(kind).c_str(),
                    run.status.ToString().c_str());
        continue;
      }
      std::fprintf(stderr, "%s: %s\n", AlgorithmKindToString(kind).c_str(),
                   run.status.ToString().c_str());
      return 1;
    }
    if (!opt.trace_file.empty()) {
      std::string path = opt.trace_file;
      if (algorithms.size() > 1) {
        // One file per algorithm: insert _<algo> before the extension.
        const std::string suffix = StrCat({"_", AlgorithmKindToString(kind)});
        const size_t dot = path.find_last_of('.');
        if (dot == std::string::npos ||
            path.find('/', dot) != std::string::npos) {
          path += suffix;
        } else {
          path.insert(dot, suffix);
        }
      }
      Status st = WriteChromeTrace(run.trace_events, run.num_nodes, path);
      if (!st.ok()) {
        std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    bool verified =
        opt.verify && ResultSetsEqual(run.results, expected);
    if (opt.csv) {
      std::printf("%s,%.6f,%.6f,%lld,%lld,%d%s\n",
                  AlgorithmKindToString(kind).c_str(), run.sim_time_s,
                  run.wall_time_s,
                  static_cast<long long>(run.total_result_rows()),
                  static_cast<long long>(run.total_spilled_records()),
                  run.nodes_switched(),
                  opt.verify ? (verified ? ",yes" : ",NO") : "");
    } else {
      std::printf("%-8s %10.4f %10.4f %10lld %10lld %6d/%-2d%s\n",
                  AlgorithmKindToString(kind).c_str(), run.sim_time_s,
                  run.wall_time_s,
                  static_cast<long long>(run.total_result_rows()),
                  static_cast<long long>(run.total_spilled_records()),
                  run.nodes_switched(), opt.nodes,
                  opt.verify ? (verified ? "  OK" : "  MISMATCH") : "");
    }
    if (opt.verbose) {
      std::printf("%s", RunReport(run).c_str());
    }
    if (opt.verify && !verified) return 2;
  }
  return 0;
}

/// --serve: the serving-layer demo. N concurrent clients submit a mix
/// of four query shapes (the bench query plus three WHERE variants) to
/// one resident ClusterService; each shape executes once and later
/// submissions hit the result cache. Prints throughput, latency
/// percentiles from the tickets' wall stamps, and the serve.* counters.
int RunServe(const CliOptions& opt) {
  SystemParams params = MakeParams(opt);
  Result<PartitionedRelation> rel = MakeCliRelation(opt);
  if (!rel.ok()) {
    std::fprintf(stderr, "workload: %s\n", rel.status().ToString().c_str());
    return 1;
  }
  Result<AggregationSpec> spec = MakeBenchQuery(&rel->schema());
  if (!spec.ok()) {
    std::fprintf(stderr, "query: %s\n", spec.status().ToString().c_str());
    return 1;
  }

  ServiceConfig config;
  config.params = params;
  Result<std::unique_ptr<ClusterService>> service =
      ClusterService::Start(config, &*rel);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  const int clients = std::max(1, opt.clients);
  constexpr int kQueriesPerClient = 8;
  std::printf(
      "serving: %d clients x %d queries, 4 query shapes, cache on\n",
      clients, kQueriesPerClient);

  std::vector<double> latencies(
      static_cast<size_t>(clients) * kQueriesPerClient, -1.0);
  std::atomic<int> rejected{0};
  std::atomic<int> failed{0};
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerClient; ++q) {
          ServeQuery submission;
          submission.spec = *spec;
          const int64_t shape = (c + q) % 4;
          if (shape > 0) {
            submission.options.where =
                Gt(Col(kBenchGroupCol), Lit(int64_t{shape}));
          }
          Result<QueryTicketPtr> ticket =
              (*service)->Submit(std::move(submission));
          if (!ticket.ok()) {
            rejected.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const RunResult& run = (*ticket)->Wait();
          if (!run.status.ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          latencies[static_cast<size_t>(c) * kQueriesPerClient +
                    static_cast<size_t>(q)] =
              (*ticket)->complete_wall_s() - (*ticket)->submit_wall_s();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  std::vector<double> ok;
  for (double l : latencies) {
    if (l >= 0) ok.push_back(l);
  }
  std::sort(ok.begin(), ok.end());
  auto pct = [&](double p) {
    if (ok.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * static_cast<double>(ok.size()));
    if (idx >= ok.size()) idx = ok.size() - 1;
    return ok[idx] * 1e3;
  };

  MetricsSnapshot m = (*service)->Metrics();
  std::printf("completed  : %zu ok, %d failed, %d rejected\n", ok.size(),
              failed.load(), rejected.load());
  std::printf("latency ms : p50=%.2f p95=%.2f p99=%.2f\n", pct(0.50),
              pct(0.95), pct(0.99));
  std::printf("admitted   : %lld (inflight high-water %lld)\n",
              static_cast<long long>(m.Value("serve.admitted")),
              static_cast<long long>(
                  m.Value("serve.inflight_high_water")));
  std::printf("cache      : %lld hits / %lld misses\n",
              static_cast<long long>(m.Value("serve.cache.hits")),
              static_cast<long long>(m.Value("serve.cache.misses")));
  (*service)->Shutdown();
  if ((*service)->resident_threads() != 0) {
    std::fprintf(stderr, "leaked resident threads after shutdown\n");
    return 1;
  }
  return failed.load() == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Result<CliOptions> opt = ParseArgs(argc, argv);
  if (!opt.ok()) {
    std::fprintf(stderr, "%s\n", opt.status().ToString().c_str());
    PrintUsage(argv[0]);
    return 1;
  }
  Result<std::vector<AlgorithmKind>> algorithms = SelectAlgorithms(*opt);
  if (!algorithms.ok()) {
    std::fprintf(stderr, "%s\n", algorithms.status().ToString().c_str());
    return 1;
  }
  if (opt->model) {
    return RunModel(*opt, *algorithms);
  }
  if (opt->sweep) {
    std::fprintf(stderr,
                 "--sweep requires --model (engine sweeps live in "
                 "bench/)\n");
    return 1;
  }
  if (opt->serve) {
    return RunServe(*opt);
  }
  return RunEngine(*opt, *algorithms);
}

}  // namespace
}  // namespace adaptagg

int main(int argc, char** argv) { return adaptagg::Main(argc, argv); }
