// Wall-clock A/B of radix pre-partitioning against the paper's plain
// partitioned merge (DESIGN.md §12): every cell runs the Sampling
// algorithm once with radix_mode = kOff ("seed": hash-direct local and
// merge tables) and once with kAuto ("radix": the locality model's
// decision, engaging cache-sized staging on the local and merge tables
// when the sampled working set busts the LLC budget). Three regimes:
//
//   high_n_low_g : many nodes, few groups, real sockets. Message-bound;
//                  the working set is tiny, so auto stays hash-direct
//                  and the two columns must tie (a control cell).
//   high_g_skew  : huge skewed group count under a 256 KiB LLC budget.
//                  Auto engages radix on both tables; this is the cell
//                  where staging has to earn its code.
//   inproc_low_contention : plenty of uniform groups on the in-process
//                  mesh, cache-resident tables: auto stays hash-direct
//                  (a second control cell).
//
// Reps are interleaved across the two modes (rep-major, alternating
// start) so machine drift hits both alike, and each mode reports its
// median wall time — the median shrugs off the long scheduler tail that
// makes min/mean flap on shared hosts. Modeled time is radix-invariant
// by construction; the interesting number here is the wall clock. A
// mode within kTieBand of the other counts as a tie. Numbers go to
// BENCH_micro_merge.json.
//
// ADAPTAGG_BENCH_SCALE scales tuple counts (group counts and M scale
// with them so the regimes keep their shape).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

constexpr int kReps = 9;

/// Medians within this factor of each other count as a tie. 1.10
/// matches the observed cross-run noise floor of a serial shared host.
constexpr double kTieBand = 1.10;

struct Cell {
  const char* name;
  int nodes;
  int64_t tuples;
  int64_t groups;
  int64_t max_hash_entries;
  double zipf_theta;    // 0 = uniform
  int64_t llc_bytes;    // radix LLC budget (-1 = model default)
  bool tcp;             // loopback sockets instead of the inproc mesh
  int reps;             // wall-clock reps; TCP needs more
};

/// Distinct from every port range the tests claim (42xxx, 43xxx).
constexpr int kTcpBasePort = 44'150;

struct Mode {
  const char* label;
  RadixMode radix;
};

constexpr Mode kModes[] = {{"seed", RadixMode::kOff},
                           {"radix", RadixMode::kAuto}};
constexpr int kNumModes = static_cast<int>(sizeof(kModes) /
                                           sizeof(kModes[0]));

struct ModeOutcome {
  double sim_time_s = 0;
  std::vector<double> walls;  // one sample per rep; reported as median
  double wall_time_s = -1;    // median, filled in after the rep loop

  void FinalizeWall() {
    if (walls.empty()) return;
    std::sort(walls.begin(), walls.end());
    const size_t n = walls.size();
    wall_time_s = (n % 2 == 1)
                      ? walls[n / 2]
                      : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
  }
};

AlgorithmOptions ModeOptions(const Cell& cell, const Mode& mode) {
  AlgorithmOptions opts;
  opts.gather_results = false;
  opts.radix_mode = mode.radix;
  opts.radix_llc_bytes = cell.llc_bytes;
  opts.crossover_threshold = 1'000'000'000;  // keep the two-phase body
  return opts;
}

/// One engine run of `mode`; appends its wall time to `out`.
bool RunModeOnce(const Cell& cell, Cluster& cluster,
                 const AggregationSpec& spec, PartitionedRelation& rel,
                 BenchJsonWriter& json, const Mode& mode, bool first_rep,
                 ModeOutcome& out) {
  EngineRunOutcome run =
      RunEngine(cluster, AlgorithmKind::kSampling, spec, rel,
                ModeOptions(cell, mode),
                std::string(cell.name) + "_" + mode.label);
  if (!run.ok) return false;
  out.sim_time_s = run.sim_time_s;
  out.walls.push_back(run.wall_time_s);
  if (first_rep) json.MergeMetrics(run.metrics);
  return true;
}

/// Which tables the auto mode engaged, from one untimed traced run.
std::string EngagedTables(const Cell& cell, Cluster& cluster,
                          const AggregationSpec& spec,
                          PartitionedRelation& rel) {
  AlgorithmOptions opts = ModeOptions(cell, kModes[1]);
  opts.obs.traces = true;
  RunResult run =
      cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling), spec, rel, opts);
  if (!run.status.ok()) return "ERR";
  bool local = false;
  bool global = false;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind != TraceEvent::Kind::kInstant) continue;
    local = local || e.name == "radix.engage.local";
    global = global || e.name == "radix.engage.global";
  }
  if (local && global) return "local+global";
  if (local) return "local";
  if (global) return "global";
  return "none";
}

void Run() {
  const double scale = BenchScale();
  const auto scaled = [scale](int64_t v) {
    return std::max<int64_t>(64, static_cast<int64_t>(
                                     static_cast<double>(v) * scale));
  };

  const Cell kCells[] = {
      {"high_n_low_g", 24, scaled(2'400), 64, 1'024, 0.0, -1,
       /*tcp=*/true, /*reps=*/15},
      // 256 KiB LLC budget: the zipf sample undercounts groups (~40k
      // seen of 80k real), and the budget must be small enough that
      // even the undercount busts it, or auto never engages the radix
      // staging it is being graded on.
      {"high_g_skew", 4, scaled(160'000), scaled(80'000), scaled(65'536),
       0.9, 256 * 1024, /*tcp=*/false, /*reps=*/kReps},
      // 3M tuples: one timed query runs >= 100 ms at full scale, long
      // enough that scheduler noise stays well inside the tie band (at
      // 80k tuples a ~10 ms query once graded "radix wins" between two
      // columns that run identical code).
      {"inproc_low_contention", 8, scaled(3'000'000), scaled(4'000),
       scaled(65'536), 0.0, -1, /*tcp=*/false, /*reps=*/kReps},
  };

  PrintHeader("micro: merge-side radix",
              "seed (radix off) vs radix (auto) under Sampling "
              "(median wall of >=" + std::to_string(kReps) + " reps)",
              "scale=" + FmtSeconds(scale));

  TablePrinter table(
      {"cell", "seed(s)", "radix(s)", "seed/radix", "engaged", "verdict"});
  BenchJsonWriter json("micro_merge", "scale=" + FmtSeconds(scale));

  for (const Cell& cell : kCells) {
    SystemParams params;
    params.num_nodes = cell.nodes;
    params.num_tuples = cell.tuples;
    params.max_hash_entries = cell.max_hash_entries;
    params.network = NetworkKind::kHighBandwidth;

    WorkloadSpec wspec;
    wspec.num_nodes = cell.nodes;
    wspec.num_tuples = cell.tuples;
    wspec.num_groups = cell.groups;
    if (cell.zipf_theta > 0) {
      wspec.distribution = GroupDistribution::kZipf;
      wspec.zipf_theta = cell.zipf_theta;
    }
    auto rel = GenerateRelation(wspec);
    if (!rel.ok()) return;
    auto spec = MakeBenchQuery(&rel->schema());
    if (!spec.ok()) return;

    Cluster cluster(params);
    if (cell.tcp) {
      cluster.set_transport_factory(
          [](int n) { return MakeTcpMesh(n, kTcpBasePort); });
    }
    ModeOutcome outs[kNumModes];
    bool all_ok = true;
    // Rep-major with an alternating start: every rep runs both modes
    // back to back (slow drift cancels out of the comparison), and each
    // mode leads on every other rep (warm-up favors the later position).
    for (int rep = 0; rep < cell.reps && all_ok; ++rep) {
      for (int k = 0; k < kNumModes; ++k) {
        const int mi = (rep + k) % kNumModes;
        if (!RunModeOnce(cell, cluster, *spec, *rel, json, kModes[mi],
                         rep == 0 && k == 0, outs[mi])) {
          all_ok = false;
          break;
        }
      }
    }
    if (!all_ok) {
      table.AddRow({cell.name, "ERR", "ERR", "-", "-", "ERR"});
      continue;
    }
    for (int mi = 0; mi < kNumModes; ++mi) {
      ModeOutcome& out = outs[mi];
      out.FinalizeWall();
      json.AddPoint(std::string(cell.name) + "/" + kModes[mi].label,
                    out.sim_time_s, out.wall_time_s,
                    out.wall_time_s > 0
                        ? static_cast<double>(cell.tuples) / out.wall_time_s
                        : 0);
    }
    const double seed_wall = outs[0].wall_time_s;
    const double radix_wall = outs[1].wall_time_s;
    const char* verdict = "tie";
    if (radix_wall * kTieBand < seed_wall) verdict = "radix wins";
    if (seed_wall * kTieBand < radix_wall) verdict = "seed wins";
    table.AddRow({cell.name, FmtSeconds(seed_wall), FmtSeconds(radix_wall),
                  FmtSeconds(seed_wall / radix_wall),
                  EngagedTables(cell, cluster, *spec, *rel), verdict});
  }
  table.Print();
  json.Write();
  std::printf(
      "\nExpected shape: the control cells (high_n_low_g,\n"
      "inproc_low_contention) engage nothing and tie; high_g_skew engages\n"
      "radix on the local and merge tables, and radix has to beat seed\n"
      "by more than the %.2fx tie band there to justify its code.\n",
      kTieBand);
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main(int, char** argv) {
  adaptagg::bench::SetBenchBinaryName(argv[0]);
  adaptagg::bench::Run();
  return 0;
}
