// End-to-end wiring of the radix pre-partitioning decision and SIMD
// dispatch observability: the cluster records the decisions as trace
// instants, the auto policy engages off the sampling estimates (and only
// then), and radix runs emit exactly the hash-direct results at the same
// modeled time.

#include <gtest/gtest.h>

#include <string>

#include "model/locality_model.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

struct Fixture {
  PartitionedRelation rel;
  AggregationSpec spec;
};

Result<Fixture> MakeFixture(int nodes, int64_t tuples, int64_t groups) {
  WorkloadSpec wspec;
  wspec.num_nodes = nodes;
  wspec.num_tuples = tuples;
  wspec.num_groups = groups;
  ADAPTAGG_ASSIGN_OR_RETURN(PartitionedRelation rel,
                            GenerateRelation(wspec));
  ADAPTAGG_ASSIGN_OR_RETURN(AggregationSpec spec,
                            MakeBenchQuery(&rel.schema()));
  return Fixture{std::move(rel), std::move(spec)};
}

int CountInstants(const RunResult& run, const std::string& name) {
  int count = 0;
  for (const TraceEvent& e : run.trace_events) {
    if (e.kind == TraceEvent::Kind::kInstant && e.name == name) ++count;
  }
  return count;
}

TEST(RadixWiring, SimdDispatchInstantRecordedOncePerRun) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 4'000, 50));
  Cluster cluster(SmallClusterParams(2, 4'000));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(CountInstants(run, "simd.dispatch"), 1);
}

TEST(RadixWiring, ForcedRadixRecordsEngageInstantsAndMatchesReference) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 8'000, 200));
  const SystemParams params = SmallClusterParams(2, 8'000, /*max=*/4'096);
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kOn;
  opts.gather_results = true;

  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(params);
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  // kOn engages the local table on both nodes and the global merge
  // table on both nodes.
  EXPECT_EQ(CountInstants(run, "radix.engage.local"), 2);
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 2);
}

/// Radix staging is wall-clock-only: against a kOff run of the same
/// query, every emitted value, every row's node, and the modeled time
/// must be identical. `sim_tol` (default: exact) admits the last-ULP
/// jitter that arrival-order summation of differing per-page charges
/// leaves between any two runs of the same query.
void ExpectSameAsRadixOff(const RunResult& run, const RunResult& off,
                          double sim_tol = 0.0) {
  EXPECT_TRUE(ResultSetsEqual(run.results, off.results, 0.0))
      << "radix must not change a single emitted value";
  EXPECT_NEAR(run.sim_time_s, off.sim_time_s, sim_tol);
  ASSERT_EQ(run.node_stats.size(), off.node_stats.size());
  for (size_t i = 0; i < run.node_stats.size(); ++i) {
    EXPECT_EQ(run.node_stats[i].result_rows, off.node_stats[i].result_rows)
        << "node " << i;
  }
}

/// One picosecond: three orders below the smallest modeled charge, so
/// any real cost perturbation still fails.
constexpr double kUlpTolS = 1e-12;

TEST(RadixWiring, RadixOnAndOffEmitIdenticalResults) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 12'000, 300));
  const SystemParams params =
      SmallClusterParams(4, 12'000, /*max=*/4'096);
  AlgorithmOptions on;
  on.radix_mode = RadixMode::kOn;
  on.gather_results = true;
  AlgorithmOptions off;
  off.radix_mode = RadixMode::kOff;
  off.gather_results = true;

  Cluster cluster(params);
  RunResult run_on = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                                 f.spec, f.rel, on);
  ASSERT_OK(run_on.status);
  RunResult run_off = cluster.Run(*MakeAlgorithm(AlgorithmKind::kTwoPhase),
                                  f.spec, f.rel, off);
  ASSERT_OK(run_off.status);
  ExpectSameAsRadixOff(run_on, run_off);
}

TEST(RadixWiring, AutoEngagesOffTheSamplingEstimate) {
  // Shrink the modeled caches so the sampled group estimate crosses the
  // LLC gate: sampling sets the per-node estimate, and the auto policy
  // must then engage the local aggregation.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 10'000, 400));
  const SystemParams params =
      SmallClusterParams(2, 10'000, /*max=*/8'192);
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kAuto;
  opts.radix_l2_bytes = 1'024;
  opts.radix_llc_bytes = 1'024;
  opts.crossover_threshold = 1'000'000;  // keep the two-phase body
  opts.gather_results = true;

  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(params);
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_GE(CountInstants(run, "radix.engage.local"), 1);
  // The decision is observability-only: it must not count as an
  // adaptive switch.
  EXPECT_EQ(run.metrics.Value("core.switches"), 0);
}

TEST(RadixWiring, AutoEngagesGlobalTableOffTheBroadcastEstimate) {
  // Groups placed by hash: each node holds a disjoint half of the 800
  // groups, so its local estimate (~400, ~200 per merge table) stays
  // under the LLC gate while Sampling's broadcast global estimate (~800,
  // ~400 per merge table) crosses it. Only the broadcast estimate can
  // engage the merge-side tables.
  WorkloadSpec wspec;
  wspec.num_nodes = 2;
  wspec.num_tuples = 16'000;
  wspec.num_groups = 800;
  wspec.placement = Placement::kHashOnGroup;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.gather_results = true;
  opts.radix_mode = RadixMode::kAuto;
  // The LLC gate at 300 groups' working set: between the local (~200)
  // and the global (~400) per-table estimates.
  opts.radix_llc_bytes =
      DecideRadixPartitioning(RadixMode::kOff, 300, 8'192,
                              spec.key_width() + spec.state_width(), -1, -1)
          .working_set_bytes;
  opts.crossover_threshold = 1'000'000;  // keep the two-phase body
  AlgorithmOptions off = opts;
  off.radix_mode = RadixMode::kOff;

  Cluster cluster(SmallClusterParams(2, 16'000, /*max=*/8'192));
  RunResult run =
      cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling), spec, rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 2);
  RunResult run_off =
      cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling), spec, rel, off);
  ASSERT_OK(run_off.status);
  EXPECT_EQ(CountInstants(run_off, "radix.engage.global"), 0);
  ExpectSameAsRadixOff(run, run_off, kUlpTolS);
}

TEST(RadixWiring, AutoStaysOffWithoutPressure) {
  // Few groups, default cache budgets: the working set fits the LLC,
  // nothing engages, and the run stays hash-direct with no instants.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 6'000, 20));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kAuto;
  Cluster cluster(SmallClusterParams(2, 6'000));
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(CountInstants(run, "radix.engage.local"), 0);
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 0);
}

TEST(RadixWiring, RepartitioningBodyEngagesGlobalTable) {
  // Forced radix through the repartitioning body: the merge-side table
  // engages on every node.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 8'000, 500));
  AlgorithmOptions opts;
  opts.obs.traces = true;
  opts.radix_mode = RadixMode::kOn;
  opts.gather_results = true;

  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(f.spec, f.rel));
  Cluster cluster(SmallClusterParams(2, 8'000, /*max=*/4'096));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kRepartitioning), f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
  EXPECT_EQ(CountInstants(run, "radix.engage.global"), 2);
  AlgorithmOptions off = opts;
  off.radix_mode = RadixMode::kOff;
  RunResult run_off = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kRepartitioning), f.spec, f.rel, off);
  ASSERT_OK(run_off.status);
  ExpectSameAsRadixOff(run, run_off, kUlpTolS);
}

}  // namespace
}  // namespace adaptagg
