#include <gtest/gtest.h>

#include "core/phases.h"
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

// --------------------------------------------------------------------------
// Adaptive Two Phase (§3.2): the switch must fire exactly when the local
// group count exceeds the table bound M.

TEST(AdaptiveTwoPhase, NoSwitchWhenGroupsFit) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 100));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/512));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 0);
  int64_t raw = 0;
  for (const auto& s : run.node_stats) raw += s.raw_records_sent;
  EXPECT_EQ(raw, 0) << "no raw repartitioning when 2P suffices";
}

TEST(AdaptiveTwoPhase, AllNodesSwitchWhenGroupsOverflow) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 4'000));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/128));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 4);
  for (const auto& s : run.node_stats) {
    // The switch happens once the table holds M groups — i.e. after at
    // least M tuples and well before the end of the partition.
    EXPECT_GE(s.switch_at_tuple, 128);
    EXPECT_LT(s.switch_at_tuple, 8'000 / 4);
    EXPECT_GT(s.raw_records_sent, 0);
    // Exactly M partials were flushed at switch time.
    EXPECT_EQ(s.partial_records_sent, 128);
  }
}

TEST(AdaptiveTwoPhase, SwitchPointRespectsAblationKnob) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(2, 4'000, 2'000));
  SystemParams params = SmallClusterParams(2, 4'000, /*M=*/1'000);
  Cluster cluster(params);
  AlgorithmOptions half;
  half.switch_fill_fraction = 0.25;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel, half);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_TRUE(s.switched);
    EXPECT_EQ(s.partial_records_sent, 250);  // M * 0.25
  }
}

TEST(AdaptiveTwoPhase, LocalTableNeverSpillsLocally) {
  // A-2P's point is to avoid local intermediate I/O entirely: local
  // overflow turns into repartitioning, so only the *global* phase may
  // spill. With M large enough globally (G/N < M), no spill at all.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 1'600));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/512));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 4);  // 1600 local groups > 512
  // G/N = 400 < 512: global tables fit, so nothing spilled anywhere.
  EXPECT_EQ(run.total_spilled_records(), 0);
}

// --------------------------------------------------------------------------
// Adaptive Repartitioning (§3.3).

TEST(AdaptiveRepartitioning, SticksWithRepartitioningWhenGroupsAreMany) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 12'000, 6'000));
  SystemParams params = SmallClusterParams(4, 12'000, 512);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 1'000;
  opts.few_groups_threshold = 400;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), f.spec,
      f.rel, opts);
  ASSERT_OK(run.status);
  EXPECT_EQ(run.nodes_switched(), 0);
  int64_t raw = 0, partial = 0;
  for (const auto& s : run.node_stats) {
    raw += s.raw_records_sent;
    partial += s.partial_records_sent;
  }
  EXPECT_EQ(raw, 12'000);
  EXPECT_EQ(partial, 0);
}

TEST(AdaptiveRepartitioning, SwitchesToTwoPhaseWhenGroupsAreFew) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 12'000, 20));
  SystemParams params = SmallClusterParams(4, 12'000, 512);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 1'000;
  opts.few_groups_threshold = 400;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), f.spec,
      f.rel, opts);
  ASSERT_OK(run.status);
  // Every node sees only 20 groups in its first 1000 tuples -> all
  // switch.
  EXPECT_EQ(run.nodes_switched(), 4);
  for (const auto& s : run.node_stats) {
    // Only the initial segment went out raw.
    EXPECT_LE(s.raw_records_sent, opts.init_seg + kPollInterval);
    EXPECT_GT(s.partial_records_sent, 0);
  }
}

TEST(AdaptiveRepartitioning, EndOfPhasePropagatesAcrossNodes) {
  // Give only node 0 few groups locally (the others would not switch on
  // their own within init_seg); node 0's end-of-phase must pull the
  // others out of repartitioning too (§3.3 "follow suit").
  Schema schema = MakeBenchSchema(100);
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       PartitionedRelation::Create(schema, 4));
  Prng prng(5);
  TupleBuffer t(&schema);
  const int64_t per_node = 4'000;
  for (int node = 0; node < 4; ++node) {
    for (int64_t i = 0; i < per_node; ++i) {
      // Node 0: a single group. Others: thousands of groups.
      uint64_t g = node == 0 ? 0 : 10 + prng.NextBelow(3'000);
      t.SetInt64(kBenchGroupCol, static_cast<int64_t>(g));
      t.SetInt64(kBenchValueCol, static_cast<int64_t>(g % 97));
      ASSERT_OK(rel.Append(node, t.view()));
    }
  }
  ASSERT_OK(rel.Flush());
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));

  SystemParams params = SmallClusterParams(4, 4 * per_node, 8'000);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 500;
  opts.few_groups_threshold = 100;
  // Nodes 1-3 sleep 5 ms of wall time at each of their ~31 scan polls,
  // so node 0's end-of-phase message always lands before they finish
  // scanning. Straggling never touches modeled cost.
  ASSERT_OK_AND_ASSIGN(opts.fault_plan,
                       FaultPlan::Parse("straggle:node=1,factor=5;"
                                        "straggle:node=2,factor=5;"
                                        "straggle:node=3,factor=5"));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), spec, rel,
      opts);
  ASSERT_OK(run.status);
  EXPECT_TRUE(run.node_stats[0].switched);
  // Every other node must have followed suit via the message (none can
  // decide locally: each sees ~500 distinct groups in 500 tuples, far
  // above the threshold of 100).
  int followers = 0;
  for (int i = 1; i < 4; ++i) {
    if (run.node_stats[i].switched) ++followers;
  }
  EXPECT_EQ(followers, 3);
  // Correctness under the mixed-mode execution.
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
}

TEST(AdaptiveRepartitioning, DoubleSwitchWhenDecisionWasWrong) {
  // A-Rep composes both adaptive behaviors (§3.3): a node that switches
  // to local aggregation but then overflows its table flushes partials
  // and returns to repartitioning. Provoke it: few distinct groups in
  // the first init_seg tuples, many afterwards.
  Schema schema = MakeBenchSchema(100);
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel,
                       PartitionedRelation::Create(schema, 2));
  Prng prng(99);
  TupleBuffer t(&schema);
  const int64_t per_node = 6'000;
  for (int node = 0; node < 2; ++node) {
    for (int64_t i = 0; i < per_node; ++i) {
      // First third: 5 groups. Rest: thousands.
      uint64_t g = i < per_node / 3 ? i % 5 : 100 + prng.NextBelow(3'000);
      t.SetInt64(kBenchGroupCol, static_cast<int64_t>(g));
      t.SetInt64(kBenchValueCol, static_cast<int64_t>(g % 101));
      ASSERT_OK(rel.Append(node, t.view()));
    }
  }
  ASSERT_OK(rel.Flush());
  ASSERT_OK_AND_ASSIGN(AggregationSpec spec, MakeBenchQuery(&rel.schema()));

  SystemParams params = SmallClusterParams(2, 2 * per_node, /*M=*/64);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 500;
  opts.few_groups_threshold = 50;
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveRepartitioning), spec, rel,
      opts);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_TRUE(s.switched);  // switched to local aggregation first...
    // ...then the 3000-group tail overflowed M=64 and went raw again:
    // raw records well beyond the init segment alone.
    EXPECT_GT(s.raw_records_sent, opts.init_seg + 1'000);
    EXPECT_GT(s.partial_records_sent, 0);
  }
  ASSERT_OK_AND_ASSIGN(ResultSet expected, ReferenceAggregate(spec, rel));
  EXPECT_TRUE(ResultSetsEqual(run.results, expected));
}

// --------------------------------------------------------------------------
// Graefe's optimized Two Phase.

TEST(GraefeTwoPhase, ForwardsRawOnOverflowAndKeepsTable) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 4'000));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/128));
  RunResult run = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kGraefeTwoPhase), f.spec, f.rel);
  ASSERT_OK(run.status);
  for (const auto& s : run.node_stats) {
    EXPECT_TRUE(s.switched);
    EXPECT_GT(s.raw_records_sent, 0);
    // Table kept until the end: exactly M partials emitted afterwards.
    EXPECT_EQ(s.partial_records_sent, 128);
  }
}

TEST(GraefeTwoPhase, MoreTrafficThanAdaptiveTwoPhase) {
  // §3.2's argument 2: Graefe's optimization still routes the *hits* of
  // late tuples through the local table but misses go raw; every raw
  // record that finds no entry at the destination cost a message for
  // nothing. A-2P sends raw records too, but frees memory and avoids the
  // double pass. At minimum, the two should produce identical results
  // while Graefe's local tables hold memory the whole time.
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 8'000, 4'000));
  Cluster cluster(SmallClusterParams(4, 8'000, /*M=*/128));
  RunResult graefe = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kGraefeTwoPhase), f.spec, f.rel);
  RunResult a2p = cluster.Run(
      *MakeAlgorithm(AlgorithmKind::kAdaptiveTwoPhase), f.spec, f.rel);
  ASSERT_OK(graefe.status);
  ASSERT_OK(a2p.status);
  EXPECT_TRUE(ResultSetsEqual(graefe.results, a2p.results));
}

}  // namespace
}  // namespace adaptagg
