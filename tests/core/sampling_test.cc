#include <gtest/gtest.h>

#include "core/query.h"
#include "model/sampling_model.h"
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

TEST(RequiredSampleSize, MatchesPaperExample) {
  // §3.1: threshold 320 -> approximately 2563 samples (~10x threshold).
  int64_t samples = RequiredSampleSize(320);
  EXPECT_GE(samples, 2'300);
  EXPECT_LE(samples, 2'900);
  EXPECT_GT(RequiredSampleSize(3'200), RequiredSampleSize(320));
  EXPECT_GE(RequiredSampleSize(1), 1);
}

TEST(DefaultCrossoverThreshold, ScalesWithProcessors) {
  EXPECT_EQ(DefaultCrossoverThreshold(32), 3'200);
  EXPECT_EQ(DefaultCrossoverThreshold(8), 800);
}

TEST(Sampling, ChoosesTwoPhaseForFewGroups) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 20'000, 10));
  Cluster cluster(SmallClusterParams(4, 20'000));
  AlgorithmOptions opts;
  opts.crossover_threshold = 200;
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  // The Two Phase body never ships raw tuples.
  int64_t raw = 0, partial = 0;
  for (const auto& s : run.node_stats) {
    raw += s.raw_records_sent;
    partial += s.partial_records_sent;
  }
  EXPECT_EQ(raw, 0);
  EXPECT_GT(partial, 0);
}

TEST(Sampling, ChoosesRepartitioningForManyGroups) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 20'000, 10'000));
  Cluster cluster(SmallClusterParams(4, 20'000));
  AlgorithmOptions opts;
  opts.crossover_threshold = 200;
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  int64_t raw = 0;
  for (const auto& s : run.node_stats) raw += s.raw_records_sent;
  EXPECT_EQ(raw, 20'000) << "Repartitioning ships every tuple";
}

TEST(Sampling, AggregateWithoutGroupByMatchesTwoPhase) {
  // No GROUP BY means one group: Sampling runs the Two Phase body
  // without sampling (a zero-width key cannot travel the sample
  // exchange).
  WorkloadSpec wspec;
  wspec.num_nodes = 2;
  wspec.num_tuples = 20'000;
  wspec.num_groups = 100;
  ASSERT_OK_AND_ASSIGN(PartitionedRelation rel, GenerateRelation(wspec));
  ASSERT_OK_AND_ASSIGN(
      Query query,
      QueryBuilder(&rel.schema()).Count("cnt").Sum("v", "s").Build());
  AlgorithmOptions opts;
  opts.gather_results = true;
  Cluster cluster(SmallClusterParams(2, 20'000));
  RunResult two_phase =
      query.Execute(cluster, rel, AlgorithmKind::kTwoPhase, opts);
  ASSERT_OK(two_phase.status);
  RunResult sampling =
      query.Execute(cluster, rel, AlgorithmKind::kSampling, opts);
  ASSERT_OK(sampling.status);
  EXPECT_EQ(sampling.results.num_rows(), 1);
  EXPECT_TRUE(ResultSetsEqual(sampling.results, two_phase.results, 0.0));
}

TEST(Sampling, RandomPageReadsAreCharged) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 20'000, 500));
  Cluster cluster(SmallClusterParams(4, 20'000));
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel);
  ASSERT_OK(run.status);
  // Sampling reads pages out of order: random read counters move.
  int64_t rand_reads = 0;
  for (int i = 0; i < 4; ++i) {
    rand_reads += f.rel.disk(i).stats().pages_read_rand;
  }
  EXPECT_GT(rand_reads, 0);
}

TEST(Sampling, ExplicitSampleSizeHonored) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 20'000, 10'000));
  Cluster cluster(SmallClusterParams(4, 20'000));
  AlgorithmOptions opts;
  opts.crossover_threshold = 50;
  opts.sample_size = 400;  // 100 tuples/node: still plenty to see 50
  RunResult run = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                              f.spec, f.rel, opts);
  ASSERT_OK(run.status);
  int64_t raw = 0;
  for (const auto& s : run.node_stats) raw += s.raw_records_sent;
  EXPECT_EQ(raw, 20'000);
}

TEST(Sampling, DeterministicDecisionAcrossRuns) {
  ASSERT_OK_AND_ASSIGN(Fixture f, MakeFixture(4, 10'000, 900));
  Cluster cluster(SmallClusterParams(4, 10'000));
  AlgorithmOptions opts;
  opts.crossover_threshold = 400;
  opts.seed = 7;
  RunResult a = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                            f.spec, f.rel, opts);
  RunResult b = cluster.Run(*MakeAlgorithm(AlgorithmKind::kSampling),
                            f.spec, f.rel, opts);
  ASSERT_OK(a.status);
  ASSERT_OK(b.status);
  int64_t raw_a = 0, raw_b = 0;
  for (const auto& s : a.node_stats) raw_a += s.raw_records_sent;
  for (const auto& s : b.node_stats) raw_b += s.raw_records_sent;
  EXPECT_EQ(raw_a, raw_b);
}

}  // namespace
}  // namespace adaptagg
