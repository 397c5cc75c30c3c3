#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/node_context.h"
#include "core/phases.h"
#include "net/fault.h"
#include "net/transport.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

// ---------------------------------------------------------------------
// The no-perturbation contract: checkpointing is wall-clock-only work on
// dedicated disks, so a fault-free run with recovery ON must be
// bit-identical — modeled time, adaptive switches, result rows — to the
// same run with recovery OFF.

class RecoveryParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec wspec;
    wspec.num_nodes = 3;
    wspec.num_tuples = 9'000;
    wspec.num_groups = 300;
    ASSERT_OK_AND_ASSIGN(rel_, GenerateRelation(wspec));
    auto spec = MakeBenchQuery(&rel_->schema());
    ASSERT_TRUE(spec.ok());
    spec_ = std::make_unique<AggregationSpec>(std::move(spec).value());
    params_ = SmallClusterParams(3, wspec.num_tuples, 256);
  }

  RunResult RunWith(AlgorithmKind kind, bool recovery,
                    int64_t every_batches) {
    Cluster cluster(params_);
    AlgorithmOptions opts;
    opts.gather_results = true;
    opts.recovery.enabled = recovery;
    opts.recovery.checkpoint_every_batches = every_batches;
    return cluster.Run(*MakeAlgorithm(kind), *spec_, *rel_, opts);
  }

  std::optional<PartitionedRelation> rel_;
  std::unique_ptr<AggregationSpec> spec_;
  SystemParams params_;
};

TEST_F(RecoveryParityTest, FaultFreeRunsAreBitIdenticalWithCheckpointing) {
  const AlgorithmKind kinds[] = {
      AlgorithmKind::kTwoPhase, AlgorithmKind::kRepartitioning,
      AlgorithmKind::kAdaptiveTwoPhase, AlgorithmKind::kSampling};
  for (AlgorithmKind kind : kinds) {
    SCOPED_TRACE(AlgorithmKindToString(kind));
    RunResult off = RunWith(kind, /*recovery=*/false, 0);
    RunResult on = RunWith(kind, /*recovery=*/true, /*every_batches=*/4);
    ASSERT_OK(off.status);
    ASSERT_OK(on.status);
    // Same modeled outcome: same adaptive switches, byte-identical
    // result rows, and clock totals equal to within the ~1e-15
    // summation-order jitter that two identical one-shot runs already
    // show (totals are double sums accumulated in message arrival
    // order; see the serving-layer parity test).
    EXPECT_NEAR(off.sim_time_s, on.sim_time_s, 1e-9);
    EXPECT_NEAR(off.wire_time_s, on.wire_time_s, 1e-9);
    EXPECT_EQ(off.nodes_switched(), on.nodes_switched());
    EXPECT_TRUE(ResultSetsEqual(off.results, on.results));
    // And the checkpointing actually happened on the recovery side.
    EXPECT_GT(on.metrics.Value("recovery.checkpoints_written"), 0);
    EXPECT_EQ(off.metrics.Value("recovery.checkpoints_written"), 0);
  }
}

TEST_F(RecoveryParityTest, AutoCadenceAlsoLeavesModeledTimeUntouched) {
  RunResult off = RunWith(AlgorithmKind::kTwoPhase, false, 0);
  // -1 asks the cost model (DecideCheckpointInterval) for the cadence.
  RunResult on = RunWith(AlgorithmKind::kTwoPhase, true, -1);
  ASSERT_OK(off.status);
  ASSERT_OK(on.status);
  EXPECT_NEAR(off.sim_time_s, on.sim_time_s, 1e-9);
  EXPECT_TRUE(ResultSetsEqual(off.results, on.results));
}

TEST_F(RecoveryParityTest, CadenceZeroMeansNoCheckpoints) {
  RunResult on = RunWith(AlgorithmKind::kTwoPhase, true, 0);
  ASSERT_OK(on.status);
  EXPECT_EQ(on.metrics.Value("recovery.checkpoints_written"), 0);
}

// ---------------------------------------------------------------------
// Membership-epoch hygiene: a frame stamped with another epoch is a
// stale leftover of a pre-resize mesh and must be dropped on admission,
// before any sequence or aggregation bookkeeping.

TEST(StaleEpochTest, MismatchedEpochFramesAreDroppedOnAdmission) {
  auto mesh = MakeInprocMesh(2);
  SystemParams params = SmallClusterParams(2, 100);
  NetworkModel net(params);
  Schema schema = MakeBenchSchema(32);
  auto spec_or = MakeBenchQuery(&schema);
  ASSERT_TRUE(spec_or.ok());
  AggregationSpec spec = std::move(spec_or).value();

  AlgorithmOptions old_epoch;
  old_epoch.epoch = 1;
  AlgorithmOptions new_epoch;
  new_epoch.epoch = 2;

  NodeContext receiver(1, params, spec, new_epoch, nullptr, nullptr,
                       mesh[1].get(), &net);

  // A sender still living in epoch 1 — its frame must vanish at the
  // receiver without touching sequence state.
  {
    NodeContext stale_sender(0, params, spec, old_epoch, nullptr, nullptr,
                             mesh[0].get(), &net);
    Message m;
    m.type = MessageType::kEndOfStream;
    m.phase = kPhaseData;
    ASSERT_OK(stale_sender.Send(1, std::move(m)));
  }
  // Checked in place: moving the empty optional out of its Result draws
  // a false -Werror=maybe-uninitialized from gcc 12 at -O3.
  Result<std::optional<Message>> dropped = receiver.TryRecv();
  ASSERT_OK(dropped.status());
  EXPECT_FALSE(dropped.value().has_value());
  EXPECT_EQ(receiver.obs().registry().Snapshot().Value(
                "recovery.stale_epoch_dropped"),
            1);

  // A current-epoch sender on the same endpoint gets through — and the
  // stale frame left no sequence-number shadow behind.
  {
    NodeContext live_sender(0, params, spec, new_epoch, nullptr, nullptr,
                            mesh[0].get(), &net);
    Message m;
    m.type = MessageType::kEndOfStream;
    m.phase = kPhaseData;
    ASSERT_OK(live_sender.Send(1, std::move(m)));
  }
  ASSERT_OK_AND_ASSIGN(std::optional<Message> delivered,
                       receiver.TryRecv());
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->type, MessageType::kEndOfStream);
}

}  // namespace
}  // namespace adaptagg
