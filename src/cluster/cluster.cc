#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "cluster/gather_sink.h"
#include "cluster/recovery.h"
#include "cluster/run_assembly.h"
#include "common/logging.h"
#include "common/simd.h"
#include "model/recovery_model.h"
#include "net/fault.h"

namespace adaptagg {

Cluster::Cluster(SystemParams params) : params_(std::move(params)) {
  transport_factory_ =
      [](int n) -> Result<std::vector<std::unique_ptr<Transport>>> {
    return MakeInprocMesh(n);
  };
}

RunResult Cluster::Run(const Algorithm& algo, const AggregationSpec& spec,
                       PartitionedRelation& rel, AlgorithmOptions options) {
  RunResult result;
  result.query_id = options.query_id;
  const int n = params_.num_nodes;
  if (rel.num_nodes() != n) {
    result.status = Status::InvalidArgument(
        "relation has " + std::to_string(rel.num_nodes()) +
        " partitions but cluster has " + std::to_string(n) + " nodes");
    return result;
  }

  // Predicates are validated once, up front, against the schemas they
  // will be evaluated on.
  result.status = ValidateRunOptions(spec, options);
  if (!result.status.ok()) return result;

  // Resolve the recovery configuration once per run. The checkpoint
  // store outlives the attempt loop so a replay can read what the
  // crashed attempt wrote; its disks are private to the store, so
  // checkpoint I/O never perturbs the modeled node disks.
  std::unique_ptr<RecoveryRuntime> recovery;
  int max_attempts = 1;
  int64_t ckpt_every = 0;
  if (options.recovery.enabled) {
    ckpt_every = options.recovery.checkpoint_every_batches;
    if (ckpt_every < 0) {
      const int64_t est_groups = options.max_hash_entries > 0
                                     ? options.max_hash_entries
                                     : params_.max_hash_entries;
      ckpt_every = DecideCheckpointInterval(params_, est_groups,
                                            spec.partial_width())
                       .every_batches;
    }
    recovery = std::make_unique<RecoveryRuntime>(
        n, static_cast<int>(params_.page_bytes), ckpt_every,
        MakeCheckpointDiskFactory(options.fault_plan,
                                  static_cast<int>(params_.page_bytes)));
    max_attempts = std::max(1, options.recovery.max_attempts);
  }

  // One wall epoch for the whole run so all nodes' trace wall timelines
  // share an origin.
  const double wall_epoch_s = WallSeconds();
  const auto run_start = std::chrono::steady_clock::now();
  std::vector<double> attempt_wall_s;

  // Each attempt is a complete execution over fresh transports, network
  // model, gather sink, and node contexts; only an injected crash earns
  // a retry, and the consumed crash specs are pruned so the replay runs
  // them clean. Everything the final attempt produced is what the run
  // reports.
  for (int attempt = 1;; ++attempt) {
    Result<std::vector<std::unique_ptr<Transport>>> transports =
        transport_factory_(n);
    if (!transports.ok()) {
      result.status = transports.status();
      return result;
    }
    // Fault injection wraps each endpoint in a decorator only when the
    // plan is non-empty: fault-free runs keep the raw transports and the
    // exact message flow of builds without this subsystem.
    const bool inject_faults = !options.fault_plan.empty();
    if (inject_faults) {
      for (int i = 0; i < n; ++i) {
        (*transports)[static_cast<size_t>(i)] =
            std::make_unique<FaultyTransport>(
                std::move((*transports)[static_cast<size_t>(i)]),
                options.fault_plan);
      }
    }

    rel.ResetDiskStats();
    NetworkModel net(params_);

    GatherSink gathered;
    std::vector<std::unique_ptr<NodeContext>> contexts;
    contexts.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      contexts.push_back(std::make_unique<NodeContext>(
          i, params_, spec, options, &rel.partition(i), &rel.disk(i),
          (*transports)[static_cast<size_t>(i)].get(), &net, wall_epoch_s));
      contexts.back()->SetGather(&gathered);
      if (recovery != nullptr) {
        contexts.back()->SetRecovery(&recovery->node(i));
      }
      if (inject_faults) {
        static_cast<FaultyTransport*>(
            (*transports)[static_cast<size_t>(i)].get())
            ->set_observer(
                MakeFaultObserver(&contexts.back()->obs()));
      }
    }

    // Resolve the SIMD dispatch before any node thread touches a batch
    // kernel and pin the outcome into the coordinator's trace: one
    // instant per run, so a trace always says which code path produced
    // it.
    contexts.front()->obs().RecordDecision(
        "simd.dispatch",
        {{"kind", static_cast<int64_t>(simd::ActiveDispatch())},
         {"forced_scalar", simd::ForcedScalar() ? 1 : 0}});
    if (recovery != nullptr) {
      // Wall-clock-only decision: recorded as an instant, charged to no
      // clock, so the modeled plan is identical with recovery on or off.
      contexts.front()->obs().RecordDecision(
          "recovery.checkpoint_interval",
          {{"every_batches", ckpt_every},
           {"max_attempts", max_attempts},
           {"attempt", attempt}});
    }

    std::vector<Status> statuses(static_cast<size_t>(n));
    FailureFanout fanout;
    const auto attempt_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
          NodeContext& ctx = *contexts[static_cast<size_t>(i)];
          Status st = algo.RunNode(ctx);
          if (!st.ok()) fanout.OnNodeFailure(ctx);
          statuses[static_cast<size_t>(i)] = st;
        });
      }
      for (auto& t : threads) t.join();
    }
    const auto attempt_end = std::chrono::steady_clock::now();
    attempt_wall_s.push_back(
        std::chrono::duration<double>(attempt_end - attempt_start).count());

    result.status = PickRootCause(statuses);

    // Retry only injected-crash failures; any other error (a real abort,
    // a timeout with no crash, data loss) keeps the clean-abort path.
    bool any_crashed = false;
    for (const auto& ctx : contexts) any_crashed |= ctx->crashed();
    if (!result.status.ok() && any_crashed && recovery != nullptr &&
        attempt < max_attempts) {
      // Consume the crash specs that fired — the first matching spec per
      // crashed node, mirroring CrashForNode — so the replay does not
      // re-crash and a double-crash plan terminates.
      auto& fs = options.fault_plan.faults;
      for (int i = 0; i < n; ++i) {
        if (!contexts[static_cast<size_t>(i)]->crashed()) continue;
        for (auto it = fs.begin(); it != fs.end(); ++it) {
          if (it->kind == FaultKind::kCrash && it->node == i) {
            fs.erase(it);
            break;
          }
        }
      }
      continue;
    }

    // Final attempt: surface the recovery story on the coordinator's
    // shard (only this attempt's shards reach the merged snapshot).
    if (recovery != nullptr) {
      NodeObs& obs = contexts.front()->obs();
      obs.recovery_attempts.Add(attempt - 1);
      for (double s : attempt_wall_s) {
        obs.recovery_attempt_wall_us.Observe(s * 1e6);
      }
    }
    const auto run_end = std::chrono::steady_clock::now();
    result.wall_time_s =
        std::chrono::duration<double>(run_end - run_start).count();
    FinalizeRunResult(contexts, net, gathered, spec, result);
    return result;
  }
}

}  // namespace adaptagg
