// Per-layer metrics of the end-to-end benchmark.
//
// Layer timers replay node 0's share of a workload's relation through
// the public functions of one layer at a time, single-threaded and
// after a warm-up pass, and report the median pass. The traced-run
// metrics divide the counters of the program's own observability
// snapshot (AlgorithmOptions::obs) by the work that produced them.

#ifndef ADAPTAGG_BENCH_E2E_LAYERS_H_
#define ADAPTAGG_BENCH_E2E_LAYERS_H_

#include <cstdint>

#include "cluster/cluster.h"
#include "report.h"
#include "workload.h"

namespace adaptagg {
namespace e2e {

/// Times storage scan, WHERE evaluation, local aggregation, partial
/// merge, exchange scatter, wire-page decode and the socket codec on
/// node 0's share of `rel`, and adds one `*_ns_per_*` metric for each.
/// `where` is the WHERE predicate the workload's mix evaluates.
Status AddLayerTimings(const WorkloadConfig& config,
                       PartitionedRelation& rel, const SystemParams& params,
                       const ExprPtr& where, RunOutcome* out);

/// Work that a set of traced runs covered, the denominators of the
/// traced-run metrics.
struct TracedWork {
  /// Queries that ran on the data plane (cache hits excluded).
  int64_t executed_queries = 0;
  /// Merged snapshot of those queries.
  MetricsSnapshot metrics;
  /// Crashed-and-recovered queries, and their merged snapshot.
  int64_t crash_queries = 0;
  MetricsSnapshot crash_metrics;
};

/// Adds the phase, aggregation, network, switch and recovery metrics
/// derived from `work` for a cluster of `nodes` nodes.
void AddTracedMetrics(const TracedWork& work, int nodes, RunOutcome* out);

}  // namespace e2e
}  // namespace adaptagg

#endif  // ADAPTAGG_BENCH_E2E_LAYERS_H_
