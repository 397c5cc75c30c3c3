// The two workload drivers of the end-to-end benchmark: one-shot runs
// through Query::Execute and served runs through ClusterService::Submit.

#ifndef ADAPTAGG_BENCH_E2E_DRIVERS_H_
#define ADAPTAGG_BENCH_E2E_DRIVERS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "workload.h"

namespace adaptagg {
namespace e2e {

/// Command-line settings of one run.
struct RunArgs {
  const WorkloadConfig* config = nullptr;
  uint64_t seed = 1;
  /// Nominal length of the timed loop, converted into a fixed number
  /// of rounds (TimedRounds).
  double seconds = 10;
  /// Traced-run mode: report the per-layer metrics instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its Chrome trace and layer table.
  std::string out_dir;
};

/// Set-ups repeated for the median `setup_s`. The first one runs on a
/// cold allocator and costs more; the median passes over it.
inline constexpr int kSetups = 7;

/// Rounds of crashed-and-recovered queries at the end of a run (five
/// queries each; `recover_cpu_ms` is their median).
inline constexpr int kCrashRounds = 4;

/// The fault every crash query injects: node 1 fails as it enters the
/// merge phase; recovery with cost-modelled checkpoints replays it.
inline constexpr char kCrashPlan[] = "crash:node=1,phase=merge";

/// Timed queries a run makes at least, so that ten lie beyond the 90th
/// percentile.
inline constexpr int64_t kMinTimedQueries = 100;

RunOutcome RunOneShot(const RunArgs& args);
RunOutcome RunServed(const RunArgs& args);

/// Writes `text` to `<out_dir>/<file>` (no-op when out_dir is empty).
void WriteOutput(const RunArgs& args, const std::string& file,
                 const std::string& text);

/// Writes the metrics of `out` as a `name value unit` table.
void WriteLayerTable(const RunArgs& args, const RunOutcome& out);

}  // namespace e2e
}  // namespace adaptagg

#endif  // ADAPTAGG_BENCH_E2E_DRIVERS_H_
