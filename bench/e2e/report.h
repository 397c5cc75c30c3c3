// Measurement helpers of the end-to-end benchmark: wall and CPU clocks,
// order statistics, the process's peak resident set, and the one-line
// JSON result the driver reads.

#ifndef ADAPTAGG_BENCH_E2E_REPORT_H_
#define ADAPTAGG_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace adaptagg {
namespace e2e {

/// Monotonic wall clock in seconds.
double NowSeconds();

/// CPU time all threads of this process have used so far (user +
/// system, threads that have exited included), in seconds. The
/// end-to-end times are CPU times: on a shared VM the hypervisor steals
/// CPU from the guest, and wall time follows the neighbours' load while
/// CPU time does not count the stolen share.
double ProcessCpuSeconds();

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

/// Host-wide CPU tick counters from /proc/stat (empty when unreadable).
std::vector<int64_t> HostCpuTicks();

/// Share of the host's CPU time stolen by the hypervisor between two
/// HostCpuTicks readings (0 when unknown).
double StealShare(const std::vector<int64_t>& before,
                  const std::vector<int64_t>& after);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// samples at or below it (q in (0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q);

/// Wall and process CPU time of one query, taken one query at a time,
/// so that the process's CPU time in between is the query's own.
class QueryClock {
 public:
  QueryClock() : wall_s_(NowSeconds()), cpu_s_(ProcessCpuSeconds()) {}
  double wall_s() const { return NowSeconds() - wall_s_; }
  double cpu_s() const { return ProcessCpuSeconds() - cpu_s_; }

 private:
  double wall_s_;
  double cpu_s_;
};

/// Per-query samples of a sequence of rounds.
struct Samples {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  int64_t tuples_answered = 0;

  void Add(const QueryClock& clock, int64_t tuples) {
    wall_s.push_back(clock.wall_s());
    cpu_s.push_back(clock.cpu_s());
    tuples_answered += tuples;
  }
  size_t queries() const { return cpu_s.size(); }
};

/// Figures of a timed loop: the end-to-end CPU times, and the wall-clock
/// ones, which are printed beside the host's steal share but not gated.
struct LoopFigures {
  size_t queries = 0;
  double cpu_p50_ms = 0;
  double cpu_p90_ms = 0;
  double cpu_ms_per_query = 0;
  double wall_p50_ms = 0;
  double wall_p90_ms = 0;
  double tuples_per_s = 0;
  /// Host steal share while the loop ran.
  double steal = 0;
};

/// Summarises `samples`; `ticks_before` are HostCpuTicks from the start
/// of the loop.
LoopFigures Summarize(const Samples& samples,
                      const std::vector<int64_t>& ticks_before);

/// Prints the loop's sample count, its wall-clock figures and the
/// host's steal share on one line.
void PrintLoop(const LoopFigures& f);

/// Median CPU time per query of `traced` over that of `untraced`, less
/// one, in percent: the cost of tracing.
double TraceOverheadPct(const Samples& traced, const Samples& untraced);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one workload run: the operation counts and metrics the
/// driver reads from the last line of standard output.
struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  /// Counts one operation. An operation fails when the program reports
  /// an error (`run` not OK) or when its answer fails a check; only the
  /// latter clears `correct`, which speaks of the answers the program
  /// did return. Prints the cause of a failure to stderr.
  void Record(const std::string& what, const Status& run,
              const Status& check);

  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  std::string ToJson() const;
};

}  // namespace e2e
}  // namespace adaptagg

#endif  // ADAPTAGG_BENCH_E2E_REPORT_H_
