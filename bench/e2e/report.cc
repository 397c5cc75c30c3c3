#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>

namespace adaptagg {
namespace e2e {

double NowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int64_t> HostCpuTicks() {
  std::vector<int64_t> ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return ticks;
  int64_t value = 0;
  while (ticks.size() < 8 && stat >> value) ticks.push_back(value);
  return ticks;
}

double StealShare(const std::vector<int64_t>& before,
                  const std::vector<int64_t>& after) {
  // Fields: user nice system idle iowait irq softirq steal.
  constexpr size_t kSteal = 7;
  if (before.size() <= kSteal || after.size() <= kSteal) return 0;
  int64_t total = 0;
  for (size_t i = 0; i <= kSteal; ++i) total += after[i] - before[i];
  return total > 0 ? static_cast<double>(after[kSteal] - before[kSteal]) /
                         static_cast<double>(total)
                   : 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

LoopFigures Summarize(const Samples& samples,
                      const std::vector<int64_t>& ticks_before) {
  LoopFigures f;
  f.queries = samples.queries();
  if (f.queries == 0) return f;
  double cpu = 0, wall = 0;
  for (double s : samples.cpu_s) cpu += s;
  for (double s : samples.wall_s) wall += s;
  f.cpu_p50_ms = Percentile(samples.cpu_s, 0.5) * 1e3;
  f.cpu_p90_ms = Percentile(samples.cpu_s, 0.9) * 1e3;
  f.cpu_ms_per_query = cpu * 1e3 / static_cast<double>(f.queries);
  f.wall_p50_ms = Percentile(samples.wall_s, 0.5) * 1e3;
  f.wall_p90_ms = Percentile(samples.wall_s, 0.9) * 1e3;
  f.tuples_per_s =
      wall > 0 ? static_cast<double>(samples.tuples_answered) / wall : 0;
  f.steal = StealShare(ticks_before, HostCpuTicks());
  return f;
}

void PrintLoop(const LoopFigures& f) {
  std::printf("timed loop: %zu queries; wall clock, not gated: p50 %.2f ms, "
              "p90 %.2f ms, %.4g tuples/s, host steal %.1f%%\n",
              f.queries, f.wall_p50_ms, f.wall_p90_ms, f.tuples_per_s,
              f.steal * 100);
}

double TraceOverheadPct(const Samples& traced, const Samples& untraced) {
  const double base = Median(untraced.cpu_s);
  return base > 0 ? (Median(traced.cpu_s) / base - 1) * 100 : 0;
}

void RunOutcome::Record(const std::string& what, const Status& run,
                        const Status& check) {
  ++attempted;
  if (!run.ok()) {
    ++failed;
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(),
                 run.ToString().c_str());
  } else if (!check.ok()) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "WRONG %s: %s\n", what.c_str(),
                 check.ToString().c_str());
  }
}

std::string RunOutcome::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    // %.17g keeps every digit; non-finite values are not valid JSON.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
}  // namespace adaptagg
