// End-to-end and per-layer benchmark of the aggregation engine (see
// README.md). One process runs one workload:
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// and prints, as the last line of standard output, one JSON object with
// the operations it attempted and failed and its metrics: the
// end-to-end ones with --trace 0, the per-layer ones with --trace 1
// (which also writes a Chrome trace and the layer table to DIR).

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "drivers.h"

namespace adaptagg {
namespace e2e {

void WriteOutput(const RunArgs& args, const std::string& file,
                 const std::string& text) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/" + file;
  std::ofstream os(path);
  os << text;
  if (!os) std::fprintf(stderr, "could not write %s\n", path.c_str());
}

void WriteLayerTable(const RunArgs& args, const RunOutcome& out) {
  std::string text;
  for (const Metric& m : out.metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %14.4f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    text += line;
  }
  std::printf("%s", text.c_str());
  WriteOutput(args, std::string(args.config->name) + ".layers.txt", text);
}

namespace {

/// Restricts this process, and every thread it starts later, to the
/// last CPU it may run on. The node threads then take turns on one CPU,
/// so a query's CPU time is its work: on a shared host, how much they
/// overlap follows the neighbours' load, and overlap itself costs CPU
/// (README.md, "Why one CPU").
bool PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) last = cpu;
  }
  if (last < 0) return false;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload %s --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               argv0, WorkloadNames().c_str());
  return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace adaptagg

int main(int argc, char** argv) {
  using adaptagg::e2e::RunArgs;
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.config = adaptagg::e2e::FindWorkload(value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
      have_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
      have_trace = args.trace || std::string(value) == "0";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return adaptagg::e2e::Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.config == nullptr || !have_seed ||
      !have_seconds || !have_trace) {
    return adaptagg::e2e::Usage(argv[0]);
  }
  if (!adaptagg::e2e::PinToOneCpu()) {
    std::perror("could not restrict the process to one CPU");
    return 1;
  }
  const adaptagg::e2e::RunOutcome out =
      args.config->served ? adaptagg::e2e::RunServed(args)
                          : adaptagg::e2e::RunOneShot(args);
  std::printf("%s\n", out.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
