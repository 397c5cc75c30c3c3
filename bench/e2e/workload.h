// Workloads of the end-to-end benchmark: their relations, query shapes,
// seeded tuple source, and the independent correctness oracle.
//
// The oracle shares no code with src/agg: while a relation loads, it
// tallies every group's COUNT, SUM, MIN and MAX of `v` under each WHERE
// filter the query mixes use, and checks each answer against that tally
// row by row (an exact multiset comparison keyed on the group id).

#ifndef ADAPTAGG_BENCH_E2E_WORKLOAD_H_
#define ADAPTAGG_BENCH_E2E_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "agg/reference.h"
#include "common/result.h"
#include "core/query.h"
#include "storage/partitioned_relation.h"

namespace adaptagg {
namespace e2e {

/// Shape and size of one workload's relation and cluster.
struct WorkloadConfig {
  const char* name;
  /// Served through a resident ClusterService (else one-shot
  /// Query::Execute runs).
  bool served;
  int nodes;
  int64_t tuples;
  int64_t groups;
  /// Hash table bound M per node (Table 1: 10,000).
  int64_t max_hash_entries;
  /// Nominal wall seconds of one round of the workload's query mix. A
  /// run converts --seconds into a fixed number of rounds with it, so
  /// every run of a workload does the same work however fast the host
  /// is (README.md gives the wall time of a run).
  double nominal_round_s;
};

/// Untimed rounds before the timed loop: about a second of the mix, so
/// lazy set-up, allocator growth and clock ramp-up finish first.
int64_t WarmupRounds(const WorkloadConfig& config);

/// Timed rounds of a run of `seconds`: at least `min_queries` queries
/// of `queries_per_round` each.
int64_t TimedRounds(const WorkloadConfig& config, double seconds,
                    int64_t queries_per_round, double min_queries);

/// The workload named `name`, or nullptr.
const WorkloadConfig* FindWorkload(const std::string& name);

/// Names of every workload, for usage messages.
std::string WorkloadNames();

/// The WHERE filters the oracle tallies: filter 0 admits every tuple,
/// filter f > 0 admits `v < FilterBound(f)`.
inline constexpr int kNumFilters = 4;
int64_t FilterBound(int filter);

/// Measure values are drawn uniformly from [0, kValueRange).
inline constexpr int64_t kValueRange = 100'000;

/// One query shape of a workload's mix: `SELECT g, COUNT(*) AS cnt,
/// aggs FROM R [WHERE v < bound] GROUP BY g`. The COUNT column can carry
/// a HAVING tag.
struct Shape {
  const char* label;
  int filter;
  /// Aggregates after the leading COUNT(*), each over `v`.
  std::vector<AggKind> value_aggs;
};

/// Builds the query of `shape` over the bench schema. A positive `tag`
/// adds `HAVING cnt > -tag`, which every group passes: it changes the
/// query's fingerprint (a fresh literal misses the result cache) but
/// never its rows.
Result<Query> BuildQuery(const Schema* schema, const Shape& shape,
                         int64_t tag);

/// Deterministic tuple stream of one seed: group ids uniform in
/// [0, groups), values uniform in [0, kValueRange).
class TupleSource {
 public:
  TupleSource(uint64_t seed, int64_t groups);
  void Next(int64_t* group, int64_t* value);

 private:
  uint64_t NextWord();

  uint64_t state_;
  uint64_t groups_;
};

/// Per-group tallies under every filter, kept while tuples load.
class Oracle {
 public:
  explicit Oracle(int64_t groups);

  void Add(int64_t group, int64_t value);

  /// Tuples admitted by `filter`.
  int64_t qualifying(int filter) const {
    return qualifying_[static_cast<size_t>(filter)];
  }

  /// Compares `rows` (the answer of `shape`) with the tally: every row
  /// must equal its group's expected row, no group may repeat, and
  /// every non-empty group must appear. Also checks that the COUNT
  /// column sums to the number of qualifying tuples.
  Status Check(const Shape& shape, const ResultSet& rows) const;

 private:
  struct Tally {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = std::numeric_limits<int64_t>::max();
    int64_t max = std::numeric_limits<int64_t>::min();
    void Add(int64_t v);
    int64_t Value(AggKind kind) const;
  };

  const Tally& At(int filter, int64_t group) const {
    return tallies_[static_cast<size_t>(filter * groups_ + group)];
  }

  int64_t groups_;
  std::vector<Tally> tallies_;  // [filter][group]
  std::array<int64_t, kNumFilters> qualifying_{};
  std::array<int64_t, kNumFilters> nonempty_groups_{};
};

/// Order-independent digest of a result set's rows (row count plus sum
/// and xor of per-row hashes): equal digests mean equal row multisets
/// with overwhelming probability. Used to compare algorithms, served
/// and one-shot answers, and recovered and fault-free answers with each
/// other, independently of the oracle.
struct RowDigest {
  int64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xr = 0;
  bool operator==(const RowDigest& o) const {
    return rows == o.rows && sum == o.sum && xr == o.xr;
  }
  bool operator!=(const RowDigest& o) const { return !(*this == o); }
};
RowDigest DigestOf(const ResultSet& rows);

/// True when `a` and `b` hold the same rows byte for byte, in any order.
/// Rows are keyed by their leading group id in [0, groups).
bool SameRows(const ResultSet& a, const ResultSet& b, int64_t groups);

/// A loaded relation and its oracle.
struct Loaded {
  std::unique_ptr<PartitionedRelation> rel;
  std::unique_ptr<Oracle> oracle;
  std::unique_ptr<TupleSource> source;
};

/// Generates `config`'s relation from `seed`, placing tuples round-robin
/// over the nodes, and tallies it into a fresh oracle.
Result<Loaded> LoadRelation(const WorkloadConfig& config, uint64_t seed);

/// Appends `count` more tuples from the loaded source to `node`'s
/// partition (bumping the relation version) and tallies them.
Status AppendTuples(Loaded* loaded, int node, int count);

/// The Table 1 system parameters sized to `config`.
SystemParams ParamsFor(const WorkloadConfig& config, int64_t tuples);

}  // namespace e2e
}  // namespace adaptagg

#endif  // ADAPTAGG_BENCH_E2E_WORKLOAD_H_
