#include <gtest/gtest.h>

#include "common/random.h"
#include "common/str_cat.h"
#include "test_util.h"

namespace adaptagg {
namespace {

using testing_util::SmallClusterParams;

// Randomized end-to-end property testing: random schemas, random
// GROUP BY column sets, random aggregate lists, random data
// distributions and cluster shapes — every run of every algorithm must
// match the independent single-threaded oracle bit-for-bit (modulo
// double summation order). Each seed is an independent scenario; the
// suite is deterministic per seed.

struct Scenario {
  Schema schema;
  std::unique_ptr<PartitionedRelation> rel;
  std::unique_ptr<AggregationSpec> spec;
  int num_nodes = 0;
  int64_t max_hash_entries = 0;
};

Result<Scenario> MakeScenario(uint64_t seed) {
  Prng prng(seed);
  Scenario out;

  // Random schema: 2-6 columns, mixed types; at least one int64 for
  // values.
  int num_cols = 2 + static_cast<int>(prng.NextBelow(5));
  std::vector<Field> fields;
  fields.push_back({"c0", DataType::kInt64, 8});  // always a group col
  for (int c = 1; c < num_cols; ++c) {
    Field f;
    f.name = StrCat({"c", std::to_string(c)});
    switch (prng.NextBelow(3)) {
      case 0:
        f.type = DataType::kInt64;
        f.width = 8;
        break;
      case 1:
        f.type = DataType::kDouble;
        f.width = 8;
        break;
      default:
        f.type = DataType::kBytes;
        f.width = 1 + static_cast<int>(prng.NextBelow(12));
        break;
    }
    fields.push_back(std::move(f));
  }
  out.schema = Schema(std::move(fields));

  // Random cluster/workload shape.
  out.num_nodes = 1 + static_cast<int>(prng.NextBelow(5));
  out.max_hash_entries = 16 << prng.NextBelow(6);  // 16..512
  int64_t tuples = 2'000 + static_cast<int64_t>(prng.NextBelow(6'000));
  int64_t groups = 1 + static_cast<int64_t>(prng.NextBelow(2'000));

  ADAPTAGG_ASSIGN_OR_RETURN(
      PartitionedRelation rel,
      PartitionedRelation::Create(out.schema, out.num_nodes));
  out.rel = std::make_unique<PartitionedRelation>(std::move(rel));
  const Schema& s = out.rel->schema();

  TupleBuffer t(&s);
  for (int64_t i = 0; i < tuples; ++i) {
    uint64_t g = prng.NextBelow(static_cast<uint64_t>(groups));
    for (int c = 0; c < s.num_fields(); ++c) {
      switch (s.field(c).type) {
        case DataType::kInt64:
          t.SetInt64(c, c == 0 ? static_cast<int64_t>(g)
                               : static_cast<int64_t>(prng.NextBelow(
                                     1'000'000)) -
                                     500'000);
          break;
        case DataType::kDouble:
          t.SetDouble(c, static_cast<double>(prng.NextBelow(1'000'000)) /
                             1'009.0);
          break;
        case DataType::kBytes:
          t.SetBytes(c, std::string(1, static_cast<char>(
                                           'a' + g % 7)));
          break;
      }
    }
    ADAPTAGG_RETURN_IF_ERROR(out.rel->Append(
        static_cast<int>(prng.NextBelow(
            static_cast<uint64_t>(out.num_nodes))),
        t.view()));
  }
  ADAPTAGG_RETURN_IF_ERROR(out.rel->Flush());

  // Random query: group by c0 plus possibly one more column; 0-4
  // aggregates over random numeric columns.
  std::vector<int> group_cols = {0};
  if (prng.NextBelow(2) == 1 && s.num_fields() > 1) {
    group_cols.push_back(1 + static_cast<int>(prng.NextBelow(
                                 static_cast<uint64_t>(s.num_fields() - 1))));
  }
  std::vector<int> numeric_cols;
  for (int c = 0; c < s.num_fields(); ++c) {
    if (s.field(c).type != DataType::kBytes) numeric_cols.push_back(c);
  }
  std::vector<AggDescriptor> aggs;
  int num_aggs = static_cast<int>(prng.NextBelow(5));
  static const AggKind kKinds[] = {AggKind::kCount, AggKind::kSum,
                                   AggKind::kAvg, AggKind::kMin,
                                   AggKind::kMax};
  for (int a = 0; a < num_aggs; ++a) {
    AggKind kind = kKinds[prng.NextBelow(5)];
    AggDescriptor d;
    d.kind = kind;
    d.name = StrCat({"a", std::to_string(a)});
    d.input_col =
        kind == AggKind::kCount
            ? -1
            : numeric_cols[prng.NextBelow(numeric_cols.size())];
    aggs.push_back(std::move(d));
  }
  // Zero aggregates with one group column is DISTINCT: fine. But make
  // sure the spec is non-trivial at least sometimes.
  ADAPTAGG_ASSIGN_OR_RETURN(
      AggregationSpec spec,
      AggregationSpec::Make(&out.rel->schema(), std::move(group_cols),
                            std::move(aggs)));
  out.spec = std::make_unique<AggregationSpec>(std::move(spec));
  return out;
}

class FuzzQuery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzQuery, AllAlgorithmsMatchOracle) {
  ASSERT_OK_AND_ASSIGN(Scenario sc, MakeScenario(GetParam()));
  ASSERT_OK_AND_ASSIGN(ResultSet expected,
                       ReferenceAggregate(*sc.spec, *sc.rel));
  SystemParams params = SmallClusterParams(
      sc.num_nodes, sc.rel->total_tuples(), sc.max_hash_entries);
  Cluster cluster(params);
  AlgorithmOptions opts;
  opts.init_seg = 300;
  for (AlgorithmKind kind : AllAlgorithms()) {
    SCOPED_TRACE(AlgorithmKindToString(kind));
    RunResult run = cluster.Run(*MakeAlgorithm(kind), *sc.spec, *sc.rel,
                                opts);
    ASSERT_OK(run.status);
    EXPECT_TRUE(ResultSetsEqual(run.results, expected))
        << "seed=" << GetParam() << " nodes=" << sc.num_nodes
        << " M=" << sc.max_hash_entries << " got "
        << run.results.num_rows() << " rows, expected "
        << expected.num_rows();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQuery,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace adaptagg
