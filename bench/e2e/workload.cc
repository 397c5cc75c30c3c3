#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "workload/generator.h"

namespace adaptagg {
namespace e2e {
namespace {

constexpr WorkloadConfig kWorkloads[] = {
    // name, served, nodes, tuples, groups, M, nominal_round_s
    {"paper_few_groups", false, 4, 2'000'000, 3'000, 10'000, 0.2},
    {"paper_many_groups", false, 4, 400'000, 100'000, 10'000, 0.45},
    {"serve_dashboard", true, 2, 200'000, 2'000, 10'000, 0.14},
};

constexpr int64_t kFilterBounds[kNumFilters] = {
    std::numeric_limits<int64_t>::max(), 25'000, 50'000, 75'000};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* AggColumnName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "cnt";
    case AggKind::kSum:
      return "sum_v";
    case AggKind::kMin:
      return "min_v";
    case AggKind::kMax:
      return "max_v";
    case AggKind::kAvg:
      return "avg_v";
  }
  return "?";
}

}  // namespace

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const WorkloadConfig& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadConfig& w : kWorkloads) {
    if (!out.empty()) out += "|";
    out += w.name;
  }
  return out;
}

int64_t WarmupRounds(const WorkloadConfig& config) {
  return std::max<int64_t>(2, std::llround(1.0 / config.nominal_round_s));
}

int64_t TimedRounds(const WorkloadConfig& config, double seconds,
                    int64_t queries_per_round, double min_queries) {
  const int64_t for_time =
      static_cast<int64_t>(std::llround(seconds / config.nominal_round_s));
  const int64_t for_count = static_cast<int64_t>(
      std::ceil(min_queries / static_cast<double>(queries_per_round)));
  return std::max<int64_t>(1, std::max(for_time, for_count));
}

int64_t FilterBound(int filter) {
  return kFilterBounds[static_cast<size_t>(filter)];
}

Result<Query> BuildQuery(const Schema* schema, const Shape& shape,
                         int64_t tag) {
  QueryBuilder builder(schema);
  builder.GroupBy({"g"});
  if (shape.filter != 0) {
    builder.Where(Lt(ColNamed("v"), Lit(FilterBound(shape.filter))));
  }
  builder.Count("cnt");
  for (AggKind kind : shape.value_aggs) {
    switch (kind) {
      case AggKind::kSum:
        builder.Sum("v", AggColumnName(kind));
        break;
      case AggKind::kMin:
        builder.Min("v", AggColumnName(kind));
        break;
      case AggKind::kMax:
        builder.Max("v", AggColumnName(kind));
        break;
      default:
        return Status::InvalidArgument("unsupported shape aggregate");
    }
  }
  if (tag > 0) builder.Having(Gt(ColNamed("cnt"), Lit(-tag)));
  return builder.Build();
}

TupleSource::TupleSource(uint64_t seed, int64_t groups)
    : state_(Mix(seed ^ 0x5eedf00dULL)),
      groups_(static_cast<uint64_t>(groups)) {}

uint64_t TupleSource::NextWord() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix(state_);
}

void TupleSource::Next(int64_t* group, int64_t* value) {
  *group = static_cast<int64_t>(NextWord() % groups_);
  *value = static_cast<int64_t>(NextWord() %
                                static_cast<uint64_t>(kValueRange));
}

void Oracle::Tally::Add(int64_t v) {
  ++count;
  sum += v;
  min = std::min(min, v);
  max = std::max(max, v);
}

int64_t Oracle::Tally::Value(AggKind kind) const {
  switch (kind) {
    case AggKind::kCount:
      return count;
    case AggKind::kSum:
      return sum;
    case AggKind::kMin:
      return min;
    case AggKind::kMax:
      return max;
    case AggKind::kAvg:
      break;
  }
  return 0;
}

Oracle::Oracle(int64_t groups)
    : groups_(groups),
      tallies_(static_cast<size_t>(groups * kNumFilters)) {}

void Oracle::Add(int64_t group, int64_t value) {
  for (int f = 0; f < kNumFilters; ++f) {
    if (value >= kFilterBounds[f]) continue;
    Tally& t = tallies_[static_cast<size_t>(f * groups_ + group)];
    if (t.count == 0) ++nonempty_groups_[static_cast<size_t>(f)];
    t.Add(value);
    ++qualifying_[static_cast<size_t>(f)];
  }
}

Status Oracle::Check(const Shape& shape, const ResultSet& rows) const {
  const std::string label = shape.label;
  if (rows.schema.num_fields() !=
      2 + static_cast<int>(shape.value_aggs.size())) {
    return Status::Internal(label + ": unexpected answer width");
  }
  const int64_t expected_rows =
      nonempty_groups_[static_cast<size_t>(shape.filter)];
  if (rows.num_rows() != expected_rows) {
    return Status::Internal(label + ": " + std::to_string(rows.num_rows()) +
                            " rows, tally has " +
                            std::to_string(expected_rows) + " groups");
  }
  std::vector<uint8_t> seen(static_cast<size_t>(groups_), 0);
  int64_t count_sum = 0;
  for (int64_t i = 0; i < rows.num_rows(); ++i) {
    const TupleView row = rows.row(i);
    const int64_t g = row.GetInt64(0);
    const std::string where = label + " group " + std::to_string(g);
    if (g < 0 || g >= groups_ || seen[static_cast<size_t>(g)] != 0) {
      return Status::Internal(where + " is out of range or repeated");
    }
    seen[static_cast<size_t>(g)] = 1;
    const Tally& t = At(shape.filter, g);
    if (t.count == 0 || row.GetInt64(1) != t.count) {
      return Status::Internal(where + ": COUNT differs from the tally");
    }
    for (size_t a = 0; a < shape.value_aggs.size(); ++a) {
      if (row.GetInt64(2 + static_cast<int>(a)) !=
          t.Value(shape.value_aggs[a])) {
        return Status::Internal(where + ": " +
                                AggColumnName(shape.value_aggs[a]) +
                                " differs from the tally");
      }
    }
    count_sum += t.count;
  }
  if (count_sum != qualifying(shape.filter)) {
    return Status::Internal(label + ": sum of COUNT is " +
                            std::to_string(count_sum) + ", " +
                            std::to_string(qualifying(shape.filter)) +
                            " tuples qualify");
  }
  return Status::OK();
}

RowDigest DigestOf(const ResultSet& rows) {
  RowDigest d;
  d.rows = rows.num_rows();
  for (const std::vector<uint8_t>& row : rows.rows) {
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (size_t off = 0; off + 8 <= row.size(); off += 8) {
      uint64_t word;
      std::memcpy(&word, row.data() + off, 8);
      h = Mix(h ^ word);
    }
    d.sum += h;
    d.xr ^= Mix(h);
  }
  return d;
}

bool SameRows(const ResultSet& a, const ResultSet& b, int64_t groups) {
  if (a.rows.size() != b.rows.size()) return false;
  auto group_of = [groups](const std::vector<uint8_t>& row) -> int64_t {
    int64_t g = -1;
    if (row.size() >= sizeof(g)) std::memcpy(&g, row.data(), sizeof(g));
    return g >= 0 && g < groups ? g : -1;
  };
  std::vector<const std::vector<uint8_t>*> by_group(
      static_cast<size_t>(groups), nullptr);
  for (const std::vector<uint8_t>& row : a.rows) {
    const int64_t g = group_of(row);
    if (g < 0 || by_group[static_cast<size_t>(g)] != nullptr) return false;
    by_group[static_cast<size_t>(g)] = &row;
  }
  for (const std::vector<uint8_t>& row : b.rows) {
    const int64_t g = group_of(row);
    if (g < 0) return false;
    const std::vector<uint8_t>* match = by_group[static_cast<size_t>(g)];
    if (match == nullptr || *match != row) return false;
    by_group[static_cast<size_t>(g)] = nullptr;
  }
  return true;
}

Result<Loaded> LoadRelation(const WorkloadConfig& config, uint64_t seed) {
  ADAPTAGG_ASSIGN_OR_RETURN(
      PartitionedRelation rel,
      PartitionedRelation::Create(MakeBenchSchema(100), config.nodes));
  Loaded loaded;
  loaded.rel = std::make_unique<PartitionedRelation>(std::move(rel));
  loaded.oracle = std::make_unique<Oracle>(config.groups);
  loaded.source = std::make_unique<TupleSource>(seed, config.groups);
  TupleBuffer tuple(&loaded.rel->schema());
  for (int64_t i = 0; i < config.tuples; ++i) {
    int64_t g = 0, v = 0;
    loaded.source->Next(&g, &v);
    tuple.SetInt64(kBenchGroupCol, g);
    tuple.SetInt64(kBenchValueCol, v);
    ADAPTAGG_RETURN_IF_ERROR(
        loaded.rel->Append(static_cast<int>(i % config.nodes), tuple.view()));
    loaded.oracle->Add(g, v);
  }
  ADAPTAGG_RETURN_IF_ERROR(loaded.rel->Flush());
  return loaded;
}

Status AppendTuples(Loaded* loaded, int node, int count) {
  TupleBuffer tuple(&loaded->rel->schema());
  for (int i = 0; i < count; ++i) {
    int64_t g = 0, v = 0;
    loaded->source->Next(&g, &v);
    tuple.SetInt64(kBenchGroupCol, g);
    tuple.SetInt64(kBenchValueCol, v);
    ADAPTAGG_RETURN_IF_ERROR(loaded->rel->Append(node, tuple.view()));
    loaded->oracle->Add(g, v);
  }
  return loaded->rel->Flush();
}

SystemParams ParamsFor(const WorkloadConfig& config, int64_t tuples) {
  SystemParams params;  // Table 1
  params.num_nodes = config.nodes;
  params.num_tuples = tuples;
  params.max_hash_entries = config.max_hash_entries;
  return params;
}

}  // namespace e2e
}  // namespace adaptagg
