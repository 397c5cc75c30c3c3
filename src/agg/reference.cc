#include "agg/reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>

namespace adaptagg {

void ResultSet::Sort() {
  // Byte-lexicographic, exactly std::vector's operator<, spelled out
  // because gcc 12 at -O3 reports a false -Werror=stringop-overread
  // inside that operator's memcmp.
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
              const size_t n = std::min(a.size(), b.size());
              const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
              return c != 0 ? c < 0 : a.size() < b.size();
            });
}

bool ResultSetsEqual(const ResultSet& a, const ResultSet& b, double eps) {
  if (!a.schema.Equals(b.schema)) return false;
  if (a.rows.size() != b.rows.size()) return false;
  ResultSet sa{a.schema, a.rows};
  ResultSet sb{b.schema, b.rows};
  sa.Sort();
  sb.Sort();
  for (size_t i = 0; i < sa.rows.size(); ++i) {
    TupleView ra(sa.rows[i].data(), &sa.schema);
    TupleView rb(sb.rows[i].data(), &sb.schema);
    for (int f = 0; f < sa.schema.num_fields(); ++f) {
      const Field& field = sa.schema.field(f);
      if (field.type == DataType::kDouble) {
        double va = ra.GetDouble(f);
        double vb = rb.GetDouble(f);
        double scale = std::max({std::fabs(va), std::fabs(vb), 1.0});
        if (std::fabs(va - vb) > eps * scale) return false;
      } else {
        if (std::memcmp(ra.GetBytesPtr(f), rb.GetBytesPtr(f),
                        static_cast<size_t>(field.width)) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

Result<ResultSet> ReferenceAggregate(const AggregationSpec& spec,
                                     PartitionedRelation& rel) {
  // Key bytes -> state bytes, via the standard library for independence
  // from AggHashTable.
  std::unordered_map<std::string, std::string> groups;
  std::vector<uint8_t> proj(static_cast<size_t>(spec.projected_width()));

  for (int node = 0; node < rel.num_nodes(); ++node) {
    HeapFileScanner scanner(&rel.partition(node));
    for (TupleView t = scanner.Next(); t.valid(); t = scanner.Next()) {
      spec.ProjectRaw(t, proj.data());
      std::string key(reinterpret_cast<const char*>(proj.data()),
                      static_cast<size_t>(spec.key_width()));
      auto [it, inserted] = groups.try_emplace(
          std::move(key), static_cast<size_t>(spec.state_width()), '\0');
      uint8_t* state = reinterpret_cast<uint8_t*>(it->second.data());
      if (inserted) spec.InitState(state);
      spec.UpdateFromProjected(state, proj.data());
    }
  }

  ResultSet out;
  out.schema = spec.final_schema();
  out.rows.reserve(groups.size());
  for (const auto& [key, state] : groups) {
    std::vector<uint8_t> row(
        static_cast<size_t>(out.schema.tuple_size()));
    spec.FinalizeRecord(reinterpret_cast<const uint8_t*>(key.data()),
                        reinterpret_cast<const uint8_t*>(state.data()),
                        row.data());
    out.rows.push_back(std::move(row));
  }
  out.Sort();
  return out;
}

}  // namespace adaptagg
