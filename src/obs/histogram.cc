#include "obs/histogram.h"

#include <algorithm>

#include "common/str_cat.h"

namespace adaptagg {

HistogramSpec HistogramSpec::Exponential(int64_t start, double factor,
                                         int count) {
  HistogramSpec spec;
  spec.edges.reserve(static_cast<size_t>(count));
  double edge = static_cast<double>(start);
  int64_t last = 0;
  for (int i = 0; i < count; ++i) {
    int64_t e = static_cast<int64_t>(edge);
    // Guarantee strictly increasing integer edges even when the factor
    // advances by less than 1 at the small end.
    e = std::max(e, last + 1);
    spec.edges.push_back(e);
    last = e;
    edge *= factor;
  }
  return spec;
}

HistogramSpec HistogramSpec::Linear(int64_t width, int count) {
  HistogramSpec spec;
  spec.edges.reserve(static_cast<size_t>(count));
  for (int i = 1; i <= count; ++i) {
    spec.edges.push_back(width * i);
  }
  return spec;
}

int HistogramSpec::BucketOf(int64_t value) const {
  // Binary search for the first edge >= value; edges are tiny (tens of
  // entries) so this is a handful of comparisons.
  auto it = std::lower_bound(edges.begin(), edges.end(), value);
  return static_cast<int>(it - edges.begin());
}

std::string HistogramSpec::BucketLabel(int i) const {
  if (i >= static_cast<int>(edges.size())) {
    return edges.empty() ? "all" : StrCat({">", std::to_string(edges.back())});
  }
  return StrCat({"<=", std::to_string(edges[static_cast<size_t>(i)])});
}

}  // namespace adaptagg
