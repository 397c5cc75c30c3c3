#ifndef ADAPTAGG_COMMON_STR_CAT_H_
#define ADAPTAGG_COMMON_STR_CAT_H_

#include <initializer_list>
#include <string>
#include <string_view>

namespace adaptagg {

/// Concatenates `parts` into one string by appending. Use it instead of
/// `"literal" + std::string(...)` chains: gcc 12 at -O3 reports a false
/// -Werror=restrict inside std::string's operator+ for those.
inline std::string StrCat(std::initializer_list<std::string_view> parts) {
  size_t size = 0;
  for (std::string_view p : parts) size += p.size();
  std::string out;
  out.reserve(size);
  for (std::string_view p : parts) out.append(p.data(), p.size());
  return out;
}

}  // namespace adaptagg

#endif  // ADAPTAGG_COMMON_STR_CAT_H_
