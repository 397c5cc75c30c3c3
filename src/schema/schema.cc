#include "schema/schema.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/str_cat.h"

namespace adaptagg {

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  offsets_.reserve(fields_.size());
  int off = 0;
  for (auto& f : fields_) {
    if (f.type != DataType::kBytes) f.width = FixedWidth(f.type);
    ADAPTAGG_CHECK(f.width > 0) << "field " << f.name << " has width "
                                << f.width;
    offsets_.push_back(off);
    off += f.width;
  }
  tuple_size_ = off;
}

Result<Schema> Schema::Make(std::vector<Field> fields) {
  std::unordered_set<std::string> names;
  for (const auto& f : fields) {
    if (f.name.empty()) {
      return Status::InvalidArgument("schema field with empty name");
    }
    if (!names.insert(f.name).second) {
      return Status::InvalidArgument("duplicate schema field: " + f.name);
    }
    if (f.type == DataType::kBytes && f.width <= 0) {
      return Status::InvalidArgument("bytes field " + f.name +
                                     " must have positive width");
    }
  }
  return Schema(std::move(fields));
}

Result<int> Schema::FieldIndex(const std::string& name) const {
  for (int i = 0; i < num_fields(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("no field named " + name);
}

bool Schema::Equals(const Schema& other) const {
  if (num_fields() != other.num_fields()) return false;
  for (int i = 0; i < num_fields(); ++i) {
    const Field& a = fields_[i];
    const Field& b = other.fields_[i];
    if (a.name != b.name || a.type != b.type || a.width != b.width) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "{";
  for (int i = 0; i < num_fields(); ++i) {
    if (i > 0) out += ", ";
    out += StrCat({fields_[i].name, ":", DataTypeToString(fields_[i].type)});
    if (fields_[i].type == DataType::kBytes) {
      out += StrCat({"(", std::to_string(fields_[i].width), ")"});
    }
  }
  out += StrCat({"} [", std::to_string(tuple_size_), "B]"});
  return out;
}

}  // namespace adaptagg
