// Minimal JSON document model: enough for machine-readable bench output
// (`BENCH_*.json`), service snapshots, and Chrome trace_event files —
// without an external dependency.
//
// Objects preserve insertion order in memory, but Dump() emits members in
// sorted key order so serialized output is byte-stable across compilers and
// construction paths (golden diffs stay order-independent).  Numbers are
// stored as int64 or double; integers print without a fractional part so
// counters round-trip exactly.  The parser exists chiefly so tests can
// validate that exported files are well-formed.

#ifndef COBRA_OBS_JSON_H_
#define COBRA_OBS_JSON_H_

#include <cstdint>
#include <type_traits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace cobra::obs {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;  // null
  JsonValue(bool b) : storage_(b) {}                      // NOLINT
  JsonValue(double d) : storage_(d) {}                    // NOLINT
  JsonValue(std::string s) : storage_(std::move(s)) {}    // NOLINT
  JsonValue(const char* s) : storage_(std::string(s)) {}  // NOLINT
  // Any integral type (int, uint64_t, size_t, ...) stores as int64.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  JsonValue(T i) : storage_(static_cast<int64_t>(i)) {}  // NOLINT

  static JsonValue MakeObject() { return JsonValue(Object{}); }
  static JsonValue MakeArray() { return JsonValue(Array{}); }

  bool is_null() const { return std::holds_alternative<std::monostate>(storage_); }
  bool is_bool() const { return std::holds_alternative<bool>(storage_); }
  bool is_int() const { return std::holds_alternative<int64_t>(storage_); }
  bool is_double() const { return std::holds_alternative<double>(storage_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(storage_); }
  bool is_array() const { return std::holds_alternative<Array>(storage_); }
  bool is_object() const { return std::holds_alternative<Object>(storage_); }

  bool AsBool() const { return std::get<bool>(storage_); }
  int64_t AsInt() const { return std::get<int64_t>(storage_); }
  double AsDouble() const {
    return is_int() ? static_cast<double>(std::get<int64_t>(storage_))
                    : std::get<double>(storage_);
  }
  const std::string& AsString() const { return std::get<std::string>(storage_); }
  const Array& AsArray() const { return std::get<Array>(storage_); }
  Array& AsArray() { return std::get<Array>(storage_); }
  const Object& AsObject() const { return std::get<Object>(storage_); }
  Object& AsObject() { return std::get<Object>(storage_); }

  // Object member access; Set replaces an existing key, operator[] creates
  // on miss.  Both turn a null value into an object first.
  JsonValue& operator[](const std::string& key);
  void Set(const std::string& key, JsonValue value) {
    (*this)[key] = std::move(value);
  }
  // Member lookup without insertion; nullptr on miss or non-object.
  const JsonValue* Find(const std::string& key) const;

  // Array append; turns a null value into an array first.
  void Append(JsonValue value);

  size_t size() const;

  // Serializes the value.  `indent` > 0 pretty-prints.
  std::string Dump(int indent = 0) const;

  // Strict-enough recursive-descent parser (UTF-8 passthrough, \uXXXX
  // escapes decoded as-if Latin-1 for the BMP subset we emit).
  static Result<JsonValue> Parse(const std::string& text);

 private:
  using Storage = std::variant<std::monostate, bool, int64_t, double,
                               std::string, Array, Object>;
  explicit JsonValue(Storage storage) : storage_(std::move(storage)) {}

  void DumpTo(std::string* out, int indent, int depth) const;

  Storage storage_;
};

// Writes `value.Dump(2)` to `path`, trailing newline included.
Status WriteJsonFile(const std::string& path, const JsonValue& value);

}  // namespace cobra::obs

#endif  // COBRA_OBS_JSON_H_
