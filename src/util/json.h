#pragma once
// Minimal dependency-free JSON reader/writer — the substrate of the unified
// config API (serving::service_config) and of everything else that wants a
// machine-readable ops surface. Deliberately small: one `value` variant
// (null / bool / finite number / string / array / insertion-ordered object),
// a strict recursive-descent `parse` with line/column errors, and a `dump`
// whose output is deterministic (objects keep insertion order, numbers
// round-trip at full precision) so two equal configs always serialize to
// byte-identical text — the property the config bit-identity checks gate on.
// A number also keeps the exact value of a non-negative 64-bit integer
// (a digits-only literal or an integer constructor), so seeds and counts
// above 2^53 survive a dump and a parse.
//
// Not supported on purpose: comments, trailing commas, duplicate-key
// tolerance (last-wins would hide config typos; `parse` rejects them) and
// non-finite numbers (JSON has no literal for them; `dump` throws).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mapcq::util::json {

class value;
/// Array payload of a `value`.
using array = std::vector<value>;
/// Object payload: insertion-ordered members (deterministic dumps, stable
/// diffs). Lookup is linear — config objects hold tens of keys, not
/// thousands.
using object = std::vector<std::pair<std::string, value>>;

/// Parse failure, with 1-based line/column of the offending character.
class parse_error : public std::runtime_error {
 public:
  parse_error(const std::string& message, std::size_t line, std::size_t column);
  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// One JSON value. Cheap to copy for config-sized documents; accessors
/// throw std::runtime_error on kind mismatch (callers wanting typed config
/// errors translate — see serving::config_error).
class value {
 public:
  enum class kind { null, boolean, number, string, array, object };

  value() noexcept : kind_(kind::null) {}
  value(std::nullptr_t) noexcept : kind_(kind::null) {}  // NOLINT(google-explicit-constructor)
  value(bool b) noexcept : kind_(kind::boolean), bool_(b) {}  // NOLINT
  value(double v) : kind_(kind::number), num_(v) {}           // NOLINT
  value(int v) : value(static_cast<long long>(v)) {}          // NOLINT
  value(unsigned v) : value(static_cast<unsigned long long>(v)) {}       // NOLINT
  value(long v) : value(static_cast<long long>(v)) {}                    // NOLINT
  value(unsigned long v) : value(static_cast<unsigned long long>(v)) {}  // NOLINT
  value(long long v) : kind_(kind::number), num_(static_cast<double>(v)) {  // NOLINT
    if (v >= 0) uint_ = static_cast<std::uint64_t>(v);
  }
  value(unsigned long long v)  // NOLINT
      : kind_(kind::number), num_(static_cast<double>(v)), uint_(v) {}
  value(const char* s) : kind_(kind::string), str_(s) {}       // NOLINT
  value(std::string s) : kind_(kind::string), str_(std::move(s)) {}  // NOLINT
  value(array a) : kind_(kind::array), arr_(std::move(a)) {}         // NOLINT
  value(object o) : kind_(kind::object), obj_(std::move(o)) {}       // NOLINT

  [[nodiscard]] kind type() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == kind::null; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == kind::boolean; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == kind::number; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == kind::string; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == kind::array; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == kind::object; }

  /// Checked accessors; throw std::runtime_error naming the expected kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The exact value of a non-negative integer built from an integer or
  /// parsed from a digits-only literal that fits 64 bits; nullopt for every
  /// other value (fractions, exponents and "5.0" included).
  [[nodiscard]] std::optional<std::uint64_t> exact_uint() const noexcept { return uint_; }
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const array& as_array() const;
  [[nodiscard]] const object& as_object() const;
  [[nodiscard]] array& as_array();
  [[nodiscard]] object& as_object();

  /// Object member by key; null when absent or when this is not an object.
  [[nodiscard]] const value* find(std::string_view key) const noexcept;
  /// Object member for writing: inserts a null member when absent. Turns a
  /// null value into an empty object first; throws on other kinds.
  [[nodiscard]] value& at_or_insert(std::string_view key);

  /// Appends a member (building serializers). Does not check duplicates.
  void push_member(std::string key, value v);

  [[nodiscard]] bool operator==(const value& other) const noexcept;

 private:
  kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::optional<std::uint64_t> uint_;  ///< set only for exact non-negative integers
  std::string str_;
  array arr_;
  object obj_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing content
/// rejected). Throws parse_error with line/column on malformed input,
/// duplicate object keys, or nesting beyond 256 levels.
[[nodiscard]] value parse(std::string_view text);

/// Serializes. `indent` = 0 emits the compact one-line form; > 0
/// pretty-prints with that many spaces per level. Exact integers print as
/// their digits, other integral numbers inside +/-2^53 without a decimal
/// point; other finite numbers round-trip at %.17g. Throws
/// std::runtime_error on non-finite numbers.
[[nodiscard]] std::string dump(const value& v, int indent = 0);

}  // namespace mapcq::util::json
