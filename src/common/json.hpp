// Minimal dependency-free JSON: the one parser, DOM and writer under every
// document the project reads or writes (scenario files, obs reports,
// traces, flight bundles, grid and bench documents).
//
// Deliberately small: parse, ordered objects, typed accessors, canonical
// dump. Two properties matter more than features:
//
//   * Strictness — the parser rejects anything outside RFC 8259 (trailing
//     commas, comments, bare values after the document) with a line:column
//     error, so a malformed document fails loudly instead of half-loading.
//   * Determinism — object members keep file order (insertion order for
//     synthesized nodes) and dump() renders numbers through one canonical
//     formatter (shortest round-trip digits; `null` for NaN and infinities,
//     which JSON cannot spell), so re-serialising a document is
//     byte-stable across platforms. Nothing here reads clocks or ambient
//     RNG; the determinism lint applies to this library like the rest of
//     src/.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace paraleon::common {

/// Any document failure: JSON syntax errors (with line:column), bad types,
/// and — through its scenario::ScenarioError alias — unknown keys and
/// impossible values in a scenario. One type so callers can catch the
/// whole config-handling surface at the CLI boundary.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Object members in file/insertion order. Order is part of the
  /// deterministic byte surface of dump().
  using Member = std::pair<std::string, Json>;

  Json() = default;
  static Json make_null() { return Json(); }
  static Json make_bool(bool b);
  /// NaN and infinities are kept, but dump() writes them as `null`.
  static Json make_number(double v);
  static Json make_int(std::int64_t v);
  /// Exact for the whole uint64 range (seeds need all 64 bits).
  static Json make_uint(std::uint64_t v);
  static Json make_string(std::string s);
  static Json make_array();
  static Json make_object();
  /// An object of members whose keys the caller knows are unique: appended
  /// in order, without set()'s linear duplicate search.
  static Json make_object(std::initializer_list<Member> members);

  /// Parses one complete JSON document; throws JsonError with
  /// "line L, column C" context on any syntax violation. `where` names
  /// the source (file path) in the error message.
  static Json parse(const std::string& text, const std::string& where = "");

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors throw JsonError on a type mismatch; `context` names
  /// the offending key in the message.
  bool as_bool(const std::string& context = "") const;
  double as_double(const std::string& context = "") const;
  std::int64_t as_int64(const std::string& context = "") const;
  std::uint64_t as_uint64(const std::string& context = "") const;
  const std::string& as_string(const std::string& context = "") const;

  /// True when the number was written without fraction or exponent.
  bool is_integer() const { return type_ == Type::kNumber && is_int_; }

  const std::vector<Json>& items() const;
  std::vector<Json>& items();
  const std::vector<Member>& members() const;
  std::vector<Member>& members();

  /// Object lookup; null when absent (or not an object).
  const Json* find(const std::string& key) const;
  Json* find(const std::string& key);
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Replaces the member if present, appends otherwise.
  void set(const std::string& key, Json value);
  /// Removes the member; false when absent.
  bool erase(const std::string& key);

  void push_back(Json value);

  /// Canonical serialisation: 2-space indent per level, members in stored
  /// order, numbers via the canonical formatter. Byte-deterministic.
  std::string dump(int indent = 0) const;
  /// The same document on one line (`{"a": 1, "b": [2, 3]}`), appended to
  /// `out`: the record form of streams written one value at a time, such
  /// as trace events.
  void dump_line(std::string& out) const;

 private:
  void dump_to(std::string& out, int indent) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_int_ = false;
  // int_ holds the bits of a uint64 above INT64_MAX.
  bool is_big_uint_ = false;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<Member> obj_;
};

}  // namespace paraleon::common
