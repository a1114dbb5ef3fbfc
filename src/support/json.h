// Shared JSON support: a streaming writer (escaping, comma/indent
// bookkeeping) and a small recursive-descent parser.
//
// The writer replaces the hand-rolled serialization that used to live in
// bench/bench_util.h; the parser reads every JSON input the tools take —
// BENCH reports, coverage DBs, diff bundles, hicbin payloads and hic-rtd
// wire lines — without an external dependency. Much of that is untrusted,
// so nesting is bounded (kJsonMaxDepth) and a number must be finite.
// Numbers are held as double — every producer in this repo stays well
// inside the 2^53 integer-exact range.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hicsync::support {

/// Backslash-escapes `s` for inclusion inside a JSON string literal
/// (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Formats a double the way our JSON producers do: shortest of %.10g,
/// with a guaranteed parseable result (no locale surprises). A non-finite
/// double, which JSON cannot spell, is written as null.
[[nodiscard]] std::string json_number(double value);

/// Incremental JSON writer. Handles quoting/escaping, commas and
/// (optional) pretty-printing; the caller supplies structure:
///
///   JsonWriter w;
///   w.begin_object().key("bench").value(name)
///    .key("metrics").begin_object() ... .end_object()
///    .end_object();
///   out << w.str();
///
/// `indent <= 0` produces compact single-line output (the JSONL mode of
/// the coverage DB and diff bundles); `indent > 0` pretty-prints with
/// that many spaces.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value_null();
  /// Splices a pre-serialized JSON fragment as the next value verbatim.
  JsonWriter& raw(std::string_view fragment);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void before_value();
  void open(char c);
  void close(char c);

  std::string out_;
  int indent_ = 2;
  int depth_ = 0;
  // Per-depth "a value has already been written at this level" flags.
  std::vector<bool> has_value_{false};
  bool after_key_ = false;
};

/// A parsed JSON document. Object members keep insertion order (our bench
/// reports are insertion-ordered and the tests diff renderings).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> elements;                            // Array
  std::vector<std::pair<std::string, JsonValue>> members;     // Object

  [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// The deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so unbounded input could exhaust the stack; the
/// documents the tools write nest fewer than ten levels.
inline constexpr int kJsonMaxDepth = 256;

/// Parses one JSON document. Returns false (and fills `error`, if given)
/// on malformed input, a number past double's range, trailing garbage or
/// nesting deeper than kJsonMaxDepth.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue* out,
                              std::string* error = nullptr);

/// Parses a JSON-Lines document: one JSON value per line, blank lines
/// skipped. Returns false on the first malformed line (`error` carries the
/// 1-based line number). Used by the coverage DB and diff bundles.
[[nodiscard]] bool parse_jsonl(std::string_view text,
                               std::vector<JsonValue>* out,
                               std::string* error = nullptr);

}  // namespace hicsync::support
