#pragma once
// rvhpc::obs::json — a minimal JSON emitter + recursive-descent parser.
//
// The obs exporters emit Chrome trace_event and metrics JSON; the parser
// exists so tests (and the trace-diff tooling the ROADMAP plans) can
// round-trip those documents without an external dependency.  It supports
// the full JSON grammar the exporters produce: objects (insertion order
// preserved), arrays, strings with escapes, numbers, booleans and null.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rvhpc::obs::json {

/// Escapes `s` for inclusion inside a JSON string literal (quotes, control
/// characters and backslashes).
[[nodiscard]] std::string escape(const std::string& s);

/// Appends escape(s) to `out` without building the intermediate string.
void append_escaped(std::string& out, std::string_view s);

/// Renders a double as a JSON-legal number token (inf/nan clamp to 0,
/// which JSON cannot represent).  The bytes are those of printf's "%.17g"
/// — 17 significant digits round-trip every double — produced by
/// std::to_chars, which skips printf's format parsing and locale.
[[nodiscard]] std::string number(double v);

/// Appends number(v) to `out` without building the intermediate string.
void append_number(std::string& out, double v);

/// A parsed JSON document node.
struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< insertion order

  /// First member named `key`, or nullptr (valid on any type).
  [[nodiscard]] const Value* find(const std::string& key) const;
  [[nodiscard]] bool is(Type t) const { return type == t; }
};

/// Parses one JSON document; throws std::runtime_error (with character
/// offset) on malformed input or trailing garbage.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace rvhpc::obs::json
