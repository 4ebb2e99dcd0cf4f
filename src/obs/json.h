// Minimal JSON document used by the observability subsystem: the metrics
// registry, the run-report emitter, and tests that parse an emitted trace
// back. Build with the static constructors + set()/push(), serialise with
// dump(), and re-read with parse(). Object members keep insertion order so
// reports stay diff-friendly across runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace e10::obs {

class Json {
 public:
  enum class Kind { null, boolean, integer, number, string, array, object };

  Json() = default;  // null
  static Json null() { return Json(); }
  static Json boolean(bool value);
  static Json integer(std::int64_t value);
  static Json number(double value);
  static Json str(std::string value);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::null; }
  bool is_object() const { return kind_ == Kind::object; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_string() const { return kind_ == Kind::string; }
  /// integer or number.
  bool is_numeric() const {
    return kind_ == Kind::integer || kind_ == Kind::number;
  }

  // ---- Building ----------------------------------------------------------

  /// Object member: appends, or replaces an existing key in place.
  Json& set(std::string key, Json value);

  /// Array element.
  Json& push(Json value);

  // ---- Access (throws std::logic_error on kind mismatch) -----------------

  bool as_bool() const;
  std::int64_t as_int() const;      // integer (or integral number)
  double as_number() const;         // integer widens to double
  const std::string& as_string() const;

  /// Element/member count (array/object; 0 for scalars).
  std::size_t size() const;

  /// Array element.
  const Json& at(std::size_t index) const;

  /// Object member; nullptr when absent.
  const Json* find(std::string_view key) const;

  /// Object member; throws when absent.
  const Json& at(std::string_view key) const;

  const std::vector<std::pair<std::string, Json>>& members() const;
  const std::vector<Json>& elements() const;

  // ---- Serialisation -----------------------------------------------------

  /// Compact when indent == 0, pretty-printed otherwise.
  std::string dump(int indent = 0) const;

  static Result<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Appends `text` to `out` with JSON string escaping (no surrounding
/// quotes). Shared with the streaming trace-event writer.
void json_escape(std::string_view text, std::string& out);

/// Writes `body` to `path`, replacing any previous content. Shared by the
/// run-report and trace writers.
Status write_text_file(const std::string& path, std::string_view body);

}  // namespace e10::obs
