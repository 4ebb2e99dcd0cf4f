#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e10::obs {

Json Json::boolean(bool value) {
  Json j;
  j.kind_ = Kind::boolean;
  j.bool_ = value;
  return j;
}

Json Json::integer(std::int64_t value) {
  Json j;
  j.kind_ = Kind::integer;
  j.int_ = value;
  return j;
}

Json Json::number(double value) {
  Json j;
  j.kind_ = Kind::number;
  j.num_ = value;
  return j;
}

Json Json::str(std::string value) {
  Json j;
  j.kind_ = Kind::string;
  j.str_ = std::move(value);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::object;
  return j;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::object) throw std::logic_error("Json::set on non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ != Kind::array) throw std::logic_error("Json::push on non-array");
  arr_.push_back(std::move(value));
  return *this;
}

bool Json::as_bool() const {
  if (kind_ != Kind::boolean) throw std::logic_error("Json: not a boolean");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::integer) return int_;
  if (kind_ == Kind::number) return static_cast<std::int64_t>(num_);
  throw std::logic_error("Json: not numeric");
}

double Json::as_number() const {
  if (kind_ == Kind::integer) return static_cast<double>(int_);
  if (kind_ == Kind::number) return num_;
  throw std::logic_error("Json: not numeric");
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::string) throw std::logic_error("Json: not a string");
  return str_;
}

std::size_t Json::size() const {
  if (kind_ == Kind::array) return arr_.size();
  if (kind_ == Kind::object) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::array) throw std::logic_error("Json: not an array");
  return arr_.at(index);
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw std::logic_error("Json: missing key '" + std::string(key) + "'");
  }
  return *found;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (kind_ != Kind::object) throw std::logic_error("Json: not an object");
  return obj_;
}

const std::vector<Json>& Json::elements() const {
  if (kind_ != Kind::array) throw std::logic_error("Json: not an array");
  return arr_;
}

void json_escape(std::string_view text, std::string& out) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

Status write_text_file(const std::string& path, std::string_view body) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::error(Errc::io_error, "cannot open " + path);
  file.write(body.data(), static_cast<std::streamsize>(body.size()));
  file.flush();
  if (!file) return Status::error(Errc::io_error, "write failed: " + path);
  return Status::ok();
}

namespace {

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) {
    out += "null";
    return;
  }
  out.append(buf, end);
}

void append_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::null: out += "null"; return;
    case Kind::boolean: out += bool_ ? "true" : "false"; return;
    case Kind::integer: out += std::to_string(int_); return;
    case Kind::number: append_number(out, num_); return;
    case Kind::string:
      out += '"';
      json_escape(str_, out);
      out += '"';
      return;
    case Kind::array:
    case Kind::object: {
      const bool object = kind_ == Kind::object;
      const std::size_t count = object ? obj_.size() : arr_.size();
      out += object ? '{' : '[';
      for (std::size_t i = 0; i < count; ++i) {
        if (i > 0) out += ',';
        if (indent > 0) append_indent(out, indent, depth + 1);
        if (object) {
          out += '"';
          json_escape(obj_[i].first, out);
          out += indent > 0 ? "\": " : "\":";
        }
        (object ? obj_[i].second : arr_[i]).dump_to(out, indent, depth + 1);
      }
      if (indent > 0 && count > 0) append_indent(out, indent, depth);
      out += object ? '}' : ']';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---- Parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> run() {
    auto value = parse_value();
    if (!value.is_ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return value;
  }

 private:
  Status fail(const std::string& what) const {
    return Status::error(Errc::invalid_argument,
                         "json parse error at offset " + std::to_string(pos_) +
                             ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s.is_ok()) return s.status();
      return Json::str(std::move(s).value());
    }
    if (consume_word("true")) return Json::boolean(true);
    if (consume_word("false")) return Json::boolean(false);
    if (consume_word("null")) return Json::null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return fail("unexpected character");
  }

  Result<Json> parse_object() {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key.is_ok()) return key.status();
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      auto value = parse_value();
      if (!value.is_ok()) return value;
      obj.set(std::move(key).value(), std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return fail("expected ',' or '}'");
    }
  }

  Result<Json> parse_array() {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      auto value = parse_value();
      if (!value.is_ok()) return value;
      arr.push(std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return fail("expected ',' or ']'");
    }
  }

  Result<std::string> parse_string() {
    if (!consume('"')) return fail("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          auto code = parse_hex4();
          if (!code.is_ok()) return code.status();
          append_utf8(out, code.value());
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  Result<unsigned> parse_hex4() {
    if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a') + 10;
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A') + 10;
      else return fail("bad \\u escape");
    }
    return value;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<Json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (consume('.')) {
      integral = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        return Json::integer(value);
      }
      // Out-of-range integers fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      return fail("bad number");
    }
    return Json::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

}  // namespace e10::obs
