#include "support/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hicsync::support {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  if (has_value_[static_cast<std::size_t>(depth_)]) out_ += ',';
  has_value_[static_cast<std::size_t>(depth_)] = true;
  if (indent_ > 0) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
  }
}

void JsonWriter::open(char c) {
  before_value();
  out_ += c;
  ++depth_;
  if (static_cast<std::size_t>(depth_) >= has_value_.size()) {
    has_value_.push_back(false);
  }
  has_value_[static_cast<std::size_t>(depth_)] = false;
}

void JsonWriter::close(char c) {
  bool had_values = has_value_[static_cast<std::size_t>(depth_)];
  --depth_;
  if (indent_ > 0 && had_values) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(depth_ * indent_), ' ');
  }
  out_ += c;
}

JsonWriter& JsonWriter::begin_object() {
  open('{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open('[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  before_value();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  out_ += json_escape(v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  out_ += json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value_null() {
  before_value();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view fragment) {
  before_value();
  out_ += fragment;
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    bool ok = parse_value(out) && (skip_ws(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = error_.empty()
                   ? "trailing characters at offset " + std::to_string(pos_)
                   : error_;
    }
    return ok;
  }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return fail("bad literal");
    }
    pos_ += lit.size();
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("bad \\u escape");
              }
            }
            // Minimal UTF-8 encoding; our producers only emit ASCII.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->kind = JsonValue::Kind::Number;
    out->number_value = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    if (!std::isfinite(out->number_value)) return fail("number out of range");
    return true;
  }

  bool parse_object(JsonValue* out) {
    ++pos_;
    out->kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue v;
      if (!parse_value(&v)) return false;
      out->members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(JsonValue* out) {
    ++pos_;
    out->kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(&v)) return false;
      out->elements.push_back(std::move(v));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Each open array or object is one stack frame of this parser
        // (and of JsonValue's destructor): refuse input nested deeper than
        // any document the tools write, before it exhausts the stack.
        if (depth_ == kJsonMaxDepth) {
          return fail("nesting deeper than kJsonMaxDepth (" +
                      std::to_string(kJsonMaxDepth) + ")");
        }
        ++depth_;
        const bool ok = peek() == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"':
        out->kind = JsonValue::Kind::String;
        return parse_string(&out->string_value);
      case 't':
        out->kind = JsonValue::Kind::Bool;
        out->bool_value = true;
        return consume_literal("true");
      case 'f':
        out->kind = JsonValue::Kind::Bool;
        out->bool_value = false;
        return consume_literal("false");
      case 'n':
        out->kind = JsonValue::Kind::Null;
        return consume_literal("null");
      default:
        return parse_number(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text).parse(out, error);
}

bool parse_jsonl(std::string_view text, std::vector<JsonValue>* out,
                 std::string* error) {
  out->clear();
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view()
                                        : text.substr(nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const bool blank =
        line.find_first_not_of(" \t") == std::string_view::npos;
    if (blank) continue;
    JsonValue v;
    std::string line_error;
    if (!parse_json(line, &v, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
      }
      return false;
    }
    out->push_back(std::move(v));
  }
  return true;
}

}  // namespace hicsync::support
