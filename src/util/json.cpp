#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace tsyn::util {

const Json* Json::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v && v->is_number() ? v->number : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    // Resolve the byte offset into a line/column and pull the offending
    // line as context, clipped around the error column so one pathological
    // minified line cannot flood a terminal.
    const std::size_t at = std::min(pos_, text_.size());
    std::size_t line = 1, bol = 0;
    for (std::size_t i = 0; i < at; ++i) {
      if (text_[i] == '\n') {
        ++line;
        bol = i + 1;
      }
    }
    const std::size_t column = at - bol + 1;
    std::size_t eol = text_.find('\n', bol);
    if (eol == std::string::npos) eol = text_.size();
    constexpr std::size_t kMaxContext = 60;
    std::size_t from = bol, to = eol;
    if (at > from + kMaxContext / 2) from = at - kMaxContext / 2;
    if (to > from + kMaxContext) to = from + kMaxContext;
    std::string snippet = text_.substr(from, to - from);
    for (char& c : snippet)  // tabs would misalign the caret
      if (c == '\t') c = ' ';
    const std::string context =
        "  " + snippet + "\n  " + std::string(at - from, ' ') + "^";
    throw JsonParseError(msg, pos_, line, column, context);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (next() != c) {
      --pos_;  // point the error at the offending character, not past it
      fail(std::string("expected '") + c + "'");
    }
  }

  void literal(const char* word) {
    const std::size_t start = pos_;
    for (const char* p = word; *p; ++p)
      if (pos_ >= text_.size() || text_[pos_++] != *p) {
        pos_ = start;  // report the whole literal as invalid from its start
        fail(std::string("invalid literal (expected ") + word + ")");
      }
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.str = string();
        return v;
      }
      case 't': {
        literal("true");
        Json v;
        v.type = Json::Type::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        literal("false");
        Json v;
        v.type = Json::Type::kBool;
        return v;
      }
      case 'n': {
        literal("null");
        return Json{};
      }
      default: return number();
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      const char c = next();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      skip_ws();
      const char c = next();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // combined — none of our emitters produce them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      if (pos_ >= text_.size() || !std::isdigit(
              static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits();
    }
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).run(); }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace tsyn::util
