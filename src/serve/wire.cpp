#include "serve/wire.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace musa::serve {

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

namespace {

/// Recursive-descent JSON parser over a string. Strictness knobs: depth
/// bound, full-consume enforced by the caller, no extensions (comments,
/// trailing commas, bare words) — a request that is not valid JSON is
/// rejected wholesale, same policy as a journal record that fails its
/// checksum.
class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : s_(text), error_(error) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing garbage");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 16;

  bool fail(const std::string& what) {
    if (error_ != nullptr)
      *error_ = "json: " + what + " at byte " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* word, std::size_t len) {
    if (s_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= s_.size()) return fail("unexpected end");
    switch (s_[pos_]) {
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return literal("null", 4);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return literal("false", 5);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return string(&out->string);
      case '[':
        return array(out, depth);
      case '{':
        return object(out, depth);
      default:
        return number(out);
    }
  }

  bool array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue elem;
      if (!value(&elem, depth + 1)) return false;
      out->array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"')
        return fail("expected member name");
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      JsonValue member;
      if (!value(&member, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool hex4(std::uint32_t* out) {
    if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return fail("bad \\u escape");
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  void append_utf8(std::string* out, std::uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool string(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character");
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= s_.size()) return fail("truncated escape");
      const char e = s_[pos_++];
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
          std::uint32_t cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: pair it
            if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                s_[pos_ + 1] != 'u')
              return fail("lone high surrogate");
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    // Integer part: 0 | [1-9][0-9]* — leading zeros are not JSON.
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
      return fail("bad number");
    if (s_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
        return fail("bad fraction");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9')
        return fail("bad exponent");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    out->kind = JsonValue::Kind::kNumber;
    errno = 0;
    out->number = std::strtod(s_.c_str() + start, nullptr);
    if (errno == ERANGE) return fail("number out of range");
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* error_;
};

/// An exact small integer in [lo, hi] or nothing — fractional or
/// out-of-range numbers are rejected, not truncated.
bool small_int(const JsonValue& v, int lo, int hi, int* out) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  const double d = v.number;
  const int i = static_cast<int>(d);
  if (static_cast<double>(i) != d || i < lo || i > hi) return false;
  *out = i;
  return true;
}

/// Hex-string fingerprint ("0f3a..." up to 16 digits, full-consume).
bool parse_fp_hex(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else
      return false;
  }
  *out = v;
  return true;
}

int dim_index(const std::string& name) {
  for (int d = 0; d < core::SpaceAxes::kDims; ++d)
    if (name == core::SpaceAxes::dim_name(d)) return d;
  return -1;
}

}  // namespace

bool parse_json(const std::string& text, JsonValue* out, std::string* error) {
  return JsonParser(text, error).parse(out);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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

bool parse_request(const std::string& line, Request* out, std::string* error) {
  *out = Request{};
  JsonValue doc;
  if (!parse_json(line, &doc, error)) return false;
  if (doc.kind != JsonValue::Kind::kObject) {
    *error = "request must be a JSON object";
    return false;
  }

  // Pull the id out first so even a rejected request can be correlated.
  if (const JsonValue* id = doc.find("id")) {
    if (id->kind != JsonValue::Kind::kString) {
      *error = "\"id\" must be a string";
      return false;
    }
    out->id = id->string;
  }

  const JsonValue* op = doc.find("op");
  if (op == nullptr || op->kind != JsonValue::Kind::kString) {
    *error = "missing \"op\"";
    return false;
  }
  if (op->string == "point") {
    out->op = Request::Op::kPoint;
  } else if (op->string == "space") {
    out->op = Request::Op::kSpace;
  } else if (op->string == "ping") {
    out->op = Request::Op::kPing;
  } else if (op->string == "shutdown") {
    out->op = Request::Op::kShutdown;
  } else {
    *error = "unknown op \"" + op->string + "\"";
    return false;
  }

  if (const JsonValue* pr = doc.find("priority")) {
    if (!small_int(*pr, -100, 100, &out->priority)) {
      *error = "\"priority\" must be an integer in [-100, 100]";
      return false;
    }
  }
  if (const JsonValue* fp = doc.find("fingerprint")) {
    if (fp->kind != JsonValue::Kind::kString ||
        !parse_fp_hex(fp->string, &out->fingerprint)) {
      *error = "\"fingerprint\" must be a hex string";
      return false;
    }
    out->has_fingerprint = true;
  }

  if (out->op == Request::Op::kPing || out->op == Request::Op::kShutdown)
    return true;

  if (out->id.empty()) {
    *error = "missing \"id\"";
    return false;
  }
  const JsonValue* app = doc.find("app");
  if (app == nullptr || app->kind != JsonValue::Kind::kString ||
      app->string.empty()) {
    *error = "missing \"app\"";
    return false;
  }
  out->app = app->string;

  if (out->op == Request::Op::kPoint) {
    const JsonValue* cfg = doc.find("config");
    if (cfg == nullptr || cfg->kind != JsonValue::Kind::kString ||
        cfg->string.empty()) {
      *error = "point request needs \"config\"";
      return false;
    }
    out->config_id = cfg->string;
    return true;
  }

  // space
  if (const JsonValue* base = doc.find("base")) {
    if (base->kind != JsonValue::Kind::kString ||
        (base->string != "paper" && base->string != "extended")) {
      *error = "\"base\" must be \"paper\" or \"extended\"";
      return false;
    }
    out->base = base->string;
  }
  if (const JsonValue* where = doc.find("where")) {
    if (where->kind != JsonValue::Kind::kObject) {
      *error = "\"where\" must be an object";
      return false;
    }
    for (const auto& [dim, vals] : where->object) {
      const int d = dim_index(dim);
      if (d < 0) {
        *error = "unknown dimension \"" + dim + "\"";
        return false;
      }
      if (vals.kind != JsonValue::Kind::kArray || vals.array.empty()) {
        *error = "\"where\"." + dim + " must be a non-empty array";
        return false;
      }
      for (const auto& v : vals.array) {
        if (v.kind != JsonValue::Kind::kString || v.string.empty()) {
          *error = "\"where\"." + dim + " values must be strings";
          return false;
        }
        out->where[static_cast<std::size_t>(d)].push_back(v.string);
      }
    }
  }
  return true;
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::string reply_result(const std::string& id, const std::string& key,
                         const std::string& row, bool cached) {
  return "{\"id\":\"" + json_escape(id) + "\",\"key\":\"" + json_escape(key) +
         "\",\"row\":\"" + json_escape(row) +
         (cached ? "\",\"cached\":true}" : "\",\"cached\":false}");
}

std::string reply_failed(const std::string& id, const std::string& key,
                         const std::string& error_class) {
  return "{\"id\":\"" + json_escape(id) + "\",\"key\":\"" + json_escape(key) +
         "\",\"failed\":true,\"class\":\"" + json_escape(error_class) + "\"}";
}

std::string reply_done(const std::string& id, std::uint64_t points,
                       std::uint64_t skipped, std::uint64_t failed,
                       std::uint64_t wall_us) {
  return "{\"id\":\"" + json_escape(id) +
         "\",\"done\":true,\"points\":" + std::to_string(points) +
         ",\"skipped\":" + std::to_string(skipped) +
         ",\"failed\":" + std::to_string(failed) +
         ",\"wall_us\":" + std::to_string(wall_us) + "}";
}

std::string reply_busy(const std::string& id) {
  return "{\"id\":\"" + json_escape(id) + "\",\"busy\":true}";
}

std::string reply_error(const std::string& id, const std::string& message) {
  return "{\"id\":\"" + json_escape(id) + "\",\"error\":\"" +
         json_escape(message) + "\"}";
}

std::string reply_pong(const std::string& id, std::uint64_t fingerprint,
                       std::uint64_t cache_points) {
  return "{\"id\":\"" + json_escape(id) +
         "\",\"pong\":true,\"fingerprint\":\"" + fingerprint_hex(fingerprint) +
         "\",\"cache_points\":" + std::to_string(cache_points) + "}";
}

std::string reply_ok(const std::string& id) {
  return "{\"id\":\"" + json_escape(id) + "\",\"ok\":true}";
}

std::string request_point(const std::string& id, const std::string& app,
                          const std::string& config_id) {
  return "{\"id\":\"" + json_escape(id) +
         "\",\"op\":\"point\",\"app\":\"" + json_escape(app) +
         "\",\"config\":\"" + json_escape(config_id) + "\"}";
}

std::string request_ping(const std::string& id) {
  return "{\"id\":\"" + json_escape(id) + "\",\"op\":\"ping\"}";
}

}  // namespace musa::serve
