// Wire grammar of the DSE server (DESIGN.md §7i "Serving").
//
// Requests and replies are JSON objects, one per line, carried over the
// newline framing of sweep::LineChannel (including its 64 KiB babble cap).
// It is the only wire: elastic sweep workers are servers too, leased
// chunks as `point` requests and pinged for liveness. Four operations:
//
//   {"id":"r1","op":"point","app":"hydro",
//    "config":"medium|32M:256K|2.0GHz|128b|4ch-DDR4-2333|32c"}
//   {"id":"r2","op":"space","app":"hydro","base":"paper",
//    "where":{"freq":["2.0GHz"],"channels":["4ch"]},"priority":1}
//   {"id":"r3","op":"ping"}
//   {"id":"r4","op":"shutdown"}
//
// A `space` request names a sub-box of a SpaceAxes grid by per-dimension
// value-name allow-lists; the server statically prunes it with the space
// analyzer before admission. An optional "fingerprint" (hex string) pins
// the pipeline-options fingerprint the client expects; a mismatch is
// rejected instead of silently answering from a different model.
//
// Replies (one line each, `id` echoes the request):
//
//   {"id":..,"key":..,"row":"<cells,comma-joined>","cached":bool}  per point
//   {"id":..,"key":..,"failed":true,"class":"model"}               per FAIL
//   {"id":..,"done":true,"points":N,"skipped":K,"failed":F,"wall_us":U}
//   {"id":..,"busy":true}          admission backpressure — retry later
//   {"id":..,"error":"..."}        malformed/rejected request
//   {"id":..,"pong":true,"fingerprint":"<hex>","cache_points":N}
//   {"id":..,"ok":true}            shutdown acknowledged
//
// `row` is DseEngine::to_row joined with commas — byte-identical to the
// cells a batch sweep journals/caches for the same point, which is what
// lets a client (and the loadtest gate) diff served answers against a
// local sweep verbatim.
//
// The parser below is deliberately strict, in the spirit of the journal
// loader: full-consume, depth-limited, range-checked — a malformed request
// earns an error reply, never a zero-valued field.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config_space.hpp"

namespace musa::serve {

/// Minimal JSON document: null / bool / number / string / array / object.
/// Object members keep insertion order (deterministic error messages).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with `key`, or nullptr. Objects only.
  const JsonValue* find(const std::string& key) const;
};

/// Strict parse of one complete JSON document: full-consume (trailing
/// whitespace only), RFC-shaped numbers, \uXXXX escapes with surrogate
/// pairing, nesting depth ≤ 16. False → *error says what and where.
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslash, control characters).
std::string json_escape(const std::string& s);

struct Request {
  enum class Op { kPoint, kSpace, kPing, kShutdown };

  std::string id;
  Op op = Op::kPing;
  int priority = 0;  // larger = dispatched first; [-100, 100]

  // point / space
  std::string app;

  // point: a MachineConfig::parse_id identifier.
  std::string config_id;

  // space: base grid plus per-dimension allow-lists of axis value names
  // (empty list = every value of that dimension).
  std::string base = "paper";  // "paper" | "extended"
  std::array<std::vector<std::string>, core::SpaceAxes::kDims> where;

  // Optional pipeline-options fingerprint pin.
  bool has_fingerprint = false;
  std::uint64_t fingerprint = 0;
};

/// Parses one request line. On failure returns false with *error set; *out
/// keeps whatever `id` was readable so the error reply can still correlate.
bool parse_request(const std::string& line, Request* out, std::string* error);

// Reply builders — one JSON line each, no trailing newline.
std::string reply_result(const std::string& id, const std::string& key,
                         const std::string& row, bool cached);
std::string reply_failed(const std::string& id, const std::string& key,
                         const std::string& error_class);
std::string reply_done(const std::string& id, std::uint64_t points,
                       std::uint64_t skipped, std::uint64_t failed,
                       std::uint64_t wall_us);
std::string reply_busy(const std::string& id);
std::string reply_error(const std::string& id, const std::string& message);
std::string reply_pong(const std::string& id, std::uint64_t fingerprint,
                       std::uint64_t cache_points);
std::string reply_ok(const std::string& id);

// Request builders for the server's own clients (the elastic controller).
std::string request_point(const std::string& id, const std::string& app,
                          const std::string& config_id);
std::string request_ping(const std::string& id);

/// "%016llx" of a fingerprint — the wire encoding (JSON numbers cannot
/// carry 64 bits losslessly).
std::string fingerprint_hex(std::uint64_t fp);

}  // namespace musa::serve
