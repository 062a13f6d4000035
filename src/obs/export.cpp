#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/check.hpp"

namespace musa::obs {

namespace {

/// JSON string escaping: quotes, backslashes, and control characters (the
/// point keys and exception-derived names must never corrupt the trace).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
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
          out += c;
        }
    }
  }
  return out;
}

void write_file_or_throw(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out)
    throw SimError("cannot write " + path, ErrorClass::kIo);
}

std::string metadata_event_json(const TraceMeta& meta) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"tid\":0,\"args\":{\"name\":\"",
                meta.pid);
  return std::string(buf) + json_escape(meta.process_name) + "\"}}";
}

}  // namespace

std::string trace_event_json(const TraceEvent& ev,
                             std::uint64_t epoch_unix_us,
                             const TraceMeta& meta) {
  char head[192];
  std::snprintf(head, sizeof head,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",%s"
                "\"ts\":%llu,\"dur\":%llu,\"pid\":%d,\"tid\":%u,\"args\":{",
                ev.name, ev.phase == 'i' ? "event" : "stage", ev.phase,
                ev.phase == 'i' ? "\"s\":\"t\"," : "",
                static_cast<unsigned long long>(epoch_unix_us + ev.ts_us),
                static_cast<unsigned long long>(ev.dur_us), meta.pid,
                static_cast<unsigned>(ev.tid));
  std::string out = head;
  bool first = true;
  const auto arg = [&](const char* k, const std::string& v) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += k;
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  };
  if (ev.key[0] != '\0') arg("key", ev.key);
  if (ev.outcome != Outcome::kNone) arg("outcome", outcome_name(ev.outcome));
  if (ev.attempt != 0) {
    if (!first) out += ',';
    first = false;
    out += "\"attempt\":" + std::to_string(ev.attempt);
  }
  out += "}}";
  return out;
}

void write_trace_jsonl(const std::string& path,
                       const std::vector<TraceEvent>& events,
                       std::uint64_t epoch_unix_us, const TraceMeta& meta) {
  std::string body = metadata_event_json(meta);
  body += '\n';
  for (const TraceEvent& ev : events) {
    body += trace_event_json(ev, epoch_unix_us, meta);
    body += '\n';
  }
  write_file_or_throw(path, body);
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::uint64_t epoch_unix_us, const TraceMeta& meta,
                        const std::vector<std::string>& sidecar_paths) {
  std::string body = "{\"traceEvents\":[\n";
  bool first = true;
  const auto push = [&](const std::string& line) {
    if (line.empty()) return;
    if (!first) body += ",\n";
    first = false;
    body += line;
  };
  push(metadata_event_json(meta));
  // Sidecar lines are already complete event objects on the shared wall
  // clock; splice them in verbatim.
  for (const std::string& sidecar : sidecar_paths) {
    std::ifstream in(sidecar);
    if (!in) continue;  // a process that never traced is not an error
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line.front() != '{') continue;
      push(line);
    }
  }
  for (const TraceEvent& ev : events)
    push(trace_event_json(ev, epoch_unix_us, meta));
  body += "\n],\"displayTimeUnit\":\"ms\"}\n";
  write_file_or_throw(path, body);
}

std::string trace_sidecar_path(const std::string& trace_path,
                               const std::string& tag) {
  return trace_path + "." + tag + ".events.jsonl";
}

std::vector<std::string> find_trace_sidecars(const std::string& trace_path) {
  namespace fs = std::filesystem;
  const fs::path artifact(trace_path);
  const fs::path dir =
      artifact.has_parent_path() ? artifact.parent_path() : fs::path(".");
  const std::string stem = artifact.filename().string() + ".";
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0)
      continue;
    if (!name.ends_with(".events.jsonl")) continue;
    out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snap) {
  std::string body = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    body += first ? "\n" : ",\n";
    first = false;
    body += "    \"" + json_escape(name) +
            "\": " + std::to_string(value);
  }
  body += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    body += first ? "\n" : ",\n";
    first = false;
    body += "    \"" + json_escape(name) + "\": " + buf;
  }
  body += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    char buf[224];
    std::snprintf(buf, sizeof buf,
                  "{\"count\": %llu, \"sum\": %llu, \"mean\": %.3f, "
                  "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu}",
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum), h.mean(),
                  static_cast<unsigned long long>(h.quantile_bound(0.50)),
                  static_cast<unsigned long long>(h.quantile_bound(0.95)),
                  static_cast<unsigned long long>(h.quantile_bound(0.99)));
    body += first ? "\n" : ",\n";
    first = false;
    body += "    \"" + json_escape(name) + "\": " + buf;
  }
  body += "\n  }\n}\n";
  write_file_or_throw(path, body);
}

std::string summary_table(const MetricsSnapshot& snap) {
  std::string out;
  char buf[192];
  bool any = false;
  for (const auto& [name, value] : snap.counters) {
    if (value == 0) continue;  // unexercised seams would drown the screen
    if (!any) {
      out += "  counter                                   value\n";
      any = true;
    }
    std::snprintf(buf, sizeof buf, "  %-36s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  any = false;
  for (const auto& [name, value] : snap.gauges) {
    if (!any) {
      out += "  gauge                                     value\n";
      any = true;
    }
    std::snprintf(buf, sizeof buf, "  %-36s %12.4g\n", name.c_str(), value);
    out += buf;
  }
  any = false;
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0) continue;
    if (!any) {
      out += "  histogram                                 count"
             "       mean        p50        p95\n";
      any = true;
    }
    std::snprintf(buf, sizeof buf, "  %-36s %10llu %10.1f %10llu %10llu\n",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  h.mean(),
                  static_cast<unsigned long long>(h.quantile_bound(0.50)),
                  static_cast<unsigned long long>(h.quantile_bound(0.95)));
    out += buf;
  }
  if (out.empty()) out = "  (no metrics recorded)\n";
  return out;
}

}  // namespace musa::obs
