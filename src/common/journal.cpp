#include "common/journal.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/fsio.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace musa {

namespace {

obs::Counter& append_count() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("journal.append.count");
  return c;
}

obs::Counter& fail_row_count() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("journal.append.fail_rows");
  return c;
}

obs::Counter& dropped_records() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("journal.dropped_records");
  return c;
}

obs::Histogram& append_us() {
  static obs::Histogram& h =
      obs::MetricRegistry::global().histogram("journal.append.us");
  return h;
}

constexpr const char* kMagic = "musa-journal v1";
/// Reserved key prefix marking a quarantine (FAIL) record; its payload is
/// the fixed four-cell {class, stage, attempts, message} schema.
constexpr const char* kFailPrefix = "FAIL!";
constexpr std::size_t kFailCells = 4;
constexpr std::size_t kFailMessageMax = 240;
/// Reserved key prefix marking a lease-lifecycle record; its payload is the
/// fixed six-cell {event, chunk, worker, begin, end, detail} schema.
constexpr const char* kLeasePrefix = "LEASE!";
constexpr std::size_t kLeaseCells = 6;
/// The lease-event vocabulary, in the order the accounting lists counts.
constexpr const char* kLeaseEvents[] = {"granted",   "revoked",   "committed",
                                        "spawned",   "respawned", "killed",
                                        "inprocess", "abandoned"};

std::string join(const std::vector<std::string>& cells, char sep) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out.push_back(sep);
    out += cells[i];
  }
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else if (ch != '\r') {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string record_line(const std::string& key,
                        const std::vector<std::string>& cells) {
  const std::string payload = key + '\t' + join(cells, ',');
  return payload + '\t' + hex64(fnv1a64(payload)) + '\n';
}

bool line_clean(const std::string& s) {
  return s.find_first_of("\t\n\r") == std::string::npos;
}

bool has_fail_prefix(const std::string& key) {
  return key.compare(0, std::strlen(kFailPrefix), kFailPrefix) == 0;
}

bool has_lease_prefix(const std::string& key) {
  return key.compare(0, std::strlen(kLeasePrefix), kLeasePrefix) == 0;
}

/// Exception texts are arbitrary; make them record-safe instead of letting
/// a comma in a message abort the quarantine path.
std::string sanitize_message(std::string msg) {
  for (char& ch : msg)
    if (ch == '\t' || ch == '\n' || ch == '\r' || ch == ',') ch = ';';
  if (msg.size() > kFailMessageMax) {
    msg.resize(kFailMessageMax - 3);
    msg += "...";
  }
  return msg;
}

std::vector<std::string> fail_cells(const ResultJournal::FailRecord& fail) {
  return {sanitize_message(fail.error_class), sanitize_message(fail.stage),
          std::to_string(fail.attempts), sanitize_message(fail.message)};
}

/// Strict FAIL payload decode. A numeric cell that does not parse exactly
/// (non-numeric, trailing bytes, negative, overflow) fails the whole
/// record — the checksum proves the bytes are what the writer sent, so a
/// malformed cell means writer/reader version skew or a writer bug, and
/// the record is treated like any other corrupt row: dropped and the
/// point recomputed, never a zero-attempts quarantine.
bool parse_fail(const std::vector<std::string>& cells,
                ResultJournal::FailRecord* fail) {
  if (!parse_int(cells[2], &fail->attempts) || fail->attempts < 0)
    return false;
  fail->error_class = cells[0];
  fail->stage = cells[1];
  fail->message = cells[3];
  return true;
}

std::vector<std::string> lease_cells(const LeaseRecord& lease) {
  return {sanitize_message(lease.event), std::to_string(lease.chunk),
          std::to_string(lease.worker), std::to_string(lease.begin),
          std::to_string(lease.end), sanitize_message(lease.detail)};
}

/// Strict LEASE payload decode, same policy as parse_fail: a malformed
/// numeric cell is a checksum-class violation (record dropped + counted),
/// never a zero-valued lease event that would corrupt the audit trail.
bool parse_lease(const std::vector<std::string>& cells, LeaseRecord* lease) {
  if (!parse_int(cells[1], &lease->chunk) || lease->chunk < -1) return false;
  if (!parse_int(cells[2], &lease->worker) || lease->worker < -1) return false;
  if (!parse_u64(cells[3], &lease->begin)) return false;
  if (!parse_u64(cells[4], &lease->end)) return false;
  lease->event = cells[0];
  lease->detail = cells[5];
  return true;
}

/// One parsed journal record line. kBad covers every reject: wrong part
/// count, checksum mismatch, wrong cell width for the key's record type.
struct ParsedRecord {
  enum class Kind { kBad, kEntry, kFail, kLease };
  Kind kind = Kind::kBad;
  std::string key;                 // entry key, or FAIL key prefix-stripped
  std::vector<std::string> cells;  // entry row cells
  ResultJournal::FailRecord fail;
  LeaseRecord lease;
};

ParsedRecord parse_record(const std::string& line,
                          const std::vector<std::string>& header) {
  ParsedRecord rec;
  const std::vector<std::string> parts = split(line, '\t');
  if (parts.size() != 3) return rec;
  const std::string payload = parts[0] + '\t' + parts[1];
  if (hex64(fnv1a64(payload)) != parts[2]) return rec;
  std::vector<std::string> cells = split(parts[1], ',');
  if (has_fail_prefix(parts[0])) {
    if (cells.size() != kFailCells) return rec;
    if (!parse_fail(cells, &rec.fail)) return rec;
    rec.kind = ParsedRecord::Kind::kFail;
    rec.key = parts[0].substr(std::strlen(kFailPrefix));
    return rec;
  }
  if (has_lease_prefix(parts[0])) {
    if (cells.size() != kLeaseCells) return rec;
    if (!parse_lease(cells, &rec.lease)) return rec;
    rec.kind = ParsedRecord::Kind::kLease;
    return rec;
  }
  if (cells.size() != header.size()) return rec;
  rec.kind = ParsedRecord::Kind::kEntry;
  rec.key = parts[0];
  rec.cells = std::move(cells);
  return rec;
}

}  // namespace

bool known_lease_event(const std::string& event) {
  return std::find(std::begin(kLeaseEvents), std::end(kLeaseEvents), event) !=
         std::end(kLeaseEvents);
}

LeaseAccounting reconcile_leases(const std::vector<LeaseRecord>& leases) {
  std::map<std::string, std::size_t> by_event;
  std::set<int> touched, committed;
  std::set<std::string> unknown;
  for (const LeaseRecord& r : leases) {
    ++by_event[r.event];
    if (!known_lease_event(r.event)) unknown.insert(r.event);
    if (r.chunk < 0) continue;
    if (r.event == "committed")
      committed.insert(r.chunk);
    else if (r.event == "granted" || r.event == "revoked" ||
             r.event == "inprocess")
      touched.insert(r.chunk);
  }
  LeaseAccounting acc;
  for (const char* event : kLeaseEvents)
    if (const auto it = by_event.find(event); it != by_event.end())
      acc.counts.emplace_back(event, it->second);
  std::set_difference(touched.begin(), touched.end(), committed.begin(),
                      committed.end(), std::back_inserter(acc.unaccounted));
  acc.unknown.assign(unknown.begin(), unknown.end());
  return acc;
}

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

ResultJournal::LoadResult ResultJournal::read(
    const std::string& path, const std::vector<std::string>& header) {
  LoadResult out;
  std::ifstream in(path);
  if (!in.good()) return out;

  std::string line;
  if (!std::getline(in, line) || split(line, '\t')[0] != kMagic) {
    out.schema_mismatch = true;
    return out;
  }
  if (!std::getline(in, line) || split(line, ',') != header) {
    out.schema_mismatch = true;
    return out;
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ParsedRecord rec = parse_record(line, header);
    switch (rec.kind) {
      case ParsedRecord::Kind::kBad:
        ++out.dropped;
        break;
      case ParsedRecord::Kind::kFail:
        out.fails[rec.key] = std::move(rec.fail);
        break;
      case ParsedRecord::Kind::kLease:
        out.leases.push_back(std::move(rec.lease));
        break;
      case ParsedRecord::Kind::kEntry:
        out.entries[rec.key] = std::move(rec.cells);
        break;
    }
  }
  // A file that ends without a final newline has a truncated tail record;
  // the checksum (or part count) already rejected it above.

  // Good-beats-FAIL resolution, independent of record order: a key that
  // eventually produced a result is not quarantined, no matter how many
  // FAIL rows an earlier run appended for it.
  for (auto it = out.fails.begin(); it != out.fails.end();)
    it = out.entries.count(it->first) != 0 ? out.fails.erase(it) : ++it;
  return out;
}

ResultJournal::ResultJournal(std::string path, std::vector<std::string> header)
    : path_(std::move(path)), header_(std::move(header)) {
  MUSA_CHECK_MSG(!header_.empty(), "journal header must be non-empty");
  for (const auto& col : header_)
    MUSA_CHECK_MSG(line_clean(col) && col.find(',') == std::string::npos,
                   "journal header cell contains a delimiter: " + col);

  LoadResult loaded = read(path_, header_);
  if (loaded.schema_mismatch) {
    std::fprintf(stderr,
                 "[journal] %s: schema mismatch, starting a fresh journal\n",
                 path_.c_str());
    loaded = LoadResult{};
  }
  entries_ = std::move(loaded.entries);
  fails_ = std::move(loaded.fails);
  leases_ = std::move(loaded.leases);
  dropped_ = loaded.dropped;
  if (dropped_ > 0) dropped_records().add(dropped_);

  // Compact: rewrite only the valid records so a corrupt tail from a crash
  // (or a stale-schema file) cannot collide with the next append. Surviving
  // FAIL rows (quarantines without a good row) are kept — they are what
  // --retry-failed and the quarantine report resume from — and lease
  // records are kept in order (renumbered): they are the controller's
  // audit log across restarts.
  std::string text = std::string(kMagic) + '\n' + join(header_, ',') + '\n';
  for (const auto& [key, cells] : entries_) text += record_line(key, cells);
  for (const auto& [key, fail] : fails_)
    text += record_line(kFailPrefix + key, fail_cells(fail));
  for (std::size_t i = 0; i < leases_.size(); ++i)
    text += record_line(kLeasePrefix + std::to_string(i),
                        lease_cells(leases_[i]));
  atomic_write_file(path_, text);
  out_ = std::make_unique<DurableAppender>(path_);
}

ResultJournal::~ResultJournal() = default;

bool ResultJournal::find_row(const std::string& key,
                             std::vector<std::string>* row) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (row != nullptr) *row = it->second;
  return true;
}

bool ResultJournal::find_fail(const std::string& key,
                              FailRecord* fail) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = fails_.find(key);
  if (it == fails_.end()) return false;
  if (fail != nullptr) *fail = it->second;
  return true;
}

void ResultJournal::append(const std::string& key,
                           const std::vector<std::string>& row) {
  MUSA_CHECK_MSG(line_clean(key), "journal key contains a delimiter: " + key);
  MUSA_CHECK_MSG(row.size() == header_.size(),
                 "journal record width mismatches header");
  for (const auto& cell : row)
    MUSA_CHECK_MSG(line_clean(cell) && cell.find(',') == std::string::npos,
                   "journal cell contains a delimiter: " + cell);
  MUSA_CHECK_MSG(!has_fail_prefix(key),
                 "journal key collides with the FAIL prefix: " + key);
  MUSA_CHECK_MSG(!has_lease_prefix(key),
                 "journal key collides with the LEASE prefix: " + key);
  const std::string line = record_line(key, row);
  obs::Span span("journal.append", key);
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  MUSA_CHECK_MSG(out_ != nullptr, "append on a discarded journal");
  if (mutator_) {
    const std::string mutated = mutator_(key, line);
    if (mutated != line) {
      // A mutated record is lost work: write the damaged bytes (the next
      // load drops them via the checksum) but do not remember the entry,
      // exactly matching what a crash-and-restart would observe.
      out_->append(mutated);
      return;
    }
  }
  out_->append(line);
  append_count().add();
  append_us().observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  entries_[key] = row;
  fails_.erase(key);
}

void ResultJournal::append_fail(const std::string& key,
                                const FailRecord& fail) {
  MUSA_CHECK_MSG(line_clean(key), "journal key contains a delimiter: " + key);
  FailRecord clean;
  clean.error_class = sanitize_message(fail.error_class);
  clean.stage = sanitize_message(fail.stage);
  clean.attempts = fail.attempts;
  clean.message = sanitize_message(fail.message);
  const std::string line = record_line(kFailPrefix + key, fail_cells(clean));
  obs::Span span("journal.append_fail", key);
  span.set_outcome(obs::Outcome::kFail);
  std::lock_guard<std::mutex> lock(mu_);
  MUSA_CHECK_MSG(out_ != nullptr, "append on a discarded journal");
  out_->append(line);
  fail_row_count().add();
  // Good beats FAIL: a quarantine row never shadows a completed result.
  if (entries_.count(key) == 0) fails_[key] = std::move(clean);
}

void ResultJournal::append_lease(const LeaseRecord& lease) {
  LeaseRecord clean = lease;
  clean.event = sanitize_message(clean.event);
  clean.detail = sanitize_message(clean.detail);
  std::lock_guard<std::mutex> lock(mu_);
  MUSA_CHECK_MSG(out_ != nullptr, "append on a discarded journal");
  // The sequence number only keeps record keys distinct; readers recover
  // order from file position, so renumbering on compaction is harmless.
  out_->append(record_line(kLeasePrefix + std::to_string(leases_.size()),
                           lease_cells(clean)));
  leases_.push_back(std::move(clean));
}

void ResultJournal::set_append_mutator(AppendMutator mutator) {
  std::lock_guard<std::mutex> lock(mu_);
  mutator_ = std::move(mutator);
}

void ResultJournal::discard() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_) {
    out_->close();
    out_.reset();
  }
  std::remove(path_.c_str());
}

JournalTailer::JournalTailer(std::string path,
                             std::vector<std::string> header)
    : path_(std::move(path)), header_(std::move(header)) {}

JournalTailer::Batch JournalTailer::poll() {
  Batch batch;
  FileStamp stamp;
  std::string data = read_file_from(path_, offset_, &stamp);
  if (!stamp.exists) return batch;
  if (stamp.inode != inode_ || stamp.size < offset_) {
    // The file was replaced (the owner compacted it: atomic rename swaps
    // the inode) or truncated. Restart from the top of what is there now —
    // re-reading records the old incarnation already delivered is safe
    // because journal consumption is keyed, hence idempotent.
    inode_ = stamp.inode;
    offset_ = 0;
    header_lines_ = 0;
    schema_bad_ = false;
    data = read_file_from(path_, 0, &stamp);
    if (!stamp.exists) return batch;
    inode_ = stamp.inode;  // replaced again mid-poll; next poll reconciles
  }
  if (schema_bad_ || data.empty()) return batch;

  // Consume only complete lines; a partial tail (a writer mid-append, or
  // killed mid-append) stays unconsumed and is retried next poll once —
  // if ever — its newline lands.
  const std::size_t complete = data.rfind('\n');
  if (complete == std::string::npos) return batch;
  data.resize(complete + 1);
  offset_ += data.size();

  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t eol = data.find('\n', pos);
    std::string line = data.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (header_lines_ == 0) {
      if (split(line, '\t')[0] != kMagic) schema_bad_ = true;
      ++header_lines_;
      if (schema_bad_) return batch;
      continue;
    }
    if (header_lines_ == 1) {
      if (split(line, ',') != header_) schema_bad_ = true;
      ++header_lines_;
      if (schema_bad_) return batch;
      continue;
    }
    ParsedRecord rec = parse_record(line, header_);
    switch (rec.kind) {
      case ParsedRecord::Kind::kBad:
        ++batch.dropped;
        break;
      case ParsedRecord::Kind::kFail:
        batch.fail_keys.push_back(std::move(rec.key));
        break;
      case ParsedRecord::Kind::kLease:
        batch.leases.push_back(std::move(rec.lease));
        break;
      case ParsedRecord::Kind::kEntry:
        batch.entries.emplace_back(std::move(rec.key), std::move(rec.cells));
        break;
    }
  }
  return batch;
}

std::vector<std::string> find_journals(const std::string& artifact_path) {
  namespace fs = std::filesystem;
  const fs::path artifact(artifact_path);
  const fs::path dir =
      artifact.has_parent_path() ? artifact.parent_path() : fs::path(".");
  const std::string prefix = artifact.filename().string() + ".";
  const std::string suffix = ".journal";

  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < prefix.size() + suffix.size() - 1) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    out.push_back((dir / name).string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace musa
