// Crash-safe, append-only result journal for long-running sweeps.
//
// A journal is a sidecar file next to a final CSV artifact. Every completed
// sweep point appends one checksummed record that is flushed and fsync'd
// before the writer moves on, so a killed process loses at most the point it
// was simulating. On load, records with a bad checksum, wrong width, or a
// truncated tail are dropped (and counted) — never silently accepted — and
// the sweep recomputes exactly those points.
//
// File layout (plain text):
//
//   musa-journal v1
//   <header cells joined by ','>
//   <key> \t <cells joined by ','> \t <fnv1a-64 hex of "key\tcells">
//   ...
//
// The two header lines pin the schema: a journal written for a different
// column set is discarded wholesale instead of being misinterpreted. Keys
// identify a sweep point (e.g. "app|config-id"); a duplicate key keeps the
// last record, so re-running a point is idempotent.
//
// Quarantine (FAIL) rows share the record format under a reserved key
// prefix: a record with key "FAIL!<key>" carries the fixed four-cell
// payload {error class, stage, attempts, message} instead of a result row.
// Resolution is idempotent and order-independent: a good row for a key
// always supersedes any FAIL row for the same key (a quarantine must never
// shadow a real result), and duplicate FAIL rows dedupe to the last one.
//
// Lease (LEASE) rows are the elastic sweep controller's audit log (the
// `<cache>.leases` journal), under a second reserved key prefix: a record
// with key "LEASE!<seq>" carries the fixed six-cell payload {event, chunk,
// worker, begin, end, detail}. They never shadow result keys — loaders keep
// them in a separate, file-ordered list that reconcile_leases() checks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace musa {

/// FNV-1a 64-bit hash — the journal's per-record integrity check.
std::uint64_t fnv1a64(const std::string& data);

/// One lease-lifecycle event journaled by the elastic sweep controller.
/// `event` is one of the known_lease_event() vocabulary; an event outside
/// it means writer/reader version skew and is flagged by the lint tools.
struct LeaseRecord {
  std::string event;            // granted | revoked | committed | ...
  int chunk = -1;               // chunk id (-1 = not chunk-scoped)
  int worker = -1;              // worker spawn id (-1 = controller)
  std::uint64_t begin = 0;      // chunk's [begin, end) slice of the
  std::uint64_t end = 0;        //   pending-point list
  std::string detail;           // revocation reason, pid, ... ("" = none)
};

/// The lease-event vocabulary this reader understands. Writers must not
/// invent events outside it: per the journal version-skew policy, an
/// unknown event is a lint violation, not something to skip silently.
bool known_lease_event(const std::string& event);

/// Reconciliation of a lease log — the elastic controller's convergence
/// claim, checked from its audit trail alone: every chunk a `granted`,
/// `revoked` or `inprocess` event touched must end `committed`. Chunk -1
/// (spawn/kill bookkeeping) is not chunk-scoped and never counts.
struct LeaseAccounting {
  /// Known events that occurred, in vocabulary order, with their counts.
  std::vector<std::pair<std::string, std::size_t>> counts;
  std::vector<int> unaccounted;      // touched, never committed; ascending
  std::vector<std::string> unknown;  // distinct events outside the vocabulary
  bool ok() const { return unaccounted.empty() && unknown.empty(); }
};
LeaseAccounting reconcile_leases(const std::vector<LeaseRecord>& leases);

class ResultJournal {
 public:
  using Entries = std::unordered_map<std::string, std::vector<std::string>>;

  /// One quarantined point: why it failed, where, after how many attempts.
  struct FailRecord {
    std::string error_class;  // error_class_name() of the final failure
    std::string stage;        // pipeline stage marker ("" when unknown)
    int attempts = 0;         // attempts consumed before quarantine
    std::string message;      // sanitised exception text
  };
  using Fails = std::unordered_map<std::string, FailRecord>;

  /// Result of scanning a journal file without opening it for writing.
  struct LoadResult {
    Entries entries;                // valid records, last write per key wins
    Fails fails;                    // quarantined keys without a good row
    std::vector<LeaseRecord> leases;  // lease events, in file order
    std::size_t dropped = 0;        // corrupt/truncated records discarded
    bool schema_mismatch = false;   // header lines did not match `header`
  };

  /// Parses an existing journal file; a missing file yields an empty result.
  static LoadResult read(const std::string& path,
                         const std::vector<std::string>& header);

  /// Opens `path` for appending, first loading every valid record. A
  /// schema-mismatched journal is replaced by an empty one; a journal with a
  /// corrupt tail is compacted (rewritten atomically with only the valid
  /// records) so subsequent appends start on a clean line boundary.
  ResultJournal(std::string path, std::vector<std::string> header);
  ~ResultJournal();

  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  const std::string& path() const { return path_; }
  const Entries& entries() const { return entries_; }
  bool contains(const std::string& key) const {
    return entries_.count(key) != 0;
  }
  std::size_t size() const { return entries_.size(); }

  /// Records dropped while loading (corruption from a previous crash).
  std::size_t dropped_on_load() const { return dropped_; }

  /// Quarantined keys loaded or appended, minus any key that also has a
  /// good row (good always supersedes FAIL).
  const Fails& fails() const { return fails_; }
  bool contains_fail(const std::string& key) const {
    return fails_.count(key) != 0;
  }

  /// Thread-safe single-key lookups, for callers that read the journal
  /// while other threads append to it (the DSE server answers queries from
  /// the cache concurrently with computing into it). entries()/fails()
  /// stay the cheap unlocked views for single-threaded load/merge code.
  bool find_row(const std::string& key, std::vector<std::string>* row) const;
  bool find_fail(const std::string& key, FailRecord* fail) const;

  /// Appends one record and fsyncs it before returning. Thread-safe. The
  /// key must be line-clean (no tab/newline); cells must be CSV-clean.
  /// A good row retires any in-memory FAIL record for the same key.
  void append(const std::string& key, const std::vector<std::string>& row);

  /// Appends a quarantine (FAIL) record for `key`. The message is
  /// sanitised (delimiters stripped, length-bounded) rather than rejected —
  /// quarantine must never fail because an exception text contained a
  /// comma. Thread-safe.
  void append_fail(const std::string& key, const FailRecord& fail);

  /// Appends one lease-lifecycle record (the string fields are sanitised
  /// like FAIL messages). Lease records are an append-only audit log: they
  /// never affect entries()/fails() or the good-beats-FAIL resolution.
  /// Thread-safe.
  void append_lease(const LeaseRecord& lease);

  /// Lease records loaded plus appended, in order.
  const std::vector<LeaseRecord>& leases() const { return leases_; }

  /// Chaos/test hook: transforms a serialised record line just before it
  /// hits the appender (the checksum is already inside the line, so any
  /// mutation is detectable on load). A mutated record is treated as lost:
  /// it is not entered into the in-memory maps, exactly matching what a
  /// process restart would observe. Install before concurrent appends.
  using AppendMutator =
      std::function<std::string(const std::string& key,
                                const std::string& line)>;
  void set_append_mutator(AppendMutator mutator);

  /// Closes the append handle and deletes the journal file (after the final
  /// artifact has been atomically written).
  void discard();

 private:
  std::string path_;
  std::vector<std::string> header_;
  Entries entries_;
  Fails fails_;
  std::vector<LeaseRecord> leases_;
  std::size_t dropped_ = 0;
  std::unique_ptr<class DurableAppender> out_;
  AppendMutator mutator_;
  mutable std::mutex mu_;
};

/// Incremental reader for a journal another process is appending to — the
/// controller's continuous-ingestion view of its workers' journals,
/// replacing merge-at-finalize for progress tracking. Each poll() returns
/// exactly the records that became durable (complete, newline-terminated,
/// checksum-valid) since the previous poll. A partial tail record — the
/// writer was mid-append, or died mid-append — is left unconsumed and
/// retried on the next poll. Replacement of the file (the owning process
/// compacted it via atomic rename) or truncation is detected from the
/// inode+size stamp of the very handle the bytes were read from, and the
/// new file is re-read from the start; consumers must treat re-delivered
/// records as idempotent, which the journal's key semantics already are.
class JournalTailer {
 public:
  JournalTailer(std::string path, std::vector<std::string> header);

  struct Batch {
    std::vector<std::pair<std::string, std::vector<std::string>>> entries;
    std::vector<std::string> fail_keys;  // keys of FAIL rows, prefix stripped
    std::vector<LeaseRecord> leases;
    std::size_t dropped = 0;             // checksum/width rejects
  };

  /// Reads and parses everything new; cheap no-op when the file is
  /// unchanged or absent.
  Batch poll();

  /// Byte offset of the next unread record (0 until the file exists).
  std::uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  std::vector<std::string> header_;
  std::uint64_t offset_ = 0;
  std::uint64_t inode_ = 0;
  int header_lines_ = 0;  // header lines consumed (2 = record region)
  bool schema_bad_ = false;
};

/// Every journal that belongs to `artifact_path`, i.e. files named
/// "<artifact>.journal" or "<artifact>.<anything>.journal" in the same
/// directory (elastic workers use "<artifact>.worker-N.journal").
/// Sorted for deterministic merge order.
std::vector<std::string> find_journals(const std::string& artifact_path);

}  // namespace musa
