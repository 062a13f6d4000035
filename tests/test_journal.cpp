// Unit tests for the crash-safety layer: atomic file replacement, the
// append-only result journal (checksums, truncated-tail recovery, schema
// pinning), and journal discovery for sharded sweeps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fsio.hpp"
#include "common/journal.hpp"

namespace musa {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
}

const std::vector<std::string> kHeader = {"a", "b", "c"};

TEST(Journal, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors: the record checksum is the standard
  // hash, so any reader of the on-disk format can recompute it.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fsio, AtomicWriteReplacesContentAndLeavesNoTmp) {
  const std::string path = tmp_path("musa_fsio_atomic.txt");
  atomic_write_file(path, "first\n");
  EXPECT_EQ(read_file(path), "first\n");
  atomic_write_file(path, "second, longer content\n");
  EXPECT_EQ(read_file(path), "second, longer content\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Fsio, DurableAppenderAppends) {
  const std::string path = tmp_path("musa_fsio_append.txt");
  std::remove(path.c_str());
  {
    DurableAppender out(path);
    out.append("one\n");
    out.append("two\n");
  }
  EXPECT_EQ(read_file(path), "one\ntwo\n");
  std::remove(path.c_str());
}

TEST(Journal, AppendReloadRoundTrip) {
  const std::string path = tmp_path("musa_journal_rt.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    EXPECT_EQ(j.size(), 0u);
    j.append("k1", {"1", "2", "3"});
    j.append("k2", {"x", "y", "z"});
    EXPECT_TRUE(j.contains("k1"));
    EXPECT_FALSE(j.contains("k9"));
  }
  const ResultJournal::LoadResult lr = ResultJournal::read(path, kHeader);
  EXPECT_FALSE(lr.schema_mismatch);
  EXPECT_EQ(lr.dropped, 0u);
  ASSERT_EQ(lr.entries.size(), 2u);
  EXPECT_EQ(lr.entries.at("k2"),
            (std::vector<std::string>{"x", "y", "z"}));
  std::remove(path.c_str());
}

TEST(Journal, DuplicateKeyKeepsLastRecord) {
  const std::string path = tmp_path("musa_journal_dup.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append("k", {"1", "1", "1"});
    j.append("k", {"2", "2", "2"});
    EXPECT_EQ(j.size(), 1u);
  }
  const auto lr = ResultJournal::read(path, kHeader);
  ASSERT_EQ(lr.entries.size(), 1u);
  EXPECT_EQ(lr.entries.at("k")[0], "2");
  std::remove(path.c_str());
}

TEST(Journal, TruncatedTailIsDroppedAndRecovered) {
  const std::string path = tmp_path("musa_journal_trunc.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append("k1", {"1", "2", "3"});
    j.append("k2", {"4", "5", "6"});
    j.append("k3", {"7", "8", "9"});
  }
  // Chop bytes off the end, as a kill -9 mid-write would.
  const std::string text = read_file(path);
  write_file(path, text.substr(0, text.size() - 5));

  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_FALSE(lr.schema_mismatch);
  EXPECT_EQ(lr.entries.size(), 2u);  // k3's record lost its checksum
  EXPECT_EQ(lr.dropped, 1u);
  EXPECT_EQ(lr.entries.count("k3"), 0u);

  // Reopening compacts the corrupt tail away and appends cleanly.
  {
    ResultJournal j(path, kHeader);
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.dropped_on_load(), 1u);
    j.append("k3", {"7", "8", "9"});
  }
  const auto healed = ResultJournal::read(path, kHeader);
  EXPECT_EQ(healed.entries.size(), 3u);
  EXPECT_EQ(healed.dropped, 0u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptedRecordFailsChecksum) {
  const std::string path = tmp_path("musa_journal_flip.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append("k1", {"1", "2", "3"});
    j.append("k2", {"4", "5", "6"});
  }
  // Flip one payload byte of the first record (bit rot / partial write).
  std::string text = read_file(path);
  const auto pos = text.find("1,2,3");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '9';
  write_file(path, text);

  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_EQ(lr.dropped, 1u);
  EXPECT_EQ(lr.entries.size(), 1u);
  EXPECT_EQ(lr.entries.count("k1"), 0u);  // never silently accepted
  std::remove(path.c_str());
}

TEST(Journal, SchemaMismatchDiscardsWholesale) {
  const std::string path = tmp_path("musa_journal_schema.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append("k", {"1", "2", "3"});
  }
  const auto lr = ResultJournal::read(path, {"other", "columns"});
  EXPECT_TRUE(lr.schema_mismatch);
  EXPECT_TRUE(lr.entries.empty());
  {
    // Opening for writing under a new schema starts a fresh journal.
    ResultJournal j(path, {"other", "columns"});
    EXPECT_EQ(j.size(), 0u);
  }
  std::remove(path.c_str());
}

TEST(Journal, RejectsDelimiterInKeyOrCells) {
  const std::string path = tmp_path("musa_journal_delim.journal");
  std::remove(path.c_str());
  ResultJournal j(path, kHeader);
  EXPECT_THROW(j.append("bad\tkey", {"1", "2", "3"}), SimError);
  EXPECT_THROW(j.append("k", {"1,5", "2", "3"}), SimError);
  EXPECT_THROW(j.append("k", {"1", "2\n", "3"}), SimError);
  EXPECT_THROW(j.append("k", {"1", "2"}), SimError);  // width mismatch
  j.append("k", {"1", "2", "3"});
  std::remove(path.c_str());
}

TEST(Journal, FindJournalsMatchesCacheAndShardNames) {
  const std::string base = tmp_path("musa_find_me.csv");
  const std::vector<std::string> mine = {
      base + ".journal",
      base + ".worker-0.journal",
      base + ".worker-1.journal",
  };
  for (const auto& p : mine) write_file(p, "x");
  write_file(base, "the artifact itself");
  write_file(base + ".journal.tmp", "in-flight compaction");
  write_file(tmp_path("musa_find_other.csv.journal"), "different artifact");

  const std::vector<std::string> found = find_journals(base);
  EXPECT_EQ(found, mine);  // sorted, exact set

  for (const auto& p : mine) std::remove(p.c_str());
  std::remove(base.c_str());
  std::remove((base + ".journal.tmp").c_str());
  std::remove(tmp_path("musa_find_other.csv.journal").c_str());
}

// ---- Quarantine (FAIL) rows -----------------------------------------------

TEST(Journal, FailRowsRoundTripWithChecksum) {
  const std::string path = tmp_path("musa_journal_fail.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append("good", {"1", "2", "3"});
    j.append_fail("bad", {"io", "kernel", 3, "disk exploded"});
    EXPECT_TRUE(j.contains_fail("bad"));
    EXPECT_FALSE(j.contains_fail("good"));
  }
  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_EQ(lr.entries.size(), 1u);
  ASSERT_EQ(lr.fails.size(), 1u);
  const auto& f = lr.fails.at("bad");
  EXPECT_EQ(f.error_class, "io");
  EXPECT_EQ(f.stage, "kernel");
  EXPECT_EQ(f.attempts, 3);
  EXPECT_EQ(f.message, "disk exploded");
  std::remove(path.c_str());
}

TEST(Journal, GoodRowSupersedesFailInEitherOrder) {
  const std::string path = tmp_path("musa_journal_fail_order.journal");
  std::remove(path.c_str());
  {
    // FAIL first, then a good row for the same key (a successful retry).
    ResultJournal j(path, kHeader);
    j.append_fail("k", {"io", "burst", 1, "flaky"});
    j.append("k", {"1", "2", "3"});
    EXPECT_FALSE(j.contains_fail("k"));
    EXPECT_TRUE(j.contains("k"));
  }
  auto lr = ResultJournal::read(path, kHeader);
  EXPECT_TRUE(lr.fails.empty());
  EXPECT_EQ(lr.entries.count("k"), 1u);

  // The reverse order on disk (good row written by a sibling before the
  // FAIL was appended) must resolve identically: good always wins.
  write_file(path, read_file(path));  // keep compacted form
  {
    ResultJournal j(path, kHeader);
    j.append_fail("k", {"model", "replay", 1, "late quarantine"});
    // In-memory too: the existing good entry blocks the FAIL.
    EXPECT_FALSE(j.contains_fail("k"));
  }
  lr = ResultJournal::read(path, kHeader);
  EXPECT_TRUE(lr.fails.empty());
  EXPECT_EQ(lr.entries.count("k"), 1u);
  std::remove(path.c_str());
}

TEST(Journal, DuplicateFailRowsDedupeToLast) {
  const std::string path = tmp_path("musa_journal_fail_dup.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append_fail("k", {"io", "burst", 1, "first"});
    j.append_fail("k", {"timeout", "replay", 2, "second"});
  }
  const auto lr = ResultJournal::read(path, kHeader);
  ASSERT_EQ(lr.fails.size(), 1u);
  EXPECT_EQ(lr.fails.at("k").error_class, "timeout");
  EXPECT_EQ(lr.fails.at("k").message, "second");
  EXPECT_EQ(lr.fails.at("k").attempts, 2);
  std::remove(path.c_str());
}

TEST(Journal, FailMessagesAreSanitisedNotRejected) {
  const std::string path = tmp_path("musa_journal_fail_dirty.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    // Exception text with every delimiter the record format uses, plus an
    // oversized payload: quarantine must absorb it, never throw.
    j.append_fail("k", {"io", "ker,nel", 1,
                        "tab\there, comma, and\nnewline " +
                            std::string(1000, 'x')});
  }
  const auto lr = ResultJournal::read(path, kHeader);
  ASSERT_EQ(lr.fails.size(), 1u);
  const auto& f = lr.fails.at("k");
  EXPECT_EQ(f.stage, "ker;nel");
  EXPECT_EQ(f.message.find('\t'), std::string::npos);
  EXPECT_EQ(f.message.find(','), std::string::npos);
  EXPECT_LE(f.message.size(), 256u);
  EXPECT_EQ(lr.dropped, 0u);  // sanitised record still checksums clean
  std::remove(path.c_str());
}

TEST(Journal, CompactionPreservesUnresolvedFails) {
  const std::string path = tmp_path("musa_journal_fail_compact.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.append("done", {"1", "2", "3"});
    j.append_fail("broken", {"invariant", "verify", 1, "bad result"});
    j.append_fail("fixed", {"io", "burst", 1, "flaky"});
    j.append("fixed", {"4", "5", "6"});
  }
  // Reopen: compaction rewrites the file; the unresolved FAIL must survive,
  // the resolved one must be gone.
  {
    ResultJournal j(path, kHeader);
    EXPECT_TRUE(j.contains_fail("broken"));
    EXPECT_FALSE(j.contains_fail("fixed"));
    EXPECT_TRUE(j.contains("fixed"));
    EXPECT_EQ(j.size(), 2u);
  }
  std::remove(path.c_str());
}

TEST(Journal, ResultKeysMayNotUseTheFailPrefix) {
  const std::string path = tmp_path("musa_journal_fail_prefix.journal");
  std::remove(path.c_str());
  ResultJournal j(path, kHeader);
  EXPECT_THROW(j.append("FAIL!sneaky", {"1", "2", "3"}), SimError);
  std::remove(path.c_str());
}

TEST(Journal, AppendMutatorCorruptionIsDetectedOnLoad) {
  const std::string path = tmp_path("musa_journal_mutator.journal");
  std::remove(path.c_str());
  {
    ResultJournal j(path, kHeader);
    j.set_append_mutator([](const std::string& key, const std::string& line) {
      if (key != "victim") return line;
      std::string out = line;
      out[out.size() - 2] = out[out.size() - 2] == '0' ? '1' : '0';
      return out;
    });
    j.append("victim", {"1", "2", "3"});
    j.append("witness", {"4", "5", "6"});
    // The mutated record is treated as lost work, exactly like a crash.
    EXPECT_FALSE(j.contains("victim"));
    EXPECT_TRUE(j.contains("witness"));
  }
  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_EQ(lr.dropped, 1u);  // checksum caught the damage
  EXPECT_EQ(lr.entries.count("victim"), 0u);
  EXPECT_EQ(lr.entries.count("witness"), 1u);
  std::remove(path.c_str());
}


// ---- Strict numeric decode of FAIL / LEASE payloads ------------------------
//
// These records carry counters (attempts, chunk ids, point ranges) that
// the controller trusts. A record whose checksum is *valid* but whose
// numeric cell is garbage — a forged or bit-rotted-then-rechecksummed
// line — must be dropped and counted like any corruption, never decoded
// as zero (zero is a real chunk id and a real attempt count).

/// A correctly checksummed record line for an arbitrary payload — what a
/// forger (or a buggy external writer) could produce. Mirrors
/// record_line() using the public fnv1a64.
std::string forge_line(const std::string& key,
                       const std::vector<std::string>& cells) {
  std::string payload = key + '\t';
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) payload += ',';
    payload += cells[i];
  }
  char sum[17];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return payload + '\t' + sum + '\n';
}

void append_raw(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << line;
}

TEST(Journal, WellFormedForgedFailIsAcceptedProvingTheForgeHelper) {
  const std::string path = tmp_path("musa_journal_forge_ok.journal");
  std::remove(path.c_str());
  { ResultJournal j(path, kHeader); }
  append_raw(path, forge_line("FAIL!k", {"io", "kernel", "3", "boom"}));
  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_EQ(lr.dropped, 0u);
  ASSERT_EQ(lr.fails.size(), 1u);
  EXPECT_EQ(lr.fails.at("k").attempts, 3);
  std::remove(path.c_str());
}

TEST(Journal, FailWithMalformedAttemptsIsDroppedNotZeroed) {
  const std::string path = tmp_path("musa_journal_forge_fail.journal");
  std::remove(path.c_str());
  { ResultJournal j(path, kHeader); }
  // One malformed numeric cell per line; every line checksums correctly.
  append_raw(path, forge_line("FAIL!a", {"io", "kernel", "3x7", "m"}));
  append_raw(path, forge_line("FAIL!b", {"io", "kernel", "", "m"}));
  append_raw(path, forge_line("FAIL!c", {"io", "kernel", "-2", "m"}));
  append_raw(path, forge_line("FAIL!d", {"io", "kernel", " 3", "m"}));
  append_raw(path, forge_line("FAIL!e", {"io", "kernel", "1e2", "m"}));
  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_TRUE(lr.fails.empty());
  EXPECT_EQ(lr.dropped, 5u);
  std::remove(path.c_str());
}

TEST(Journal, LeaseWithMalformedNumericCellsIsDropped) {
  const std::string path = tmp_path("musa_journal_forge_lease.journal");
  std::remove(path.c_str());
  { ResultJournal j(path, kHeader); }
  // Cell order: event, chunk, worker, begin, end, detail.
  append_raw(path,
             forge_line("LEASE!0", {"granted", "abc", "0", "0", "4", "d"}));
  append_raw(path,
             forge_line("LEASE!1", {"granted", "0", "1.5", "0", "4", "d"}));
  append_raw(path,
             forge_line("LEASE!2", {"granted", "0", "0", "-1", "4", "d"}));
  append_raw(path,
             forge_line("LEASE!3", {"granted", "0", "0", "0", "+4", "d"}));
  // chunk/worker may legitimately be -1 (sentinels); below that is forged.
  append_raw(path,
             forge_line("LEASE!4", {"granted", "-2", "0", "0", "4", "d"}));
  // And one good line to prove the reader still accepts real records.
  append_raw(path,
             forge_line("LEASE!5", {"granted", "-1", "2", "0", "4", "d"}));
  const auto lr = ResultJournal::read(path, kHeader);
  EXPECT_EQ(lr.dropped, 5u);
  ASSERT_EQ(lr.leases.size(), 1u);
  EXPECT_EQ(lr.leases[0].chunk, -1);
  EXPECT_EQ(lr.leases[0].worker, 2);
  EXPECT_EQ(lr.leases[0].end, 4u);
  std::remove(path.c_str());
}

// ---- reconcile_leases: the lease log's convergence check ------------------

LeaseRecord lease(const char* event, int chunk, int worker = 0) {
  LeaseRecord r;
  r.event = event;
  r.chunk = chunk;
  r.worker = worker;
  return r;
}

TEST(LeaseAccounting, FullyCommittedLogIsOk) {
  const LeaseAccounting acc = reconcile_leases(
      {lease("spawned", -1), lease("granted", 0), lease("granted", 1),
       lease("committed", 1), lease("committed", 0)});
  EXPECT_TRUE(acc.ok());
  using Counts = std::vector<std::pair<std::string, std::size_t>>;
  EXPECT_EQ(acc.counts, (Counts{{"granted", 2}, {"committed", 2},
                                {"spawned", 1}}));  // vocabulary order
}

TEST(LeaseAccounting, GrantedButNeverCommittedChunkIsNamed) {
  const LeaseAccounting acc = reconcile_leases(
      {lease("granted", 0), lease("granted", 3), lease("committed", 0)});
  EXPECT_FALSE(acc.ok());
  EXPECT_EQ(acc.unaccounted, std::vector<int>{3});
  EXPECT_TRUE(acc.unknown.empty());
}

TEST(LeaseAccounting, RevokedChunkCommittedInProcessIsOk) {
  const LeaseAccounting acc = reconcile_leases(
      {lease("granted", 2), lease("revoked", 2), lease("inprocess", 2, -1),
       lease("committed", 2, -1)});
  EXPECT_TRUE(acc.ok());
  EXPECT_TRUE(acc.unaccounted.empty());
}

TEST(LeaseAccounting, UnknownEventIsFlagged) {
  const LeaseAccounting acc = reconcile_leases(
      {lease("granted", 0), lease("teleported", 0), lease("teleported", 1),
       lease("committed", 0)});
  EXPECT_FALSE(acc.ok());
  EXPECT_EQ(acc.unknown, std::vector<std::string>{"teleported"});
  EXPECT_TRUE(acc.unaccounted.empty());  // an unknown event touches nothing
}

TEST(LeaseAccounting, ChunkMinusOneBookkeepingIsIgnored) {
  const LeaseAccounting acc = reconcile_leases(
      {lease("spawned", -1, 0), lease("respawned", -1, 1),
       lease("killed", -1, 0), lease("granted", -1, 1)});
  EXPECT_TRUE(acc.ok());
  EXPECT_TRUE(acc.unaccounted.empty());
}

TEST(Journal, FindRowAndFindFailMatchTheUnlockedViews) {
  // The thread-safe lookups the DSE server uses must agree with the plain
  // entries()/fails() views single-threaded code reads.
  const std::string path = tmp_path("musa_journal_find.journal");
  std::remove(path.c_str());
  ResultJournal j(path, kHeader);
  j.append("good", {"1", "2", "3"});
  j.append_fail("bad", {"io", "kernel", 2, "m"});

  std::vector<std::string> row;
  EXPECT_TRUE(j.find_row("good", &row));
  EXPECT_EQ(row, (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_FALSE(j.find_row("bad", &row));
  EXPECT_FALSE(j.find_row("missing", &row));

  ResultJournal::FailRecord fail;
  EXPECT_TRUE(j.find_fail("bad", &fail));
  EXPECT_EQ(fail.error_class, "io");
  EXPECT_EQ(fail.attempts, 2);
  EXPECT_FALSE(j.find_fail("good", &fail));
  EXPECT_FALSE(j.find_fail("missing", &fail));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace musa
