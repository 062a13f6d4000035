// Durable file-system primitives shared by the CSV cache and the sweep
// journal: atomic whole-file replacement (tmp + fsync + rename) and an
// fsync'd append handle. Both exist so that a crash at any instant leaves
// either the old artifact or the new one on disk — never a half-written
// hybrid that parses cleanly and silently corrupts downstream figures.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace musa {

/// Writes `content` to `path` atomically: the bytes land in `<path>.tmp`,
/// are flushed and fsync'd, and the temp file is rename(2)'d over `path`.
/// Readers see either the previous file or the complete new one.
void atomic_write_file(const std::string& path, const std::string& content);

/// Identity snapshot of a file, for detecting replacement (an atomic
/// rewrite swaps the inode) and truncation between reads. `inode` is 0 on
/// platforms without one; `size` alone still catches truncation there.
struct FileStamp {
  bool exists = false;
  std::uint64_t inode = 0;
  std::uint64_t size = 0;
};

/// Reads `path` from byte `offset` to EOF. When `stamp` is non-null it is
/// filled from the *open* handle (fstat), so identity and content are a
/// consistent snapshot — the caller can detect that the file it read is not
/// the file it expected, with no stat-then-open race. A missing file reads
/// as empty with `stamp->exists == false`; an offset past EOF reads empty.
std::string read_file_from(const std::string& path, std::uint64_t offset,
                           FileStamp* stamp = nullptr);

/// Append-only file handle whose append() does not return until the bytes
/// are flushed and fsync'd — the durability backbone of the sweep journal.
/// Not thread-safe; callers serialise externally.
class DurableAppender {
 public:
  /// Opens `path` for appending, creating it if absent; throws SimError on
  /// failure.
  explicit DurableAppender(const std::string& path);
  ~DurableAppender();

  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  /// Appends `data` verbatim, then fflush + fsync.
  void append(const std::string& data);

  void close();

 private:
  std::FILE* out_ = nullptr;
};

}  // namespace musa
