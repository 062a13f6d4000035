#include "common/fsio.hpp"

#include <cstdio>
#include <string>

#include "common/check.hpp"

#include <sys/stat.h>

#ifdef _WIN32
#include <io.h>
#define musa_fileno _fileno
#define musa_fsync _commit
#define musa_fstat _fstat64
using musa_stat_t = struct ::_stat64;
#else
#include <unistd.h>
#define musa_fileno fileno
#define musa_fsync fsync
#define musa_fstat fstat
using musa_stat_t = struct ::stat;
#endif

namespace musa {

namespace {
void flush_and_sync(std::FILE* f, const std::string& path) {
  MUSA_CHECK_MSG(std::fflush(f) == 0, "flush failed: " + path);
  MUSA_CHECK_MSG(musa_fsync(musa_fileno(f)) == 0, "fsync failed: " + path);
}
}  // namespace

void atomic_write_file(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  MUSA_CHECK_MSG(f != nullptr, "cannot open for writing: " + tmp);
  const std::size_t written =
      content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
  if (written != content.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw SimError("short write: " + tmp);
  }
  flush_and_sync(f, tmp);
  MUSA_CHECK_MSG(std::fclose(f) == 0, "close failed: " + tmp);
#ifdef _WIN32
  std::remove(path.c_str());  // Windows rename() refuses to overwrite
#endif
  MUSA_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                 "rename failed: " + tmp + " -> " + path);
}

namespace {
FileStamp stamp_from(const musa_stat_t& st) {
  FileStamp s;
  s.exists = true;
  s.inode = static_cast<std::uint64_t>(st.st_ino);
  s.size = static_cast<std::uint64_t>(st.st_size);
  return s;
}
}  // namespace

std::string read_file_from(const std::string& path, std::uint64_t offset,
                           FileStamp* stamp) {
  if (stamp) *stamp = {};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  musa_stat_t st{};
  if (musa_fstat(musa_fileno(f), &st) != 0) {
    std::fclose(f);
    return {};
  }
  if (stamp) *stamp = stamp_from(st);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (offset >= size) {
    std::fclose(f);
    return {};
  }
  std::string out;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
    out.resize(static_cast<std::size_t>(size - offset));
    const std::size_t n = std::fread(out.data(), 1, out.size(), f);
    out.resize(n);  // the writer may still be mid-append; keep what we got
  }
  std::fclose(f);
  return out;
}

DurableAppender::DurableAppender(const std::string& path) {
  out_ = std::fopen(path.c_str(), "ab");
  MUSA_CHECK_MSG(out_ != nullptr, "cannot open for appending: " + path);
}

DurableAppender::~DurableAppender() { close(); }

void DurableAppender::append(const std::string& data) {
  MUSA_CHECK_MSG(out_ != nullptr, "append on closed file");
  MUSA_CHECK_MSG(std::fwrite(data.data(), 1, data.size(), out_) == data.size(),
                 "short append");
  flush_and_sync(out_, "<journal>");
}

void DurableAppender::close() {
  if (out_) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

}  // namespace musa
