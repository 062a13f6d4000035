// Newline framing of the serve wire (serve/wire.hpp): one JSON line per
// request or reply over a stream socket — a dse_serve client's connection
// or the AF_UNIX socketpair between the elastic controller and one of its
// forked workers.
//
// The channel is intentionally dumb: send() is mutex-guarded (a server's
// compute and I/O threads share one fd) and reports peer death as `false`
// instead of raising SIGPIPE; reads come in two flavors — a blocking
// read_line() for simple clients and a non-blocking drain() for poll
// loops.
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace musa::sweep {

class LineChannel {
 public:
  /// Longest line either side will buffer. Every legitimate frame — serve
  /// requests and replies — is orders of magnitude smaller; a peer that
  /// exceeds it (a newline-less babbler, a runaway writer) is flagged and
  /// disconnected instead of growing the receive buffer without bound.
  /// Required before any network client is allowed on the wire.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  /// Takes ownership of `fd` (closed on destruction).
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel() { close(); }

  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  int fd() const { return fd_; }
  void close();

  /// True once the peer sent an over-long line (complete or not): it is
  /// babbling, the channel has been closed, and any buffered partial tail
  /// was discarded. Lines completed *before* the flood were delivered.
  bool babbling() const { return babbling_; }

  /// Bytes currently buffered awaiting a newline (bounded by
  /// kMaxLineBytes; exposed so tests can assert the bound holds).
  std::size_t buffered() const { return inbuf_.size(); }

  /// Sends `line` plus a trailing newline. False when the peer is gone
  /// (EPIPE/reset) — never a signal. Thread-safe.
  bool send(const std::string& line);

  /// Non-blocking read (call after poll(2) reports readable): consumes
  /// everything available, appends each complete line to `lines`, and
  /// keeps a partial tail buffered for the next call. Returns false on
  /// EOF, a hard error, or an over-long line (babbling() distinguishes
  /// the last) — i.e. the peer is gone or disowned; lines drained before
  /// that are still delivered.
  bool drain(std::vector<std::string>* lines);

  /// Blocking read of one line. False on EOF/error/over-long line.
  bool read_line(std::string* line);

 private:
  /// Moves complete lines out of inbuf_. False when a line exceeds
  /// kMaxLineBytes (delivered lines up to it are kept).
  bool split_lines(std::vector<std::string>* lines);
  /// Marks the peer babbling: close, drop the partial tail.
  void flag_babbling();

  int fd_ = -1;
  std::string inbuf_;
  bool babbling_ = false;
  std::mutex send_mu_;
};

}  // namespace musa::sweep
