#include "sweep/protocol.hpp"

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace musa::sweep {

#ifndef _WIN32

void LineChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool LineChannel::send(const std::string& line) {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ < 0) return false;
  std::string data = line;
  data.push_back('\n');
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a dead peer is an expected condition the caller
    // handles (that is the whole point of this subsystem), not a SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void LineChannel::flag_babbling() {
  babbling_ = true;
  inbuf_.clear();  // the over-long tail is garbage by definition
  close();
}

bool LineChannel::split_lines(std::vector<std::string>* lines) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t eol = inbuf_.find('\n', start);
    if (eol == std::string::npos) break;
    if (eol - start > kMaxLineBytes) {  // complete but absurd: babble
      inbuf_.erase(0, start);
      flag_babbling();
      return false;
    }
    lines->push_back(inbuf_.substr(start, eol - start));
    start = eol + 1;
  }
  inbuf_.erase(0, start);
  if (inbuf_.size() > kMaxLineBytes) {  // newline-less flood
    flag_babbling();
    return false;
  }
  return true;
}

bool LineChannel::drain(std::vector<std::string>* lines) {
  if (fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      // Split as we go so a flood is cut off at the first over-long line
      // instead of after the kernel buffer has been fully slurped.
      if (!split_lines(lines)) return false;
      continue;
    }
    if (n == 0) {  // EOF: peer exited; deliver what we have
      split_lines(lines);
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    split_lines(lines);
    return false;
  }
  return split_lines(lines);
}

bool LineChannel::read_line(std::string* line) {
  if (fd_ < 0) return false;
  for (;;) {
    const std::size_t eol = inbuf_.find('\n');
    if (eol != std::string::npos) {
      if (eol > kMaxLineBytes) {
        flag_babbling();
        return false;
      }
      *line = inbuf_.substr(0, eol);
      inbuf_.erase(0, eol + 1);
      return true;
    }
    if (inbuf_.size() > kMaxLineBytes) {
      flag_babbling();
      return false;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

#else  // _WIN32: sockets and fork are POSIX-only here

void LineChannel::close() { fd_ = -1; }
bool LineChannel::send(const std::string&) { return false; }
void LineChannel::flag_babbling() {}
bool LineChannel::split_lines(std::vector<std::string>*) { return false; }
bool LineChannel::drain(std::vector<std::string>*) { return false; }
bool LineChannel::read_line(std::string*) { return false; }

#endif

}  // namespace musa::sweep
