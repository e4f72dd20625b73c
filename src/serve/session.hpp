// One connected peer: buffered line reads and mutex-serialized line
// writes over a Unix-domain stream socket.
//
// Writes come from two kinds of threads — the session's own read loop
// (accepted / rejected / stats events) and scheduler workers streaming
// a sweep's events — so WriteLine locks; each event stays one atomic
// line. A client that disconnects mid-sweep must not kill the daemon:
// sends use MSG_NOSIGNAL (no SIGPIPE) and a failed write just marks the
// session dead, the sweep runs to completion for the cache's benefit.
//
// Reads are bounded two ways: a line longer than kMaxLineBytes marks
// the session Overflowed and closes the read side (the caller answers
// with a typed protocol_error before closing — an unterminated garbage
// stream can never grow the buffer without limit), and ReadLine takes
// an optional timeout so a caller never has to block forever on a hung
// peer.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace amdmb::serve {

/// Hard cap on one NDJSON line. Large enough for any "done" event
/// (a full-sweep figure document is well under a megabyte), small
/// enough that a malicious or broken peer cannot exhaust memory.
inline constexpr std::size_t kMaxLineBytes = 8u << 20;

/// Outcome of a bounded read.
enum class ReadStatus {
  kLine,     ///< A complete line was returned.
  kTimeout,  ///< The timeout expired with no complete line.
  kClosed,   ///< EOF, socket error, or line-length overflow.
};

class Session {
 public:
  /// Takes ownership of the connected socket descriptor.
  explicit Session(int fd) : fd_(fd) {}
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Next '\n'-terminated line (terminator stripped); nullopt on EOF,
  /// error, or overflow (check Overflowed()). Blocks.
  std::optional<std::string> ReadLine();

  /// Bounded read: waits at most `timeout_ms` (-1 = forever) for a
  /// complete line into *line. Partial input is kept across timeouts.
  ReadStatus ReadLine(std::string* line, int timeout_ms);

  /// Sends `line` plus '\n' as one write. Returns false (and marks the
  /// session dead) when the peer is gone; later calls are no-ops.
  bool WriteLine(std::string_view line);

  bool Alive() const;

  /// True once a read hit the kMaxLineBytes bound; the session is
  /// unusable for further reads and should be answered with a typed
  /// protocol_error, then closed.
  bool Overflowed() const { return overflowed_; }

  /// Shuts the socket down (unblocks a ReadLine stuck in recv).
  void Close();

 private:
  int fd_;
  mutable std::mutex mutex_;  ///< Guards writes, alive_, and fd_ close.
  bool alive_ = true;
  bool overflowed_ = false;
  std::string buffer_;  ///< Bytes read past the last returned line.
};

}  // namespace amdmb::serve
