// Shared raw-socket helpers (dependency-free BSD sockets).
//
// Both socket-facing subsystems - the obs HTTP exporter and the dsx::net
// ingress front-end - need the same primitives: bind+listen a TCP socket,
// connect with a timeout, full-buffer send/recv, per-fd IO deadlines, and a
// bounded accepted-fd handoff queue between an accept loop and a worker
// pool. They live here so the second consumer shares one audited
// implementation instead of a drifting copy.
//
// Everything throws dsx::Error on setup failures (socket/bind/connect);
// steady-state IO helpers return false instead - a peer hanging up is a
// normal event, not an exception.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string>

namespace dsx::sockio {

/// Creates a CLOEXEC TCP socket bound to `bind_address:port` (IPv4 literal;
/// port 0 = ephemeral) and listening with `backlog`. Returns the fd; throws
/// dsx::Error on any failure.
int listen_tcp(const std::string& bind_address, int port, int backlog = 64);

/// The local port a listening/bound fd resolved to (reads back port 0).
int bound_port(int fd);

/// Blocking connect to `host:port` (IPv4 literal). The timeout also becomes
/// the fd's receive/send timeout. Returns the fd; throws dsx::Error.
int connect_tcp(const std::string& host, int port,
                std::chrono::milliseconds timeout);

/// Sets SO_RCVTIMEO/SO_SNDTIMEO so a stuck peer costs a bounded wait.
void set_io_timeout(int fd, std::chrono::milliseconds timeout);

/// Puts the fd in non-blocking mode (the event-loop side of dsx::net).
void set_nonblocking(int fd);

/// Sets TCP_NODELAY: small writes (reply frames) leave at once instead of
/// waiting, under Nagle's algorithm, for the peer to ACK earlier data.
/// Throws dsx::Error when the option cannot be set.
void set_nodelay(int fd);

/// Sends the whole buffer (MSG_NOSIGNAL; retries short writes). Returns
/// false on error/timeout - the peer's loss, never a throw.
bool send_all(int fd, const void* data, size_t bytes);
bool send_all(int fd, const std::string& data);

/// Receives exactly `bytes` (retries short reads). False on EOF/error.
bool recv_all(int fd, void* data, size_t bytes);

/// Bounded handoff of accepted fds from one accept loop to N workers: the
/// admission bound counts queued PLUS in-flight connections, so a slow
/// worker pool sheds at accept time instead of queueing unboundedly.
/// The caller owns shedding (what to answer an over-bound peer) and closing.
class BoundedFdQueue {
 public:
  explicit BoundedFdQueue(int max_pending_plus_inflight)
      : bound_(max_pending_plus_inflight) {}

  /// Admits `fd` when pending + in-flight < bound. False = caller sheds.
  bool try_push(int fd);
  /// Blocks until an fd is available or stop() was called with the queue
  /// empty. Returns -1 on shutdown; otherwise the fd, now counted in-flight
  /// until finish() is called.
  int pop();
  /// Marks one popped fd as done (frees its admission slot).
  void finish();
  /// Wakes every pop()er; they drain what is queued, then return -1.
  void stop();
  /// Removes and returns every queued (not yet popped) fd - the caller
  /// closes them after the workers are joined.
  std::deque<int> drain();

 private:
  const int bound_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> pending_;
  int in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace dsx::sockio
