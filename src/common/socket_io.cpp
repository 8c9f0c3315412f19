#include "common/socket_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.hpp"

namespace dsx::sockio {

namespace {

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  DSX_REQUIRE(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
              "sockio: not an IPv4 literal: " + host);
  return addr;
}

}  // namespace

int listen_tcp(const std::string& bind_address, int port, int backlog) {
  DSX_REQUIRE(port >= 0 && port <= 65535,
              "sockio: port out of range: " + std::to_string(port));
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  DSX_REQUIRE(fd >= 0, std::string("sockio: socket(): ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(bind_address, port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    DSX_REQUIRE(false, "sockio: bind(" + bind_address + ":" +
                           std::to_string(port) + "): " + std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    int err = errno;
    ::close(fd);
    DSX_REQUIRE(false,
                std::string("sockio: listen(): ") + std::strerror(err));
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  DSX_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
              std::string("sockio: getsockname(): ") + std::strerror(errno));
  return ntohs(addr.sin_port);
}

int connect_tcp(const std::string& host, int port,
                std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  DSX_REQUIRE(fd >= 0, std::string("sockio: socket(): ") + std::strerror(errno));
  set_io_timeout(fd, timeout);
  sockaddr_in addr = make_addr(host, port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    DSX_REQUIRE(false, "sockio: connect(" + host + ":" + std::to_string(port) +
                           "): " + std::strerror(err));
  }
  return fd;
}

void set_io_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  DSX_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              std::string("sockio: fcntl(O_NONBLOCK): ") +
                  std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  DSX_REQUIRE(
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0,
      std::string("sockio: setsockopt(TCP_NODELAY): ") + std::strerror(errno));
}

bool send_all(int fd, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < bytes) {
    ssize_t n = ::send(fd, p + sent, bytes - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

bool recv_all(int fd, void* data, size_t bytes) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < bytes) {
    ssize_t n = ::recv(fd, p + got, bytes - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

bool BoundedFdQueue::try_push(int fd) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return false;
    if (static_cast<int>(pending_.size()) + in_flight_ >= bound_) return false;
    pending_.push_back(fd);
  }
  cv_.notify_one();
  return true;
}

int BoundedFdQueue::pop() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return stopping_ || !pending_.empty(); });
  if (pending_.empty()) return -1;
  int fd = pending_.front();
  pending_.pop_front();
  ++in_flight_;
  return fd;
}

void BoundedFdQueue::finish() {
  std::lock_guard<std::mutex> lk(mu_);
  --in_flight_;
}

void BoundedFdQueue::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

std::deque<int> BoundedFdQueue::drain() {
  std::lock_guard<std::mutex> lk(mu_);
  std::deque<int> out;
  out.swap(pending_);
  return out;
}

}  // namespace dsx::sockio
