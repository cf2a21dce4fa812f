#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "transport/io_util.h"

namespace helios::transport {

TcpTransport::TcpTransport(MessageHandler handler)
    : handler_(std::move(handler)) {}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::Listen(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind() failed: ") +
                            std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 16) < 0) {
    return Status::Internal("listen() failed");
  }
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::Ok();
}

void TcpTransport::AcceptLoop() {
  while (!shutdown_.load()) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (shutdown_.load()) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SpawnReader(fd);
  }
}

void TcpTransport::SpawnReader(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  // A connection accepted just before Shutdown() cleared inbound_fds_
  // would get a reader nobody unblocks, and Shutdown() would join it
  // forever. Shutdown() sets shutdown_ before it takes mu_, so checking
  // it here under mu_ closes that window.
  if (shutdown_.load()) {
    ::close(fd);
    return;
  }
  inbound_fds_.push_back(fd);
  readers_.emplace_back([this, fd]() { ReadLoop(fd); });
}

void TcpTransport::ReadLoop(int fd) {
  for (;;) {
    uint8_t header[4];
    if (!ReadFull(fd, header, 4)) break;
    const uint32_t len = static_cast<uint32_t>(header[0]) |
                         static_cast<uint32_t>(header[1]) << 8 |
                         static_cast<uint32_t>(header[2]) << 16 |
                         static_cast<uint32_t>(header[3]) << 24;
    if (len > (64u << 20)) break;  // 64 MiB sanity cap.
    std::vector<uint8_t> payload(len);
    if (len > 0 && !ReadFull(fd, payload.data(), len)) break;
    ++messages_received_;
    if (handler_) handler_(std::move(payload));
  }
  ::close(fd);
}

int TcpTransport::DialPeer(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status TcpTransport::Connect(DcId to, uint16_t port) {
  {
    // A peer blocked before it was ever dialed (supervisor partition at
    // startup): remember the port, refuse the connection.
    std::lock_guard<std::mutex> lock(mu_);
    for (Peer& p : peers_) {
      if (p.id == to && p.blocked) {
        p.port = port;
        return Status::Ok();
      }
    }
  }
  // Retry briefly: peers may still be binding.
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = DialPeer(port);
    if (fd >= 0) {
      std::lock_guard<std::mutex> lock(mu_);
      for (Peer& p : peers_) {
        if (p.id != to) continue;
        if (p.fd >= 0) ::close(p.fd);
        p.fd = p.blocked ? -1 : fd;
        if (p.blocked) ::close(fd);
        p.port = port;
        return Status::Ok();
      }
      Peer p{};
      p.id = to;
      p.fd = fd;
      p.port = port;
      peers_.push_back(p);
      return Status::Ok();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("could not connect to peer " +
                             std::to_string(to));
}

void TcpTransport::SetPeerBlocked(DcId to, bool blocked) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Peer& p : peers_) {
    if (p.id != to) continue;
    p.blocked = blocked;
    // Cut the live connection so in-flight kernel buffers drain to
    // nowhere; healing redials a fresh socket on the next send.
    if (blocked && p.fd >= 0) {
      ::close(p.fd);
      p.fd = -1;
    }
    return;
  }
  // No connection yet: remember the decision for a future Connect().
  Peer p{};
  p.id = to;
  p.fd = -1;
  p.port = 0;
  p.blocked = blocked;
  peers_.push_back(p);
}

Status TcpTransport::SendOnce(DcId to, const uint8_t* data, size_t len) {
  uint8_t header[4] = {
      static_cast<uint8_t>(len & 0xFF),
      static_cast<uint8_t>((len >> 8) & 0xFF),
      static_cast<uint8_t>((len >> 16) & 0xFF),
      static_cast<uint8_t>((len >> 24) & 0xFF),
  };
  std::lock_guard<std::mutex> lock(mu_);  // One writer at a time per fd.
  Peer* peer = nullptr;
  for (Peer& p : peers_) {
    if (p.id == to) {
      peer = &p;
      break;
    }
  }
  if (peer == nullptr) {
    return Status::FailedPrecondition("no connection to peer");
  }
  if (peer->blocked) {
    ++sends_blocked_;
    return Status::Unavailable("peer blocked");
  }
  if (peer->fd < 0) return Status::Unavailable("peer disconnected");
  if (!WriteFull(peer->fd, header, 4) || !WriteFull(peer->fd, data, len)) {
    // The connection is dead (peer restarted or reset the socket): close
    // it so Send() redials on a fresh fd instead of writing into a pipe
    // that will never drain.
    ::close(peer->fd);
    peer->fd = -1;
    return Status::Unavailable("send failed");
  }
  ++messages_sent_;
  return Status::Ok();
}

Status TcpTransport::Send(DcId to, const uint8_t* data, size_t len) {
  Status s = SendOnce(to, data, len);
  if (s.ok() || s.code() == StatusCode::kFailedPrecondition) return s;

  // The connection died (or never existed). Redial once — never sleep:
  // Send() runs on the datacenter's event-loop thread, and a peer that
  // stays down for seconds must cost a fast ECONNREFUSED per log tick,
  // not a blocking backoff that stalls every other timer and client.
  // A per-peer cooldown keeps a long outage from turning every tick into
  // a dial attempt.
  if (shutdown_.load()) return s;
  const auto now = std::chrono::steady_clock::now();
  uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Peer& p : peers_) {
      if (p.id != to) continue;
      if (p.blocked || p.port == 0) return s;
      if (p.fd >= 0) break;  // Another sender already reconnected.
      if (now < p.next_redial) return s;  // Still cooling down.
      p.next_redial = now + std::chrono::milliseconds(kRedialCooldownMs);
      port = p.port;
      break;
    }
  }
  if (port != 0) {
    const int fd = DialPeer(port);
    if (fd < 0) return Status::Unavailable("send failed; redial refused");
    bool installed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Peer& p : peers_) {
        if (p.id == to && p.fd < 0 && !p.blocked) {
          p.fd = fd;
          p.next_redial = {};  // Healthy again: no cooldown.
          installed = true;
          break;
        }
      }
    }
    if (!installed) {
      ::close(fd);  // Another sender already reconnected (or blocked).
    } else {
      ++reconnects_;
    }
  }
  return SendOnce(to, data, len);
}

int64_t TcpTransport::redial_cooldown_remaining_ms() const {
  const auto now = std::chrono::steady_clock::now();
  int64_t worst = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Peer& p : peers_) {
    if (p.fd >= 0 || p.blocked) continue;  // Connected / administratively cut.
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        p.next_redial - now);
    if (left.count() > worst) worst = left.count();
  }
  return worst;
}

void TcpTransport::Shutdown() {
  if (shutdown_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Peer& p : peers_) {
      if (p.fd < 0) continue;
      ::shutdown(p.fd, SHUT_RDWR);
      ::close(p.fd);
    }
    peers_.clear();
    // Unblock reader threads parked in recv() on accepted connections.
    for (int fd : inbound_fds_) ::shutdown(fd, SHUT_RDWR);
    inbound_fds_.clear();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    readers.swap(readers_);
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
}

}  // namespace helios::transport
