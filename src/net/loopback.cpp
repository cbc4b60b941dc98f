#include "net/loopback.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "http/parser.hpp"

namespace rvhpc::net {

LoopbackServer::LoopbackServer(ServerOptions nopts,
                               serve::Service::Options sopts)
    : service(std::move(sopts)), server(service, nopts) {
  server.open(log);
  loop = std::thread([this] { server.run(log); });
}

LoopbackServer::~LoopbackServer() {
  server.stop();
  if (loop.joinable()) loop.join();
}

serve::Service::Options LoopbackServer::one_job() {
  serve::Service::Options o;
  o.jobs = 1;
  return o;
}

LoopbackClient::LoopbackClient(std::uint16_t port,
                               std::chrono::seconds recv_timeout, int rcvbuf) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  timeval tv{static_cast<time_t>(recv_timeout.count()), 0};
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (rcvbuf > 0) {
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LoopbackClient::~LoopbackClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LoopbackClient::send_all(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void LoopbackClient::shutdown_write() const { (void)::shutdown(fd_, SHUT_WR); }

std::string LoopbackClient::recv_until(std::string_view delim) {
  while (true) {
    const std::size_t at = buffered_.find(delim);
    if (at != std::string::npos) {
      std::string head = buffered_.substr(0, at + delim.size());
      buffered_.erase(0, at + delim.size());
      return head;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return "";
    buffered_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LoopbackClient::recv_line() {
  std::string line = recv_until("\n");
  if (!line.empty()) line.pop_back();
  return line;
}

std::string LoopbackClient::recv_until_eof() {
  std::string all = std::move(buffered_);
  buffered_.clear();
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return all;
    all.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LoopbackClient::recv_response(http::ResponseParser& rp) {
  while (!rp.complete() && !rp.failed()) {
    if (!buffered_.empty()) {
      const std::size_t used = rp.feed(buffered_);
      buffered_.erase(0, used);
      if (used > 0) continue;
    }
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      rp.finish_eof();
      break;
    }
    buffered_.append(chunk, static_cast<std::size_t>(n));
  }
  return rp.complete();
}

bool LoopbackClient::at_eof() {
  char chunk[256];
  return ::recv(fd_, chunk, sizeof(chunk), 0) == 0;
}

}  // namespace rvhpc::net
