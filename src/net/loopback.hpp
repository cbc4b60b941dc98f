#pragma once
// rvhpc::net loopback harness — one in-process server and one blocking
// client for driving it, shared by the net/HTTP tests and the throughput
// benches.
//
// LoopbackServer is a Service + Server pair on ephemeral 127.0.0.1 ports
// with the accept loop on a background thread; it stops and joins on
// destruction.  LoopbackClient is a blocking socket with a receive
// timeout, so a regression fails a test or bench instead of hanging it.

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "net/net.hpp"
#include "serve/service.hpp"

namespace rvhpc::http {
class ResponseParser;
}

namespace rvhpc::net {

struct LoopbackServer {
  serve::Service service;
  Server server;
  std::ostringstream log;  ///< read it only after `loop` has joined
  std::thread loop;

  /// Opens the listeners `nopts` asks for and starts run() on `loop`.
  explicit LoopbackServer(ServerOptions nopts = {},
                          serve::Service::Options sopts = one_job());
  ~LoopbackServer();
  LoopbackServer(const LoopbackServer&) = delete;
  LoopbackServer& operator=(const LoopbackServer&) = delete;

  /// Service options with a single compute worker.
  static serve::Service::Options one_job();

  /// Waits (bounded) for `pred` over server.stats(); false on timeout.
  template <typename Pred>
  bool wait_for(Pred pred, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(5000)) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server.stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred(server.stats());
  }
};

class LoopbackClient {
 public:
  /// Connects to 127.0.0.1:`port`.  `rcvbuf` > 0 shrinks SO_RCVBUF before
  /// connecting, so the advertised window is small from the start.
  explicit LoopbackClient(std::uint16_t port,
                          std::chrono::seconds recv_timeout =
                              std::chrono::seconds(5),
                          int rcvbuf = 0);
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends every byte; false once the server has hung up.
  bool send_all(const std::string& bytes);
  void shutdown_write() const;

  /// Everything up to and including the next `delim`, or "" on
  /// EOF/timeout; bytes past it stay buffered.
  std::string recv_until(std::string_view delim);
  /// One response line (without '\n'), or "" on EOF/timeout.
  std::string recv_line();
  /// Reads until the server closes; everything received, newlines kept.
  std::string recv_until_eof();
  /// Feeds the socket into `rp` until one response completes (or the
  /// peer hangs up, which completes EOF-framed bodies).  Bytes past it
  /// stay buffered for the next pipelined response.
  bool recv_response(http::ResponseParser& rp);
  /// True when the server closed the connection (EOF within the receive
  /// timeout, no further bytes).
  bool at_eof();

 private:
  int fd_ = -1;
  std::string buffered_;
};

}  // namespace rvhpc::net
