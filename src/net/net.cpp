#include "net/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <utility>

#include "engine/thread_pool.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace rvhpc::net {
namespace {

using serve::now_us;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// A transport-level error in the service's error-response shape (no
/// trailing newline), so a client can parse every line it ever receives
/// the same way.
std::string error_body(const char* kind, const std::string& message) {
  return std::string("{\"id\": \"\", \"status\": \"error\", \"error\": \"") +
         kind + "\", \"message\": \"" + obs::json::escape(message) + "\"}";
}

/// The newline-terminated farewell variant (written straight to a write
/// buffer, outside the response-delivery path).
std::string error_line(const char* kind, const std::string& message) {
  return error_body(kind, message) + "\n";
}

// --- net-level metrics ----------------------------------------------------

enum class Count { Connection, Answered };

void count(Count which, std::uint64_t n = 1) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& conns = obs::Registry::global().counter(
      "rvhpc_net_connections_total", "TCP connections accepted");
  static obs::Counter& answered = obs::Registry::global().counter(
      "rvhpc_net_requests_total", "request lines answered over TCP");
  switch (which) {
    case Count::Connection: conns.add(n); break;
    case Count::Answered:   answered.add(n); break;
  }
}

void count_bytes(bool in, std::uint64_t n) {
  if (!obs::metrics_enabled() || n == 0) return;
  static obs::Counter& read = obs::Registry::global().counter(
      "rvhpc_net_bytes_read_total", "payload bytes received over TCP");
  static obs::Counter& written = obs::Registry::global().counter(
      "rvhpc_net_bytes_written_total", "response bytes written over TCP");
  (in ? read : written).add(n);
}

void count_disconnect(Disconnect cause) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& eof = obs::Registry::global().counter(
      "rvhpc_net_disconnects_eof_total", "connections closed by the client");
  static obs::Counter& idle = obs::Registry::global().counter(
      "rvhpc_net_disconnects_idle_total",
      "connections dropped by the idle timeout");
  static obs::Counter& oversize = obs::Registry::global().counter(
      "rvhpc_net_disconnects_oversize_total",
      "connections dropped for an oversized request line");
  static obs::Counter& slow = obs::Registry::global().counter(
      "rvhpc_net_disconnects_slow_reader_total",
      "connections dropped for not draining their responses");
  static obs::Counter& refused = obs::Registry::global().counter(
      "rvhpc_net_disconnects_refused_total",
      "connections refused past the connection cap");
  static obs::Counter& error = obs::Registry::global().counter(
      "rvhpc_net_disconnects_error_total",
      "connections dropped on a socket error");
  static obs::Counter& drained = obs::Registry::global().counter(
      "rvhpc_net_disconnects_drained_total",
      "connections open when the server drained");
  // Newer causes use the labeled-series convention (one metric, a
  // reason label) rather than minting another _disconnects_<cause>_
  // name; the legacy names above predate it and stay for dashboards.
  static obs::Counter& header_timeout = obs::Registry::global().counter(
      "rvhpc_net_disconnect_total{reason=\"header_timeout\"}",
      "connections dropped for dribbling a request past the header "
      "deadline");
  switch (cause) {
    case Disconnect::Eof:        eof.add(); break;
    case Disconnect::Idle:       idle.add(); break;
    case Disconnect::Oversize:   oversize.add(); break;
    case Disconnect::SlowReader: slow.add(); break;
    case Disconnect::Refused:    refused.add(); break;
    case Disconnect::Error:      error.add(); break;
    case Disconnect::Drained:    drained.add(); break;
    case Disconnect::HeaderTimeout: header_timeout.add(); break;
  }
}

/// Per-route, per-status HTTP request counter.  The obs registry is a
/// flat name→instrument map, so Prometheus labels are embedded in the
/// name; the registry dedupes repeat lookups.
void count_http(const char* route, int status) {
  if (!obs::metrics_enabled()) return;
  // The overwhelmingly common series is a successful predict; caching its
  // instrument keeps the per-request cost at one compare instead of a
  // name build plus a locked registry lookup (the http_throughput gate
  // measures this path against the raw wire).
  static obs::Counter& predict_ok = obs::Registry::global().counter(
      "rvhpc_http_requests_total{route=\"/v1/predict\",status=\"200\"}",
      "HTTP exchanges completed, by route and status");
  if (status == 200 && std::strcmp(route, "/v1/predict") == 0) {
    predict_ok.add();
  } else {
    std::string name = "rvhpc_http_requests_total{route=\"";
    name += route;
    name += "\",status=\"";
    name += std::to_string(status);
    name += "\"}";
    obs::Registry::global()
        .counter(name, "HTTP exchanges completed, by route and status")
        .add();
  }
  static obs::Histogram& statuses = obs::Registry::global().histogram(
      "rvhpc_http_response_status", "HTTP status codes answered",
      {99.5, 199.5, 299.5, 399.5, 499.5, 599.5});
  statuses.observe(static_cast<double>(status));
}

void observe_http_duration(double start_us) {
  if (!obs::metrics_enabled()) return;
  static obs::Histogram& duration = obs::Registry::global().histogram(
      "rvhpc_http_request_duration_seconds",
      "wall time from a parsed HTTP request to its response head");
  duration.observe((now_us() - start_us) / 1e6);
}

/// Extracts the first complete line (without the '\n', trailing '\r'
/// stripped) from `buf`; false when no newline is buffered yet.
bool take_line(std::string& buf, std::string& line) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buf, 0, nl);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  buf.erase(0, nl + 1);
  return true;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

/// std::cerr's buffer for the length of a stdio session (installed by the
/// constructor, removed by the destructor).  fds 0 and 1 often share one
/// open file description with fd 2 — a terminal, or `2>&1` into the same
/// pipe — so the O_NONBLOCK the shard sets on them lands on the log too.
/// This buffer writes fd 2 directly and waits out EAGAIN, so no log line
/// is lost while the session is open.
class BlockingStderr : public std::streambuf {
 public:
  BlockingStderr() : saved_(std::cerr.rdbuf(this)) {}
  ~BlockingStderr() override { std::cerr.rdbuf(saved_); }
  BlockingStderr(const BlockingStderr&) = delete;
  BlockingStderr& operator=(const BlockingStderr&) = delete;

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    return write_all(&c, 1) ? ch : traits_type::eof();
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return write_all(s, static_cast<std::size_t>(n)) ? n : 0;
  }

 private:
  static bool write_all(const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(STDERR_FILENO, p, n);
      if (w > 0) {
        p += w;
        n -= static_cast<std::size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd out{STDERR_FILENO, POLLOUT, 0};
        (void)::poll(&out, 1, -1);  // any outcome: retry the write
      } else if (w < 0 && errno != EINTR) {
        return false;
      }
    }
    return true;
  }

  std::streambuf* saved_;
};

}  // namespace

const char* to_string(Disconnect cause) {
  switch (cause) {
    case Disconnect::Eof:        return "eof";
    case Disconnect::Idle:       return "idle";
    case Disconnect::Oversize:   return "oversize";
    case Disconnect::SlowReader: return "slow-reader";
    case Disconnect::Refused:    return "refused";
    case Disconnect::Error:      return "error";
    case Disconnect::Drained:    return "drained";
    case Disconnect::HeaderTimeout: return "header-timeout";
  }
  return "unknown";
}

// --- Listener -------------------------------------------------------------

Listener::~Listener() { close(); }

void Listener::open(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    close();
    throw std::runtime_error("cannot bind 127.0.0.1:" + std::to_string(port) +
                             ": " + detail);
  }
  if (::listen(fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    close();
    throw std::runtime_error("listen() failed: " + detail);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  set_nonblocking(fd_);
}

int Listener::accept_client() const {
  if (fd_ < 0) return -1;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client >= 0) set_nonblocking(client);
  return client;
}

void Listener::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  port_ = 0;
}

namespace detail {

// --- counters ----------------------------------------------------------------

constexpr std::size_t kDisconnectCauses =
    static_cast<std::size_t>(Disconnect::HeaderTimeout) + 1;

/// One shard's share of ServerStats as relaxed atomics, on its own cache
/// line: a request is counted without a lock and without touching another
/// shard's line, and Server::stats() sums the shards.  `connections` is
/// written by the acceptor, everything else by the owning shard's thread.
struct alignas(64) ShardCounters {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> dispatched{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> http_requests{0};
  std::array<std::atomic<std::uint64_t>, kDisconnectCauses> disconnects{};
};

void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

// --- per-connection state (owned exclusively by one shard) ----------------

/// One admitted request awaiting delivery.  `ordered` requests (no "id" on
/// the wire) must be delivered in admission order; unordered ones deliver
/// the moment their result is ready, from any position in the deque.
struct Pending {
  std::uint64_t seq = 0;
  bool ordered = true;
  bool done = false;       ///< `response` is final
  bool delivered = false;  ///< appended to the write buffer (or dropped)
  std::future<std::string> result;  ///< compute phase, when dispatched
  std::string response;             ///< no trailing newline
};

/// One HTTP request/response pair in flight on a connection.  Exchanges
/// answer strictly in request order (HTTP pipelining), so only the front
/// of Connection::exchanges ever writes to the socket; a batch POST
/// streams each prediction as a chunk the moment it completes (subject
/// to the same ordered/unordered id contract as the raw wire).
struct HttpExchange {
  int status = 200;
  const char* route = "other";  ///< http::route_label, stable storage
  const char* allow = "";       ///< Allow header for 405 responses
  const char* content_type = "application/json";
  bool chunked = false;    ///< batch predict: stream items as chunks
  bool immediate = false;  ///< `body` is final; no items pending
  bool head_sent = false;
  bool head_only = false;  ///< HEAD request: send the head, omit the body
  bool keep_alive = true;
  bool healthz = false;  ///< status/body computed at delivery (drain-aware)
  bool metrics = false;  ///< body rendered at delivery (scrape ordering)
  std::string body;
  // Predict lines awaiting completion.  A vector with a front cursor
  // instead of a deque: the common single-request exchange then costs
  // one allocation, not a deque block map (this path is what the
  // http_throughput gate measures against the raw wire).
  std::vector<Pending> items;
  std::size_t next_item = 0;  ///< first item not yet consumed in order
  double start_us = 0.0;
};

struct Connection {
  int rfd = -1;  ///< read side; -1 once the connection is closed
  int wfd = -1;  ///< write side: rfd for a socket, stdout for stdio
  /// Stdio: the fds belong to the caller of run_stdio().  They are never
  /// closed; their original file-status flags are put back on close.
  bool borrowed = false;
  int rflags = 0;
  int wflags = 0;
  std::string rbuf;
  std::string wbuf;
  std::deque<Pending> pending;
  std::uint64_t next_seq = 0;
  double last_read_us = 0.0;
  /// When the currently-unfinished request's first byte arrived; 0 when
  /// no request is mid-frame.  Unlike last_read_us this is *not* advanced
  /// by further bytes — a slow loris dripping one header byte per
  /// interval keeps resetting the idle clock but never this one.
  double partial_since_us = 0.0;
  double closing_since_us = 0.0;
  bool draining = false;  ///< EOF seen; answering what is buffered
  bool closing = false;   ///< farewell queued; close once it is flushed
  Disconnect cause = Disconnect::Eof;
  // HTTP front end (connections accepted by the HTTP listener only).
  bool http = false;
  bool sent_continue = false;  ///< 100 Continue emitted for this request
  std::unique_ptr<http::RequestParser> parser;
  std::deque<HttpExchange> exchanges;
};

/// Gives a closing connection's fds back: a socket is closed, a borrowed
/// stdio pair gets its original flags back and stays open.
void release_fds(Connection& c) {
  if (c.borrowed) {
    (void)::fcntl(c.rfd, F_SETFL, c.rflags);
    (void)::fcntl(c.wfd, F_SETFL, c.wflags);
  } else {
    ::close(c.rfd);
  }
  c.rfd = c.wfd = -1;
}

/// Locates a dispatched request by per-connection sequence number — it
/// lives either on the raw-wire deque or inside an HTTP exchange.
Pending* find_pending(Connection& c, std::uint64_t seq) {
  for (Pending& p : c.pending) {
    if (p.seq == seq) return &p;
  }
  for (HttpExchange& ex : c.exchanges) {
    for (Pending& p : ex.items) {
      if (p.seq == seq) return &p;
    }
  }
  return nullptr;
}

// --- CacheFlusher: the background checkpoint thread -----------------------

/// Owns the thread that writes the persistent cache.  Shards and pool
/// workers only ever notify() it — the file write (and its "serve:
/// checkpointed" log line) never runs on an event loop or a compute
/// worker.  Destruction performs the drain-time flush and joins.
class CacheFlusher {
 public:
  CacheFlusher(serve::Service& service, std::ostream& log)
      : service_(service), log_(log), thread_([this] { loop(); }) {}

  ~CacheFlusher() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  CacheFlusher(const CacheFlusher&) = delete;
  CacheFlusher& operator=(const CacheFlusher&) = delete;

  void notify() {
    {
      std::lock_guard lock(mu_);
      due_ = true;
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return due_ || stop_; });
      const bool stopping = stop_;
      due_ = false;
      lock.unlock();
      // On stop this doubles as the drain-time checkpoint, so the log and
      // the cache file look exactly like the single-threaded server's.
      service_.flush(log_);
      lock.lock();
      if (stopping) return;
    }
  }

  serve::Service& service_;
  std::ostream& log_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool due_ = false;
  bool stop_ = false;
  std::thread thread_;
};

// --- Shard: one event loop ------------------------------------------------

/// One poll() loop on its own thread.  The acceptor deals sockets in via
/// adopt(); the compute pool reports finished futures via on_complete();
/// both poke the wakeup pipe so the loop reacts immediately instead of on
/// the next poll timeout.  Every Connection is touched by exactly one
/// shard thread — the pool only ever holds a weak_ptr it never
/// dereferences — so connection state needs no locks.
class Shard {
 public:
  Shard(Server& server, std::size_t index);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();
  void request_stop();
  void join();

  /// One connection handed over by the acceptor: an accepted socket
  /// (rfd == wfd) or the borrowed stdio pair.  `refused` connections get
  /// the polite "overloaded" farewell (a structured line on the raw wire,
  /// a 503 + Retry-After over HTTP) and close.  `http` fixes the
  /// connection's protocol for its lifetime.
  struct Incoming {
    int rfd = -1;
    int wfd = -1;
    bool borrowed = false;
    bool refused = false;
    bool http = false;
  };

  /// Hands a connection to this shard (acceptor thread).
  void adopt(const Incoming& in);

  /// A dispatched compute phase finished (pool thread): queue the
  /// completion and wake the loop so the response is delivered now.
  void on_complete(const std::weak_ptr<Connection>& conn, std::uint64_t seq);

 private:
  struct Completion {
    std::weak_ptr<Connection> conn;
    std::uint64_t seq = 0;
  };

  void loop();
  void drain();
  void wake();
  void drain_wakeup();
  void adopt_incoming();
  void read_ready(Connection& c);
  bool admit_one(const std::shared_ptr<Connection>& cp);
  bool process_http_one(const std::shared_ptr<Connection>& cp);
  void handle_http_request(const std::shared_ptr<Connection>& cp);
  void fail_http(Connection& c, http::Error err);
  void flush_http(Connection& c);
  bool append_out(Connection& c, std::string_view data);
  void finish_exchange(Connection& c, const HttpExchange& ex);
  void process_lines();
  Pending evaluate_line(const std::shared_ptr<Connection>& cp,
                        const std::string& line);
  void dispatch(const std::shared_ptr<Connection>& cp, Pending& p,
                serve::Service::Admission adm);
  void deliver(Connection& c, Pending& p);
  void note_answered();
  void flush_deliverable(Connection& c);
  void drain_completions();
  void flush_writes();
  void reap_and_time_out();
  void begin_close(Connection& c, Disconnect cause,
                   const std::string& farewell);
  void close_now(Connection& c, Disconnect cause);
  void publish_gauges() const;

  Server& server_;
  const std::size_t index_;
  ShardCounters& counters_;  ///< this shard's slot of Server::counters_
  int wake_fds_[2] = {-1, -1};  ///< [0] read end (polled), [1] write end
  std::thread thread_;
  std::atomic<bool> stop_{false};

  std::mutex in_mu_;
  std::vector<Incoming> incoming_;
  std::mutex cq_mu_;
  std::vector<Completion> completions_;

  // Loop-thread-only state.
  std::vector<std::shared_ptr<Connection>> conns_;
  std::size_t rr_ = 0;       ///< round-robin fairness cursor
  std::string http_scratch_;  ///< response head/chunk build buffer

  obs::Counter* conns_counter_ = nullptr;
  obs::Counter* reqs_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

Shard::Shard(Server& server, std::size_t index)
    : server_(server), index_(index), counters_(server.counters_[index]) {
  if (::pipe(wake_fds_) == 0) {
    set_nonblocking(wake_fds_[0]);
    set_nonblocking(wake_fds_[1]);
  } else {
    wake_fds_[0] = wake_fds_[1] = -1;  // degraded: poll-timeout latency only
  }
  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::global();
    const std::string prefix = "rvhpc_net_shard_" + std::to_string(index);
    conns_counter_ = &reg.counter(prefix + "_connections_total",
                                  "connections adopted by this shard");
    reqs_counter_ = &reg.counter(prefix + "_requests_total",
                                 "response lines delivered by this shard");
    depth_gauge_ =
        &reg.gauge(prefix + "_queue_depth_bytes",
                   "request bytes buffered on this shard, not yet admitted");
  }
}

Shard::~Shard() {
  request_stop();
  join();
  for (auto& c : conns_) {
    if (c->rfd >= 0) release_fds(*c);
  }
  for (const Incoming& in : incoming_) {
    if (!in.borrowed) ::close(in.rfd);
  }
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void Shard::start() {
  thread_ = std::thread([this] { loop(); });
}

void Shard::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake();
}

void Shard::join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::adopt(const Incoming& in) {
  {
    std::lock_guard lock(in_mu_);
    incoming_.push_back(in);
  }
  wake();
}

void Shard::on_complete(const std::weak_ptr<Connection>& conn,
                        std::uint64_t seq) {
  {
    std::lock_guard lock(cq_mu_);
    completions_.push_back({conn, seq});
  }
  wake();
}

void Shard::wake() {
  if (wake_fds_[1] < 0) return;
  // Best-effort and non-blocking: a full pipe already guarantees the loop
  // has wakeups queued, and the poll timeout backstops a lost byte.
  const char byte = 0;
  (void)!::write(wake_fds_[1], &byte, 1);
}

void Shard::drain_wakeup() {
  if (wake_fds_[0] < 0) return;
  char sink[256];
  while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
  }
}

void Shard::adopt_incoming() {
  std::vector<Incoming> in;
  {
    std::lock_guard lock(in_mu_);
    in.swap(incoming_);
  }
  for (const Incoming& inc : in) {
    auto c = std::make_shared<Connection>();
    c->rfd = inc.rfd;
    c->wfd = inc.wfd;
    c->http = inc.http;
    if (inc.borrowed) {
      // Both flag words are read before either is changed: fds 0 and 1
      // may share one file description.
      c->borrowed = true;
      c->rflags = ::fcntl(c->rfd, F_GETFL, 0);
      c->wflags = ::fcntl(c->wfd, F_GETFL, 0);
      set_nonblocking(c->rfd);
      set_nonblocking(c->wfd);
    }
    c->last_read_us = now_us();
    if (inc.http) {
      http::Limits limits;
      limits.max_body = server_.opts_.max_body_bytes;
      c->parser = std::make_unique<http::RequestParser>(limits);
    }
    if (conns_counter_) conns_counter_->add();
    if (inc.refused) {
      // Polite refusal: a structured answer beats a dangling connect.
      const std::string reason =
          "connection limit (" +
          std::to_string(server_.opts_.max_connections) +
          ") reached; retry later";
      if (inc.http) {
        const std::string body = error_line("overloaded", reason);
        std::string farewell;
        http::append_head(farewell, 503, /*keep_alive=*/false,
                          "application/json", body.size(),
                          "Retry-After: 1\r\n");
        farewell += body;
        count_http("other", 503);
        begin_close(*c, Disconnect::Refused, farewell);
      } else {
        begin_close(*c, Disconnect::Refused, error_line("overloaded", reason));
      }
    }
    conns_.push_back(std::move(c));
  }
}

void Shard::begin_close(Connection& c, Disconnect cause,
                        const std::string& farewell) {
  if (c.closing) return;
  // The farewell rides the normal write path; if even that does not fit
  // the bound the client is hopeless and the buffer stays as-is.
  if (c.wbuf.size() + farewell.size() <= server_.opts_.max_write_buffer) {
    c.wbuf += farewell;
  }
  c.rbuf.clear();
  c.closing = true;
  c.cause = cause;
  c.closing_since_us = now_us();
}

void Shard::close_now(Connection& c, Disconnect cause) {
  if (c.rfd < 0) return;
  release_fds(c);
  server_.open_conns_.fetch_sub(1, std::memory_order_relaxed);
  count_disconnect(cause);
  bump(counters_.disconnects[static_cast<std::size_t>(cause)]);
}

void Shard::read_ready(Connection& c) {
  char chunk[4096];
  while (!c.draining && !c.closing &&
         c.rbuf.size() <= server_.opts_.max_line_bytes) {
    const ssize_t n = ::read(c.rfd, chunk, sizeof(chunk));
    if (n > 0) {
      c.rbuf.append(chunk, static_cast<std::size_t>(n));
      c.last_read_us = now_us();
      count_bytes(true, static_cast<std::uint64_t>(n));
      bump(counters_.bytes_in, static_cast<std::uint64_t>(n));
      // A short read emptied the kernel buffer: poll() is level-triggered
      // and reports whatever arrives next, so a read that would only
      // answer EAGAIN is not worth a syscall.
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return;
    } else if (n == 0) {
      // EOF: the client is done sending.  Its buffered complete lines are
      // still answered; a trailing partial line is discarded on a socket
      // (a client that died mid-request) but is the last request of a
      // stdio stream, whose final newline is optional.
      if (c.borrowed && !c.rbuf.empty() && c.rbuf.back() != '\n') {
        c.rbuf += '\n';
      }
      c.draining = true;
      c.cause = Disconnect::Eof;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno == EINTR) {
      continue;
    } else {
      close_now(c, Disconnect::Error);
      return;
    }
  }
}

/// Admits at most one buffered line of `cp`; true when a line was consumed
/// (the round-robin scheduler uses this to detect an idle pass).
bool Shard::admit_one(const std::shared_ptr<Connection>& cp) {
  Connection& c = *cp;
  if (c.rfd < 0 || c.closing) return false;
  // Stdio backpressure: its one reader is whatever consumes stdout, and a
  // slow one (a pager, a filter) must slow the server down, not lose
  // answers.  Lines wait in rbuf, and reading stops once that is full,
  // until the write buffer drains.  A socket past the bound is a slow
  // reader instead (deliver()).
  if (c.borrowed && c.wbuf.size() >= server_.opts_.max_write_buffer) {
    return false;
  }

  std::string line;
  if (!take_line(c.rbuf, line)) {
    // No complete line.  A partial line past the bound can never complete
    // within it — reject it now rather than buffering forever.
    if (c.rbuf.size() > server_.opts_.max_line_bytes) {
      begin_close(c, Disconnect::Oversize,
                  error_line("overloaded",
                             "request line exceeds " +
                                 std::to_string(server_.opts_.max_line_bytes) +
                                 " bytes"));
    }
    return false;
  }
  if (blank(line)) return true;  // consumed input, no response owed
  if (line.size() > server_.opts_.max_line_bytes) {
    begin_close(c, Disconnect::Oversize,
                error_line("overloaded",
                           "request line exceeds " +
                               std::to_string(server_.opts_.max_line_bytes) +
                               " bytes"));
    return false;
  }
  c.pending.push_back(evaluate_line(cp, line));
  flush_deliverable(c);
  return true;
}

/// The protocol-independent admission core: turns one request line into a
/// Pending — resolved inline (overloaded rejection, parse/lint error,
/// warm cache hit) or dispatched to the compute pool.  The raw wire
/// pushes the result onto Connection::pending; the HTTP front end onto
/// the owning exchange's items.
Pending Shard::evaluate_line(const std::shared_ptr<Connection>& cp,
                             const std::string& line) {
  Connection& c = *cp;
  Pending p;
  p.seq = c.next_seq++;

  // A single line past the wire bound answers an error instead of ever
  // being parsed (over HTTP the connection survives — the body bound
  // already capped total memory; on the raw wire admit_one closed it).
  if (line.size() > server_.opts_.max_line_bytes) {
    p.ordered = false;
    p.done = true;
    p.response = error_body(
        "overloaded", "request line exceeds " +
                          std::to_string(server_.opts_.max_line_bytes) +
                          " bytes");
    return p;
  }

  // Admission bound, checked before the parse on every transport: compute
  // dispatched and not yet completed past the service's queue capacity is
  // answered "overloaded" immediately.
  if (server_.inflight_.load(std::memory_order_relaxed) >=
      server_.service_.options().queue_capacity) {
    p.ordered = false;
    p.done = true;
    p.response = server_.service_.reject_overloaded();
    return p;
  }

  serve::Service::Admission adm = server_.service_.admit(line);
  p.ordered = !adm.had_id;
  if (!adm.request) {
    // Resolved at admission (parse error, lint rejection).
    p.done = true;
    p.response = std::move(adm.response);
    return p;
  }
  if (std::optional<std::string> warm = server_.service_.complete_if_cached(
          *adm.request, adm.arrival_us)) {
    // Warm path: one memo probe answers inline on the event loop — cheaper
    // than a pool handoff, and it is what keeps cached hits flowing on
    // every connection while uncached requests compute.
    p.done = true;
    p.response = *std::move(warm);
    if (server_.service_.note_evaluation() && server_.flusher_) {
      server_.flusher_->notify();
    }
    return p;
  }
  dispatch(cp, p, std::move(adm));
  return p;
}

void Shard::dispatch(const std::shared_ptr<Connection>& cp, Pending& p,
                     serve::Service::Admission adm) {
  // packaged_task owns the compute phase: its future carries the response
  // (or the exception) back to the loop thread, and running it *before*
  // poking the shard guarantees the future is ready when the loop calls
  // get().
  auto task = std::make_shared<std::packaged_task<std::string()>>(
      [service = &server_.service_, req = adm.request,
       arrival = adm.arrival_us] { return service->complete(*req, arrival); });
  p.result = task->get_future();
  const std::uint64_t seq = p.seq;

  server_.inflight_.fetch_add(1, std::memory_order_relaxed);
  bump(counters_.dispatched);
  std::weak_ptr<Connection> wk = cp;
  server_.pool_->submit([this, task, wk = std::move(wk), seq] {
    (*task)();
    const bool checkpoint_due = server_.service_.note_evaluation();
    server_.inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (checkpoint_due && server_.flusher_) server_.flusher_->notify();
    on_complete(wk, seq);
  });
}

/// Appends to the write buffer under the slow-reader bound; false (and
/// the connection is gone) when the client is not draining responses.
bool Shard::append_out(Connection& c, std::string_view data) {
  if (c.wbuf.size() + data.size() > server_.opts_.max_write_buffer) {
    close_now(c, Disconnect::SlowReader);
    return false;
  }
  c.wbuf.append(data);
  return true;
}

/// Feeds buffered bytes to the connection's request parser and turns at
/// most one completed request into an exchange per pass (the same
/// round-robin fairness admit_one gives the raw wire).  True when any
/// input was consumed or a request was handled.
bool Shard::process_http_one(const std::shared_ptr<Connection>& cp) {
  Connection& c = *cp;
  if (c.rfd < 0 || c.closing) return false;
  http::RequestParser& parser = *c.parser;

  bool progress = false;
  if (!c.rbuf.empty()) {
    const std::size_t used = parser.feed(c.rbuf);
    if (used > 0) {
      c.rbuf.erase(0, used);
      progress = true;
    }
  }
  if (parser.failed()) {
    fail_http(c, parser.error());
    return true;
  }
  if (!parser.complete()) {
    // curl (and friends) pause before sending a >1 KiB body until the
    // interim "100 Continue" arrives; answer it once per request, as
    // soon as the header block is in.
    if (parser.headers_complete() && parser.expect_continue() &&
        !c.sent_continue) {
      c.sent_continue = true;
      if (!append_out(c, http::kContinue)) return true;
      progress = true;
    }
    return progress;
  }
  handle_http_request(cp);
  c.sent_continue = false;
  parser.reset();
  flush_http(c);
  return true;
}

/// Routes one complete request into an exchange (and, for predict
/// batches, admits every body line through the shared admission core).
void Shard::handle_http_request(const std::shared_ptr<Connection>& cp) {
  Connection& c = *cp;
  const http::RequestParser& parser = *c.parser;
  const http::RouteMatch match =
      http::route_target(parser.method(), parser.target());

  HttpExchange ex;
  ex.keep_alive = parser.keep_alive();
  ex.route = http::route_label(match.route);
  ex.head_only = parser.method() == "HEAD";
  ex.start_us = now_us();
  switch (match.route) {
    case http::Route::Predict: {
      // The body is the raw wire: one JSON request per line.  Each line
      // goes through exactly the admission path TCP lines do; a single
      // line answers a status-mapped fixed-length reply, two or more
      // stream back chunked as their compute completes.
      const std::string_view body = parser.body();
      std::string line;
      std::size_t pos = 0;
      while (pos < body.size()) {
        std::size_t nl = body.find('\n', pos);
        const std::size_t end = (nl == std::string_view::npos) ? body.size()
                                                               : nl;
        std::string_view raw = body.substr(pos, end - pos);
        if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
        pos = end + 1;
        line.assign(raw);
        if (!blank(line)) ex.items.push_back(evaluate_line(cp, line));
      }
      if (ex.items.empty()) {
        ex.immediate = true;
        ex.status = 400;
        ex.body = error_line("parse", "empty request body");
      } else {
        ex.chunked = ex.items.size() > 1;
      }
      break;
    }
    case http::Route::Metrics:
      // Rendered when the head is written, not here: a scrape pipelined
      // behind a predict must observe that predict's counters.
      ex.immediate = true;
      ex.metrics = true;
      ex.content_type = "text/plain; version=0.0.4";
      break;
    case http::Route::Healthz:
      // Status and body are computed when the head is written, so a
      // pipelined healthz behind a slow batch reports "draining" if the
      // server started draining in between.
      ex.immediate = true;
      ex.healthz = true;
      break;
    case http::Route::NotFound:
      ex.immediate = true;
      ex.status = 404;
      ex.body = error_line("parse", "no such route; POST /v1/predict, "
                                    "GET /metrics, GET /healthz");
      break;
    case http::Route::MethodNotAllowed:
      ex.immediate = true;
      ex.status = 405;
      ex.allow = match.allow;
      ex.body = error_line("parse", "method not allowed");
      break;
  }
  c.exchanges.push_back(std::move(ex));
}

/// A request that cannot be parsed gets one full HTTP error response and
/// a close — malformed framing leaves no way to find the next request's
/// boundary, so the connection cannot survive.
void Shard::fail_http(Connection& c, http::Error err) {
  const int status = http::status_for_error(err);
  const std::string body = error_line("parse", http::to_string(err));
  std::string farewell;
  http::append_head(farewell, status, /*keep_alive=*/false,
                    "application/json", body.size());
  farewell += body;
  count_http("other", status);
  bump(counters_.http_requests);
  begin_close(c,
              (status == 413 || status == 431) ? Disconnect::Oversize
                                               : Disconnect::Error,
              farewell);
}

void Shard::finish_exchange(Connection& c, const HttpExchange& ex) {
  (void)c;
  count_http(ex.route, ex.status);
  observe_http_duration(ex.start_us);
  bump(counters_.http_requests);
}

/// Writes whatever the front exchange can deliver.  Exchanges answer in
/// request order (pipelining), so only the front touches the socket:
/// fixed-length replies wait for their single item, chunked batches
/// stream every completed item (unordered from any position, ordered
/// from the front — the raw wire's id contract) and terminate with the
/// last-chunk once all items delivered.
void Shard::flush_http(Connection& c) {
  while (!c.exchanges.empty() && c.rfd >= 0 && !c.closing) {
    HttpExchange& ex = c.exchanges.front();

    // A single-item predict reply becomes an immediate body once its
    // compute lands: the status is mapped from the response itself
    // (overloaded → 503, timeout → 504), which needs the whole reply
    // before the head.
    if (!ex.immediate && !ex.chunked) {
      Pending& item = ex.items.front();
      if (!item.done) break;
      ex.status = http::status_for_response(item.response);
      ex.body = std::move(item.response);
      ex.body += '\n';
      ex.items.clear();
      ex.immediate = true;
      note_answered();
    }

    if (!ex.head_sent) {
      if (ex.metrics) ex.body = obs::Registry::global().render_text();
      if (ex.healthz) {
        const bool draining = stop_.load(std::memory_order_relaxed) ||
                              server_.stop_.load(std::memory_order_relaxed) ||
                              serve::shutdown_requested();
        ex.status = draining ? 503 : 200;
        ex.body = draining ? "{\"status\": \"draining\"}\n"
                           : "{\"status\": \"serving\"}\n";
      }
      std::string& head = http_scratch_;  // shard-owned, capacity reused
      head.clear();
      std::string extra;
      if (ex.status == 503) extra += "Retry-After: 1\r\n";
      if (ex.allow[0] != '\0') {
        extra += "Allow: ";
        extra += ex.allow;
        extra += "\r\n";
      }
      if (ex.chunked) {
        http::append_chunked_head(head, ex.status, ex.keep_alive,
                                  ex.content_type, extra);
      } else {
        http::append_head(head, ex.status, ex.keep_alive, ex.content_type,
                          ex.body.size(), extra);
        if (!ex.head_only) head += ex.body;
      }
      if (!append_out(c, head)) return;
      ex.head_sent = true;
      if (!ex.chunked) {
        finish_exchange(c, ex);
        const bool keep = ex.keep_alive;
        c.exchanges.pop_front();
        if (!keep) {
          begin_close(c, Disconnect::Eof, "");
          return;
        }
        continue;
      }
    }

    // Chunked streaming: unordered (id-carrying) items the moment they
    // complete, ordered ones only from the front cursor.
    std::string& chunk = http_scratch_;  // head is already flushed out
    for (std::size_t i = ex.next_item; i < ex.items.size(); ++i) {
      Pending& p = ex.items[i];
      if (!p.ordered && p.done && !p.delivered) {
        p.response += '\n';
        chunk.clear();
        http::append_chunk(chunk, p.response);
        if (!append_out(c, chunk)) return;
        p.delivered = true;
        note_answered();
      }
    }
    while (ex.next_item < ex.items.size()) {
      Pending& front = ex.items[ex.next_item];
      if (front.delivered) {
        ++ex.next_item;
        continue;
      }
      if (front.ordered && front.done) {
        front.response += '\n';
        chunk.clear();
        http::append_chunk(chunk, front.response);
        if (!append_out(c, chunk)) return;
        front.delivered = true;
        note_answered();
        ++ex.next_item;
        continue;
      }
      break;
    }
    if (ex.next_item < ex.items.size()) break;  // still waiting on compute
    if (!append_out(c, http::kLastChunk)) return;
    finish_exchange(c, ex);
    const bool keep = ex.keep_alive;
    c.exchanges.pop_front();
    if (!keep) {
      begin_close(c, Disconnect::Eof, "");
      return;
    }
  }
}

void Shard::process_lines() {
  // Round-robin fairness: each pass gives every connection at most one
  // admitted line, starting one past last pass's starting point, until a
  // full pass makes no progress.  A client with 50 buffered requests
  // interleaves with everyone else instead of monopolising the loop.
  bool progress = true;
  while (progress) {
    progress = false;
    const std::size_t n = conns_.size();
    if (n == 0) return;
    rr_ = (rr_ + 1) % n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::shared_ptr<Connection>& cp = conns_[(rr_ + k) % n];
      progress |= cp->http ? process_http_one(cp) : admit_one(cp);
    }
  }
}

/// Books one delivered response line — shared by the raw wire and every
/// chunk/body an HTTP exchange streams.
void Shard::note_answered() {
  count(Count::Answered);
  if (reqs_counter_) reqs_counter_->add();
  bump(counters_.answered);
}

void Shard::deliver(Connection& c, Pending& p) {
  p.delivered = true;
  if (c.rfd < 0 || c.closing) return;  // response owed to no one now
  if (!c.borrowed &&
      c.wbuf.size() + p.response.size() + 1 > server_.opts_.max_write_buffer) {
    // The client is not draining responses; holding more would be
    // unbounded memory, and it cannot read an apology either.
    close_now(c, Disconnect::SlowReader);
    return;
  }
  c.wbuf += p.response;
  c.wbuf += '\n';
  note_answered();
}

void Shard::flush_deliverable(Connection& c) {
  // Unordered (id-carrying) responses deliver the moment they are done,
  // from any position — the out-of-order completion contract.
  for (Pending& p : c.pending) {
    if (c.rfd < 0 || c.closing) break;
    if (!p.ordered && p.done && !p.delivered) deliver(c, p);
  }
  // Ordered (id-less) responses only ever deliver from the front, so a
  // slow ordered request holds its successors back — exactly the stdio
  // contract a client that sends no ids relies on.
  while (!c.pending.empty()) {
    Pending& front = c.pending.front();
    if (front.delivered) {
      c.pending.pop_front();
      continue;
    }
    if (front.ordered && front.done && c.rfd >= 0 && !c.closing) {
      deliver(c, front);
      c.pending.pop_front();
      continue;
    }
    break;
  }
}

void Shard::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard lock(cq_mu_);
    ready.swap(completions_);
  }
  for (const Completion& done : ready) {
    const std::shared_ptr<Connection> c = done.conn.lock();
    if (!c) continue;
    if (Pending* p = find_pending(*c, done.seq)) {
      try {
        p->response = p->result.get();
      } catch (const std::exception& e) {
        // complete() promises not to throw; this is the belt to that
        // suspender — the client still gets a structured line.
        p->response = error_body("internal", e.what());
      }
      p->done = true;
    }
    if (c->http) {
      flush_http(*c);
    } else {
      flush_deliverable(*c);
    }
  }
}

void Shard::flush_writes() {
  for (auto& cp : conns_) {
    Connection& c = *cp;
    while (c.rfd >= 0 && !c.wbuf.empty()) {
      const ssize_t n = ::write(c.wfd, c.wbuf.data(), c.wbuf.size());
      if (n > 0) {
        c.wbuf.erase(0, static_cast<std::size_t>(n));
        count_bytes(false, static_cast<std::uint64_t>(n));
        bump(counters_.bytes_out, static_cast<std::uint64_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        close_now(c, c.closing ? c.cause : Disconnect::Error);
        break;
      }
    }
  }
}

void Shard::reap_and_time_out() {
  const double now = now_us();
  for (auto& cp : conns_) {
    Connection& c = *cp;
    if (c.rfd < 0) continue;
    const bool owes_nothing =
        c.http ? (c.rbuf.empty() && c.exchanges.empty())
               : (c.rbuf.find('\n') == std::string::npos && c.pending.empty());
    if ((c.closing || c.draining) && c.wbuf.empty() &&
        (c.closing || owes_nothing)) {
      close_now(c, c.cause);
      continue;
    }
    if (c.closing &&
        now - c.closing_since_us > server_.opts_.drain_grace_ms * 1000.0) {
      // Told to go away but not reading the farewell: forced close.
      close_now(c, c.cause);
      continue;
    }
    // Header deadline (slow loris): a request that *started* but whose
    // framing has not completed is timed from its first byte.  The idle
    // check below cannot catch this — every dripped byte advances
    // last_read_us — so the partial clock is stamped once per request
    // and only cleared when the framing completes.
    if (!c.closing && !c.draining && c.pending.empty() &&
        c.exchanges.empty() && server_.opts_.header_timeout_ms > 0.0) {
      const bool partial =
          c.http ? (c.parser && c.parser->started() && !c.parser->complete())
                 : (!c.rbuf.empty() &&
                    c.rbuf.find('\n') == std::string::npos);
      if (!partial) {
        c.partial_since_us = 0.0;
      } else if (c.partial_since_us == 0.0) {
        c.partial_since_us = now;
      } else if (now - c.partial_since_us >
                 server_.opts_.header_timeout_ms * 1000.0) {
        const std::string body = error_line(
            "timeout",
            "request not completed within " +
                std::to_string(server_.opts_.header_timeout_ms) +
                " ms; closing");
        if (c.http) {
          std::string farewell;
          http::append_head(farewell, 408, /*keep_alive=*/false,
                            "application/json", body.size());
          farewell += body;
          count_http("other", 408);
          bump(counters_.http_requests);
          begin_close(c, Disconnect::HeaderTimeout, farewell);
        } else {
          begin_close(c, Disconnect::HeaderTimeout, body);
        }
        continue;
      }
    }
    if (!c.closing && !c.draining && c.pending.empty() &&
        c.exchanges.empty() && server_.opts_.idle_timeout_ms > 0.0 &&
        now - c.last_read_us > server_.opts_.idle_timeout_ms * 1000.0) {
      if (c.http) {
        // An idle keep-alive connection owes no response; close quietly
        // like every stock HTTP server does.
        begin_close(c, Disconnect::Idle, "");
      } else {
        begin_close(c, Disconnect::Idle,
                    error_line(
                        "timeout",
                        "idle for more than " +
                            std::to_string(server_.opts_.idle_timeout_ms) +
                            " ms; closing"));
      }
    }
  }
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
    return c->rfd < 0;
  });
}

void Shard::publish_gauges() const {
  if (!depth_gauge_) return;
  double pending_bytes = 0.0;
  for (const auto& c : conns_) {
    pending_bytes += static_cast<double>(c->rbuf.size());
  }
  depth_gauge_->set(pending_bytes);
}

void Shard::loop() {
  std::vector<pollfd> fds;
  // Per polled connection, the index of its read side's pollfd entry.
  std::vector<std::size_t> read_slot;
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    read_slot.clear();
    const bool have_wake = wake_fds_[0] >= 0;
    if (have_wake) fds.push_back({wake_fds_[0], POLLIN, 0});
    for (const auto& c : conns_) {
      const bool reading = !c->draining && !c->closing &&
                           c->rbuf.size() <= server_.opts_.max_line_bytes;
      const bool writing = !c->wbuf.empty();
      read_slot.push_back(fds.size());
      if (c->rfd == c->wfd) {
        fds.push_back({c->rfd,
                       static_cast<short>((reading ? POLLIN : 0) |
                                          (writing ? POLLOUT : 0)),
                       0});
      } else {
        // Stdio: poll() skips negative fds, so a side with nothing to do
        // (stdin at EOF reports POLLHUP forever) cannot spin the loop.
        fds.push_back({reading ? c->rfd : -1, POLLIN, 0});
        fds.push_back({writing ? c->wfd : -1, POLLOUT, 0});
      }
    }
    const std::size_t polled = conns_.size();
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 server_.opts_.poll_interval_ms);
    if (have_wake && (fds[0].revents & POLLIN)) drain_wakeup();
    adopt_incoming();
    // Reads follow readiness: only a connection whose entry reported
    // input, hang-up or an error is read, plus the ones adopted since the
    // poll (appended past `polled`), which may hold bytes already.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Connection& c = *conns_[i];
      if (c.rfd < 0 || c.draining || c.closing) continue;
      if (i < polled &&
          !(fds[read_slot[i]].revents & (POLLIN | POLLHUP | POLLERR))) {
        continue;
      }
      read_ready(c);
    }
    process_lines();
    drain_completions();
    flush_writes();
    reap_and_time_out();
    publish_gauges();
  }
  drain();
}

void Shard::drain() {
  adopt_incoming();
  // Pick up whatever the kernel already buffered — a client that
  // pipelined requests just before SIGTERM (say a healthz probe behind a
  // slow batch) still gets every one answered, with healthz now
  // reporting "draining".
  for (auto& c : conns_) {
    if (c->rfd >= 0 && !c->draining && !c->closing) read_ready(*c);
  }
  process_lines();
  // Answered, not dropped: every dispatched compute future completes and
  // delivers before sockets are torn down.  This wait is not grace-bounded
  // — the pool outlives the shards precisely so it terminates.
  while (true) {
    drain_completions();
    flush_writes();
    bool undone = false;
    for (const auto& c : conns_) {
      if (c->rfd < 0) continue;
      for (const Pending& p : c->pending) {
        if (!p.done) {
          undone = true;
          break;
        }
      }
      for (const HttpExchange& ex : c->exchanges) {
        for (const Pending& p : ex.items) {
          if (!p.done) {
            undone = true;
            break;
          }
        }
        if (undone) break;
      }
      if (undone) break;
    }
    if (!undone) break;
    if (wake_fds_[0] >= 0) {
      pollfd wp{wake_fds_[0], POLLIN, 0};
      (void)::poll(&wp, 1, server_.opts_.poll_interval_ms);
      drain_wakeup();
    } else {
      pollfd none{-1, 0, 0};
      (void)::poll(&none, 1, server_.opts_.poll_interval_ms);
    }
    for (auto& c : conns_) {
      if (c->rfd >= 0 && !c->draining && !c->closing) read_ready(*c);
    }
    process_lines();
  }
  // Everything resolvable is resolved; push any responses still parked
  // on their exchanges/deques into the write buffers.
  for (auto& cp : conns_) {
    if (cp->rfd < 0) continue;
    if (cp->http) {
      flush_http(*cp);
    } else {
      flush_deliverable(*cp);
    }
  }
  // Then a bounded grace for the write buffers to reach their clients.
  const double deadline = now_us() + server_.opts_.drain_grace_ms * 1000.0;
  std::vector<pollfd> fds;
  while (now_us() < deadline) {
    fds.clear();
    for (const auto& c : conns_) {
      if (c->rfd >= 0 && !c->wbuf.empty()) fds.push_back({c->wfd, POLLOUT, 0});
    }
    if (fds.empty()) break;
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 server_.opts_.poll_interval_ms);
    flush_writes();
    std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
      return c->rfd < 0;
    });
  }
  for (auto& c : conns_) {
    if (c->rfd >= 0) close_now(*c, Disconnect::Drained);
  }
  conns_.clear();
  if (depth_gauge_) depth_gauge_->set(0.0);
}

}  // namespace detail

// --- Server: the acceptor -------------------------------------------------

Server::Server(serve::Service& service, ServerOptions opts)
    : service_(service), opts_(opts) {
  // Shards use plain write() on sockets and pipes alike: a peer that went
  // away must surface as EPIPE (a disconnect), not kill the process.
  (void)std::signal(SIGPIPE, SIG_IGN);
  if (opts_.shards == 0) opts_.shards = 1;
  if (opts_.max_line_bytes == 0) opts_.max_line_bytes = 1;
  if (opts_.max_write_buffer == 0) opts_.max_write_buffer = 1;
  if (opts_.poll_interval_ms <= 0) opts_.poll_interval_ms = 50;
  if (opts_.max_body_bytes == 0) opts_.max_body_bytes = 1;
  if (!opts_.json_listener && !opts_.http) opts_.json_listener = true;
  counters_ = std::make_unique<detail::ShardCounters[]>(opts_.shards);
}

Server::~Server() = default;

void Server::open(std::ostream& log) {
  if (opts_.json_listener) {
    listener_.open(opts_.port);
    log << "net: listening on 127.0.0.1:" << listener_.port() << "\n"
        << std::flush;
  }
  if (opts_.http) {
    http_listener_.open(opts_.http_port);
    log << "http: listening on 127.0.0.1:" << http_listener_.port() << "\n"
        << std::flush;
  }
}

ServerStats Server::stats() const {
  const auto get = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  ServerStats s;
  s.inflight = inflight_.load(std::memory_order_relaxed);
  std::array<std::uint64_t, detail::kDisconnectCauses> disconnects{};
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    const detail::ShardCounters& c = counters_[i];
    s.shard_connections.push_back(get(c.connections));
    s.shard_answered.push_back(get(c.answered));
    s.accepted += s.shard_connections.back();
    s.answered += s.shard_answered.back();
    s.dispatched += get(c.dispatched);
    s.bytes_in += get(c.bytes_in);
    s.bytes_out += get(c.bytes_out);
    s.http_requests += get(c.http_requests);
    for (std::size_t k = 0; k < disconnects.size(); ++k) {
      disconnects[k] += get(c.disconnects[k]);
    }
  }
  const auto cause = [&](Disconnect d) {
    return disconnects[static_cast<std::size_t>(d)];
  };
  s.disconnect_eof = cause(Disconnect::Eof);
  s.disconnect_idle = cause(Disconnect::Idle);
  s.disconnect_oversize = cause(Disconnect::Oversize);
  s.disconnect_slow_reader = cause(Disconnect::SlowReader);
  s.disconnect_refused = cause(Disconnect::Refused);
  s.disconnect_error = cause(Disconnect::Error);
  s.disconnect_drained = cause(Disconnect::Drained);
  s.disconnect_header_timeout = cause(Disconnect::HeaderTimeout);
  return s;
}

void Server::publish_gauges() const {
  if (!obs::metrics_enabled()) return;
  static obs::Gauge& open_conns = obs::Registry::global().gauge(
      "rvhpc_net_open_connections", "currently connected TCP clients");
  static obs::Gauge& inflight = obs::Registry::global().gauge(
      "rvhpc_net_inflight_requests",
      "compute phases dispatched and not yet completed");
  open_conns.set(
      static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  inflight.set(static_cast<double>(inflight_.load(std::memory_order_relaxed)));
}

void Server::accept_pending() {
  if (listener_.is_open()) accept_from(listener_, /*http=*/false);
  if (http_listener_.is_open()) accept_from(http_listener_, /*http=*/true);
}

void Server::accept_from(const Listener& listener, bool http) {
  while (true) {
    const int fd = listener.accept_client();
    if (fd < 0) return;
    count(Count::Connection);
    if (opts_.so_sndbuf > 0) {
      (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                         sizeof(opts_.so_sndbuf));
    }
    // The cap spans shards, so the check lives here on the acceptor; the
    // owning shard delivers the polite farewell.
    const bool refused =
        open_conns_.load(std::memory_order_relaxed) >= opts_.max_connections;
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t shard = next_shard_;
    next_shard_ = (next_shard_ + 1) % shards_.size();
    detail::bump(counters_[shard].connections);
    shards_[shard]->adopt({fd, fd, /*borrowed=*/false, refused, http});
  }
}

void Server::run(std::ostream& log) { serve(log, -1, -1); }

void Server::run_stdio(int in_fd, int out_fd, std::ostream& log) {
  BlockingStderr log_guard;
  serve(log, in_fd, out_fd);
}

void Server::serve(std::ostream& log, int stdio_in, int stdio_out) {
  const auto stop_requested = [this] {
    return stop_.load(std::memory_order_relaxed) ||
           serve::shutdown_requested();
  };

  // One compute pool shared by every shard (sized by the service's jobs
  // setting), one background cache flusher, N event loops.  The pool and
  // the flusher must outlive the shards: shard drain waits on futures the
  // pool is still running, and the flusher owns every cache checkpoint.
  pool_ = std::make_unique<engine::ThreadPool>(service_.jobs());
  flusher_ = std::make_unique<detail::CacheFlusher>(service_, log);
  shards_.clear();
  next_shard_ = 0;
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<detail::Shard>(*this, i));
  }
  for (auto& s : shards_) s->start();

  const bool stdio = stdio_in >= 0;
  if (stdio) {
    // Counted open before the shard adopts it, so the loop below cannot
    // see zero connections and return before the session started.
    count(Count::Connection);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    detail::bump(counters_[0].connections);
    shards_[0]->adopt({stdio_in, stdio_out, /*borrowed=*/true,
                       /*refused=*/false, /*http=*/false});
  }

  while (!stop_requested() &&
         !(stdio && open_conns_.load(std::memory_order_relaxed) == 0)) {
    pollfd lps[2];
    nfds_t nfds = 0;
    if (listener_.is_open()) lps[nfds++] = {listener_.fd(), POLLIN, 0};
    if (http_listener_.is_open()) {
      lps[nfds++] = {http_listener_.fd(), POLLIN, 0};
    }
    (void)::poll(lps, nfds, opts_.poll_interval_ms);
    accept_pending();
    publish_gauges();
  }

  // Drain: stop accepting, then let every shard answer what it owes
  // (buffered complete lines and in-flight futures) before the pool and
  // the flusher wind down — the flusher's destructor performs the final
  // cache checkpoint.
  listener_.close();
  http_listener_.close();
  for (auto& s : shards_) s->request_stop();
  for (auto& s : shards_) s->join();
  pool_->wait();
  pool_.reset();
  flusher_.reset();
  shards_.clear();
  publish_gauges();

  const ServerStats s = stats();
  log << "net: drained — " << s.accepted << " connection(s), " << s.answered
      << " request(s) answered, " << s.http_requests << " http exchange(s), "
      << s.bytes_in << " bytes in, " << s.bytes_out
      << " bytes out, disconnects: " << s.disconnect_eof << " eof, "
      << s.disconnect_idle << " idle, " << s.disconnect_header_timeout
      << " header-timeout, " << s.disconnect_oversize << " oversize, "
      << s.disconnect_slow_reader << " slow-reader, "
      << s.disconnect_refused << " refused, " << s.disconnect_error
      << " error, " << s.disconnect_drained << " drained\n";
}

}  // namespace rvhpc::net
