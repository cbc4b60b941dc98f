#include "net/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <string_view>
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

/// The answer to a request line longer than the wire bound.
std::string oversize_error(std::size_t max_line_bytes) {
  return error_body("overloaded", "request line exceeds " +
                                      std::to_string(max_line_bytes) +
                                      " bytes");
}

/// The HTTP request counter of one route and status; the label set is
/// part of the registry name.
std::string http_series(const char* route, int status) {
  std::string name = "rvhpc_http_requests_total{route=\"";
  name += route;
  name += "\",status=\"";
  name += std::to_string(status);
  name += "\"}";
  return name;
}

constexpr const char* kHttpRequestsHelp =
    "HTTP exchanges completed, by route and status";

/// The line of `buf` starting at `pos` — up to the next '\n', a trailing
/// '\r' dropped — with `pos` moved past it.  Without a '\n' the rest of
/// `buf` is a line only `at_end` (an HTTP body's last line may lack one; a
/// raw-wire read buffer's tail is a line still arriving).  False when no
/// line is left.
bool next_line(std::string_view buf, std::size_t& pos, bool at_end,
               std::string_view& line) {
  if (pos >= buf.size()) return false;
  std::size_t nl = buf.find('\n', pos);
  if (nl == std::string_view::npos) {
    if (!at_end) return false;
    nl = buf.size();
  }
  line = buf.substr(pos, nl - pos);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  pos = nl + 1;
  return true;
}

bool blank(std::string_view line) {
  return line.find_first_not_of(" \t") == std::string_view::npos;
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

// --- per-connection state (owned exclusively by one shard) ----------------

/// One response stream's ordering contract (DESIGN.md §13.2), written
/// once for every wire: a raw-wire or stdio connection owns one outbox,
/// and so does each HTTP exchange.  Items are admitted request lines, in
/// request order.  An item whose request carried an id may be delivered
/// the moment it is done, from any position; an id-less one only within
/// the done front prefix, so a client that cannot match ids never sees a
/// reordering.  What delivery writes is the wire's business: flush() hands
/// each response to an emitter — a line on the raw wire, a chunk in an
/// HTTP batch, the body of a single-item HTTP reply.
class Outbox {
 public:
  /// Appends item `seq` (its connection's request-line number; an
  /// outbox's items are consecutive): done with its final `response`
  /// (no trailing newline), or awaiting complete().
  void push(std::uint64_t seq, bool ordered, bool done,
            std::string response) {
    if (items_.empty()) first_seq_ = seq;
    items_.push_back({std::move(response), ordered, done, false});
  }

  [[nodiscard]] bool holds(std::uint64_t seq) const {
    return seq >= first_seq_ && seq - first_seq_ < items_.size();
  }

  /// Item `seq`'s compute landed (holds(seq) must be true).
  void complete(std::uint64_t seq, std::string response) {
    Item& item = items_[seq - first_seq_];
    item.response = std::move(response);
    item.done = true;
  }

  /// Every item delivered (so also an outbox that never had one).
  [[nodiscard]] bool settled() const { return front_ == items_.size(); }

  /// Delivers every item the contract allows now through
  /// `emit(std::string& response)`, which writes it to the wire (and may
  /// consume the string) or returns false when the wire takes nothing more
  /// — the connection closed — which leaves the item undelivered and stops
  /// the flush.
  template <typename Emit>
  void flush(Emit&& emit) {
    // Id-carrying items: the moment they are done, from any position.
    for (std::size_t i = front_; i < items_.size(); ++i) {
      Item& item = items_[i];
      if (!item.ordered && item.done && !item.delivered &&
          !deliver(item, emit)) {
        return;
      }
    }
    // Id-less items: only from the front, so a slow one holds its
    // successors back.
    while (front_ < items_.size()) {
      Item& item = items_[front_];
      if (!item.delivered && !(item.done && deliver(item, emit))) break;
      ++front_;
    }
    // The delivered prefix goes once it is half the vector, so an outbox
    // that always has compute in flight stays within twice its undelivered
    // span; when everything is delivered this is a clear(), which keeps
    // the capacity for the next request.
    if (front_ > 0 && 2 * front_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(front_));
      first_seq_ += front_;
      front_ = 0;
    }
  }

 private:
  struct Item {
    std::string response;  ///< final once `done`; released once delivered
    bool ordered = true;   ///< id-less: delivered in request order
    bool done = false;
    bool delivered = false;
  };

  template <typename Emit>
  static bool deliver(Item& item, Emit& emit) {
    if (!emit(item.response)) return false;
    item.delivered = true;
    std::string().swap(item.response);
    return true;
  }

  // A vector with a front cursor instead of a deque: a single-request
  // HTTP exchange then costs one allocation, not a deque block map (the
  // path the http_throughput gate measures against the raw wire), and a
  // raw connection's steady stream reuses one buffer.
  std::vector<Item> items_;
  std::size_t front_ = 0;        ///< first item not yet passed in order
  std::uint64_t first_seq_ = 0;  ///< seq of items_[0]
};

/// One HTTP request/response pair in flight on a connection.  Exchanges
/// answer strictly in request order (HTTP pipelining), so only the front
/// of Connection::exchanges ever writes to the socket.  A predict
/// exchange's body lines are the items of its outbox.
struct HttpExchange {
  int status = 200;
  const char* route = "other";  ///< http::route_label, stable storage
  const char* allow = "";       ///< Allow header for 405 responses
  const char* content_type = "application/json";
  bool chunked = false;    ///< batch predict: stream items as chunks
  bool head_sent = false;
  bool head_only = false;  ///< HEAD request: send the head, omit the body
  bool keep_alive = true;
  bool healthz = false;  ///< status/body computed at delivery (drain-aware)
  bool metrics = false;  ///< body rendered at delivery (scrape ordering)
  std::string body;
  Outbox outbox;
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
  Outbox outbox;  ///< the raw wire's responses (HTTP: one per exchange)
  std::uint64_t next_seq = 0;  ///< next request line's number
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

/// The outbox holding item `seq`: the connection's own on the raw wire,
/// its exchange's over HTTP (exchanges hold consecutive seq ranges).
Outbox* outbox_of(Connection& c, std::uint64_t seq) {
  if (!c.http) return &c.outbox;
  for (HttpExchange& ex : c.exchanges) {
    if (ex.outbox.holds(seq)) return &ex.outbox;
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

// --- ComputeQueue: the server's share of the process pool ----------------

/// A FIFO of compute tasks of which at most `slots` run at once on
/// engine::shared_pool(), so a server with jobs = N occupies at most N pool
/// workers whatever else the process runs there.  Each running slot pulls
/// the next task before it returns.  Destruction waits until no slot is
/// running — after each task's whole body, on_complete() included — so
/// the shards a task touches can be destroyed after it.
class ComputeQueue {
 public:
  explicit ComputeQueue(int slots) : slots_(std::max(slots, 1)) {}
  ~ComputeQueue() {
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return running_ == 0; });
  }
  ComputeQueue(const ComputeQueue&) = delete;
  ComputeQueue& operator=(const ComputeQueue&) = delete;

  /// Queues `task` (which must not throw); starts a slot when one is free.
  void submit(std::function<void()> task) {
    bool start = false;
    {
      std::lock_guard lock(mu_);
      queue_.push_back(std::move(task));
      if (running_ < slots_) {
        ++running_;
        start = true;
      }
    }
    if (start) engine::shared_pool().submit([this] { run_slot(); });
  }

 private:
  void run_slot() {
    for (;;) {
      std::function<void()> task;
      {
        std::lock_guard lock(mu_);
        if (queue_.empty()) {
          // Notify under mu_: the destructor may return as soon as
          // running_ reads 0.
          if (--running_ == 0) idle_cv_.notify_all();
          return;
        }
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  const int slots_;
  std::mutex mu_;
  std::condition_variable idle_cv_;  ///< running_ dropped to 0
  std::deque<std::function<void()>> queue_;
  int running_ = 0;  ///< slots submitted to the pool and not yet returned
};

// --- Shard: one event loop ------------------------------------------------

/// One poll() loop on its own thread.  The acceptor deals sockets in via
/// adopt(); compute tasks hand their responses back via on_complete();
/// both poke the wakeup pipe so the loop reacts immediately instead of on
/// the next poll timeout.  Every Connection is touched by exactly one
/// shard thread — a compute task only ever holds a weak_ptr it never
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

  /// A dispatched compute phase finished (pool thread): queue its
  /// response and wake the loop so it is delivered now.
  void on_complete(const std::weak_ptr<Connection>& conn, std::uint64_t seq,
                   std::string response);

 private:
  struct Completion {
    std::weak_ptr<Connection> conn;
    std::uint64_t seq = 0;
    std::string response;
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
  void flush_http(Connection& c);
  bool append_out(Connection& c, std::string_view data);
  bool make_room(Connection& c, std::size_t n);
  void finish_exchange(const HttpExchange& ex);
  void process_lines();
  void evaluate_line(const std::shared_ptr<Connection>& cp,
                     const std::string& line, Outbox& out);
  void dispatch(const std::shared_ptr<Connection>& cp, std::uint64_t seq,
                serve::Service::Admission adm);
  void deliver(Connection& c);
  void note_answered();
  void count_http(const char* route, int status);
  void drain_completions();
  void write_some(Connection& c);
  void flush_writes();
  void reap_and_time_out();
  void begin_close(Connection& c, Disconnect cause,
                   const std::string& farewell);
  void close_with_error(Connection& c, Disconnect cause, int http_status,
                        const std::string& line);
  void close_now(Connection& c, Disconnect cause);
  void publish_gauges() const;

  Server& server_;
  const Server::ShardSeries series_;  ///< this shard's labeled children
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
  std::size_t awaiting_ = 0;  ///< computes dispatched, completion not drained
  std::string line_;          ///< the request line being admitted
  std::string http_scratch_;  ///< response head/chunk build buffer
};

Shard::Shard(Server& server, std::size_t index)
    : server_(server), series_(server.shard_series_[index]) {
  if (::pipe(wake_fds_) == 0) {
    set_nonblocking(wake_fds_[0]);
    set_nonblocking(wake_fds_[1]);
  } else {
    wake_fds_[0] = wake_fds_[1] = -1;  // degraded: poll-timeout latency only
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
                        std::uint64_t seq, std::string response) {
  {
    std::lock_guard lock(cq_mu_);
    completions_.push_back({conn, seq, std::move(response)});
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
    if (inc.refused) {
      // Polite refusal: a structured answer beats a dangling connect.
      close_with_error(*c, Disconnect::Refused, 503,
                       error_line("overloaded",
                                  "connection limit (" +
                                      std::to_string(
                                          server_.opts_.max_connections) +
                                      ") reached; retry later"));
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

/// Answers `line` (a newline-terminated error_line) and closes: the line
/// itself on the raw wire, a fixed-length `http_status` reply carrying it
/// over HTTP (counted under route "other"; a 503 adds Retry-After).
void Shard::close_with_error(Connection& c, Disconnect cause, int http_status,
                             const std::string& line) {
  if (!c.http) {
    begin_close(c, cause, line);
    return;
  }
  std::string reply;
  http::append_head(reply, http_status, /*keep_alive=*/false,
                    "application/json", line.size(),
                    http_status == 503 ? "Retry-After: 1\r\n" : "");
  reply += line;
  count_http("other", http_status);
  begin_close(c, cause, reply);
}

void Shard::close_now(Connection& c, Disconnect cause) {
  if (c.rfd < 0) return;
  release_fds(c);
  server_.open_conns_.fetch_sub(1, std::memory_order_relaxed);
  server_.disconnects_[static_cast<std::size_t>(cause)]->add();
}

void Shard::read_ready(Connection& c) {
  char chunk[4096];
  while (!c.draining && !c.closing &&
         c.rbuf.size() <= server_.opts_.max_line_bytes) {
    const ssize_t n = ::read(c.rfd, chunk, sizeof(chunk));
    if (n > 0) {
      c.rbuf.append(chunk, static_cast<std::size_t>(n));
      c.last_read_us = now_us();
      server_.bytes_in_.add(static_cast<std::uint64_t>(n));
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

  std::size_t end = 0;
  std::string_view line;
  const bool whole = next_line(c.rbuf, end, /*at_end=*/false, line);
  if (whole && blank(line)) {  // consumed input, no response owed
    c.rbuf.erase(0, end);
    return true;
  }
  // A line past the bound — or a partial one, which can never complete
  // within it — is rejected now rather than buffered forever.
  if ((whole ? line.size() : c.rbuf.size()) > server_.opts_.max_line_bytes) {
    begin_close(c, Disconnect::Oversize,
                oversize_error(server_.opts_.max_line_bytes) + '\n');
    return false;
  }
  if (!whole) return false;
  line_.assign(line);
  c.rbuf.erase(0, end);
  evaluate_line(cp, line_, c.outbox);
  deliver(c);
  return true;
}

/// The protocol-independent admission core: turns one request line into
/// the next item of `out` — the connection's outbox on the raw wire, the
/// exchange's over HTTP — resolved inline (overloaded rejection,
/// parse/lint error, warm cache hit) or dispatched to the compute queue.
void Shard::evaluate_line(const std::shared_ptr<Connection>& cp,
                          const std::string& line, Outbox& out) {
  const std::uint64_t seq = cp->next_seq++;

  // A single line past the wire bound answers an error instead of ever
  // being parsed (over HTTP the connection survives — the body bound
  // already capped total memory; on the raw wire admit_one closed it).
  // Its answer carries no id, so it keeps its turn in request order.
  if (line.size() > server_.opts_.max_line_bytes) {
    out.push(seq, /*ordered=*/true, /*done=*/true,
             oversize_error(server_.opts_.max_line_bytes));
    return;
  }

  // Admission bound, checked before the parse on every transport: compute
  // dispatched and not yet completed past the service's queue capacity
  // sheds the line — answered "overloaded" now, with its id when it has
  // one, and ordered like any other answer.
  const bool shed = server_.inflight_.load(std::memory_order_relaxed) >=
                    server_.service_.options().queue_capacity;
  serve::Service::Admission adm =
      shed ? server_.service_.shed(line) : server_.service_.admit(line);
  const bool ordered = !adm.had_id;
  if (!adm.request) {
    // Resolved at admission (shed, parse error, lint rejection).
    out.push(seq, ordered, /*done=*/true, std::move(adm.response));
    return;
  }
  if (std::optional<std::string> warm = server_.service_.complete_if_cached(
          *adm.request, adm.arrival_us)) {
    // Warm path: one memo probe answers inline on the event loop — cheaper
    // than a pool handoff, and it is what keeps cached hits flowing on
    // every connection while uncached requests compute.
    out.push(seq, ordered, /*done=*/true, *std::move(warm));
    if (server_.service_.note_evaluation() && server_.flusher_) {
      server_.flusher_->notify();
    }
    return;
  }
  out.push(seq, ordered, /*done=*/false, {});
  dispatch(cp, seq, std::move(adm));
}

void Shard::dispatch(const std::shared_ptr<Connection>& cp, std::uint64_t seq,
                     serve::Service::Admission adm) {
  server_.inflight_.fetch_add(1, std::memory_order_relaxed);
  server_.dispatched_.add();
  ++awaiting_;
  // The task carries its response back in the completion, and pokes the
  // shard only after the rest of its bookkeeping is done.
  server_.compute_->submit([this, wk = std::weak_ptr<Connection>(cp), seq,
                            req = std::move(adm.request),
                            arrival = adm.arrival_us] {
    std::string response;
    try {
      response = server_.service_.complete(*req, arrival);
    } catch (const std::exception& e) {
      // complete() promises not to throw; this is the belt to that
      // suspender — the client still gets a structured line.
      response = error_body("internal", e.what());
    }
    const bool checkpoint_due = server_.service_.note_evaluation();
    server_.inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (checkpoint_due && server_.flusher_) server_.flusher_->notify();
    on_complete(wk, seq, std::move(response));
  });
}

/// Appends to the write buffer under the slow-reader bound; false (and
/// the connection is gone) when the client is not draining responses.
bool Shard::append_out(Connection& c, std::string_view data) {
  if (!make_room(c, data.size())) return false;
  c.wbuf.append(data);
  return true;
}

/// Whether `n` more bytes fit `c`'s write buffer; a socket past the bound
/// is closed as a slow reader.  One loop pass can answer a whole read of
/// pipelined cached hits (or an HTTP batch), so past half the bound the
/// buffer is first handed to the kernel: a client that is reading never
/// looks like a slow one, and one that is not still trips the bound.
bool Shard::make_room(Connection& c, std::size_t n) {
  const std::size_t bound = server_.opts_.max_write_buffer;
  if (c.wbuf.size() + n > bound / 2) write_some(c);
  if (c.rfd < 0) return false;  // the write failed: closed
  if (!c.borrowed && c.wbuf.size() + n > bound) {
    close_now(c, Disconnect::SlowReader);
    return false;
  }
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
    // Malformed framing leaves no way to find the next request's
    // boundary, so the connection cannot survive it.
    const http::Error err = parser.error();
    const int status = http::status_for_error(err);
    close_with_error(c,
                     (status == 413 || status == 431) ? Disconnect::Oversize
                                                      : Disconnect::Error,
                     status, error_line("parse", http::to_string(err)));
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
      std::size_t lines = 0;
      std::string_view line;
      for (std::size_t pos = 0;
           next_line(parser.body(), pos, /*at_end=*/true, line);) {
        if (blank(line)) continue;
        line_.assign(line);
        evaluate_line(cp, line_, ex.outbox);
        ++lines;
      }
      if (lines == 0) {
        ex.status = 400;
        ex.body = error_line("parse", "empty request body");
      }
      ex.chunked = lines > 1;
      break;
    }
    case http::Route::Metrics:
      // Rendered when the head is written, not here: a scrape pipelined
      // behind a predict must observe that predict's counters.
      ex.metrics = true;
      ex.content_type = "text/plain; version=0.0.4";
      break;
    case http::Route::Healthz:
      // Status and body are computed when the head is written, so a
      // pipelined healthz behind a slow batch reports "draining" if the
      // server started draining in between.
      ex.healthz = true;
      break;
    case http::Route::NotFound:
      ex.status = 404;
      ex.body = error_line("parse", "no such route; POST /v1/predict, "
                                    "GET /metrics, GET /healthz");
      break;
    case http::Route::MethodNotAllowed:
      ex.status = 405;
      ex.allow = match.allow;
      ex.body = error_line("parse", "method not allowed");
      break;
  }
  c.exchanges.push_back(std::move(ex));
}

void Shard::finish_exchange(const HttpExchange& ex) {
  count_http(ex.route, ex.status);
  if (obs::metrics_enabled()) {
    server_.http_duration_.observe((now_us() - ex.start_us) / 1e6);
  }
}

/// Writes whatever the front exchange can deliver.  Exchanges answer in
/// request order (pipelining), so only the front touches the socket: a
/// single-item predict reply waits for its item, a chunked batch streams
/// each item its outbox releases and ends with the last-chunk once all
/// are delivered.
void Shard::flush_http(Connection& c) {
  while (!c.exchanges.empty() && c.rfd >= 0 && !c.closing) {
    HttpExchange& ex = c.exchanges.front();

    if (!ex.head_sent) {
      if (!ex.chunked) {
        // A single-item predict reply is fixed-length and its status is
        // mapped from the response itself (overloaded → 503, timeout →
        // 504), so the head waits for the item, which becomes the body.
        ex.outbox.flush([&](std::string& response) {
          ex.status = http::status_for_response(response);
          ex.body = std::move(response);
          ex.body += '\n';
          note_answered();
          return true;
        });
        if (!ex.outbox.settled()) break;
      }
      if (ex.metrics) ex.body = server_.render_metrics();
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
    }

    if (ex.chunked) {
      ex.outbox.flush([&](std::string& response) {
        response += '\n';
        std::string& chunk = http_scratch_;  // the head is already out
        chunk.clear();
        http::append_chunk(chunk, response);
        if (!append_out(c, chunk)) return false;
        note_answered();
        return true;
      });
      if (!ex.outbox.settled()) break;  // still waiting on compute
      if (!append_out(c, http::kLastChunk)) return;
    }
    finish_exchange(ex);
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
void Shard::note_answered() { series_.answered->add(); }

/// Counts one completed HTTP exchange under its route and status.
void Shard::count_http(const char* route, int status) {
  // The overwhelmingly common series is a successful predict: its counter
  // is bound once, so it costs a compare instead of a name build plus a
  // locked registry lookup (the http_throughput gate measures this path
  // against the raw wire).
  if (status == 200 && std::strcmp(route, "/v1/predict") == 0) {
    server_.http_predict_ok_.add();
  } else {
    server_.registry_.counter(http_series(route, status), kHttpRequestsHelp)
        .add();
  }
  if (obs::metrics_enabled()) {
    server_.http_statuses_.observe(static_cast<double>(status));
  }
}

/// Writes whatever `c` may deliver now — the one delivery step both
/// wires share: the raw wire's outbox as response lines, an HTTP
/// connection's exchanges through flush_http.
void Shard::deliver(Connection& c) {
  if (c.http) {
    flush_http(c);
    return;
  }
  c.outbox.flush([&](const std::string& response) {
    if (c.rfd < 0 || c.closing) return false;  // owed to no one now
    // A socket client not draining responses is dropped: holding more
    // would be unbounded memory, and it cannot read an apology either.
    if (!make_room(c, response.size() + 1)) return false;
    c.wbuf += response;
    c.wbuf += '\n';
    note_answered();
    return true;
  });
}

void Shard::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard lock(cq_mu_);
    ready.swap(completions_);
  }
  for (Completion& done : ready) {
    --awaiting_;
    const std::shared_ptr<Connection> c = done.conn.lock();
    if (!c) continue;
    if (Outbox* out = outbox_of(*c, done.seq)) {
      out->complete(done.seq, std::move(done.response));
    }
    deliver(*c);
  }
}

/// Hands as much of `c`'s write buffer to the kernel as it takes now
/// (non-blocking); a write error closes the connection.
void Shard::write_some(Connection& c) {
  while (c.rfd >= 0 && !c.wbuf.empty()) {
    const ssize_t n = ::write(c.wfd, c.wbuf.data(), c.wbuf.size());
    if (n > 0) {
      c.wbuf.erase(0, static_cast<std::size_t>(n));
      server_.bytes_out_.add(static_cast<std::uint64_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close_now(c, c.closing ? c.cause : Disconnect::Error);
      return;
    }
  }
}

void Shard::flush_writes() {
  for (auto& cp : conns_) write_some(*cp);
}

void Shard::reap_and_time_out() {
  const double now = now_us();
  for (auto& cp : conns_) {
    Connection& c = *cp;
    if (c.rfd < 0) continue;
    const bool owes_nothing =
        c.http ? (c.rbuf.empty() && c.exchanges.empty())
               : (c.rbuf.find('\n') == std::string::npos && c.outbox.settled());
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
    const bool quiet = c.outbox.settled() && c.exchanges.empty();
    if (!c.closing && !c.draining && quiet &&
        server_.opts_.header_timeout_ms > 0.0) {
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
        close_with_error(
            c, Disconnect::HeaderTimeout, 408,
            error_line("timeout",
                       "request not completed within " +
                           std::to_string(server_.opts_.header_timeout_ms) +
                           " ms; closing"));
        continue;
      }
    }
    if (!c.closing && !c.draining && quiet &&
        server_.opts_.idle_timeout_ms > 0.0 &&
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
  double pending_bytes = 0.0;
  for (const auto& c : conns_) {
    pending_bytes += static_cast<double>(c->rbuf.size());
  }
  series_.queue_depth->set(pending_bytes);
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
  // Answered, not dropped: every dispatched compute completes and
  // delivers before sockets are torn down.  This wait is not grace-bounded
  // — the compute queue outlives the shards precisely so it terminates.
  while (true) {
    // Pick up whatever the kernel already buffered — a client that
    // pipelined requests just before SIGTERM (say a healthz probe behind
    // a slow batch) still gets every one answered, with healthz now
    // reporting "draining".
    for (auto& c : conns_) {
      if (c->rfd >= 0 && !c->draining && !c->closing) read_ready(*c);
    }
    process_lines();
    drain_completions();
    flush_writes();
    if (awaiting_ == 0) break;
    // poll() skips a negative fd: without a wakeup pipe this is a sleep.
    pollfd wp{wake_fds_[0], POLLIN, 0};
    (void)::poll(&wp, 1, server_.opts_.poll_interval_ms);
    drain_wakeup();
  }
  // Everything resolvable is resolved; push any responses still parked
  // in outboxes into the write buffers.
  for (auto& cp : conns_) {
    if (cp->rfd >= 0) deliver(*cp);
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
  series_.queue_depth->set(0.0);
}

}  // namespace detail

// --- Server: the acceptor -------------------------------------------------

Server::Server(serve::Service& service, ServerOptions opts)
    : service_(service),
      opts_(opts),
      dispatched_(registry_.counter("rvhpc_net_dispatched_total",
                                    "compute phases queued for the pool")),
      bytes_in_(registry_.counter("rvhpc_net_bytes_read_total",
                                  "payload bytes received over TCP")),
      bytes_out_(registry_.counter("rvhpc_net_bytes_written_total",
                                   "response bytes written over TCP")),
      http_predict_ok_(registry_.counter(http_series("/v1/predict", 200),
                                         kHttpRequestsHelp)),
      http_statuses_(registry_.histogram(
          "rvhpc_http_response_status", "HTTP status codes answered",
          {99.5, 199.5, 299.5, 399.5, 499.5, 599.5})),
      http_duration_(registry_.histogram(
          "rvhpc_http_request_duration_seconds",
          "wall time from a parsed HTTP request to its response head")),
      open_conns_gauge_(registry_.gauge("rvhpc_net_open_connections",
                                        "currently connected TCP clients")),
      inflight_gauge_(registry_.gauge(
          "rvhpc_net_inflight_requests",
          "compute phases dispatched and not yet completed")) {
  // Shards use plain write() on sockets and pipes alike: a peer that went
  // away must surface as EPIPE (a disconnect), not kill the process.
  (void)std::signal(SIGPIPE, SIG_IGN);
  if (opts_.shards == 0) opts_.shards = 1;
  if (opts_.max_line_bytes == 0) opts_.max_line_bytes = 1;
  if (opts_.max_write_buffer == 0) opts_.max_write_buffer = 1;
  if (opts_.poll_interval_ms <= 0) opts_.poll_interval_ms = 50;
  if (opts_.max_body_bytes == 0) opts_.max_body_bytes = 1;
  if (!opts_.json_listener && !opts_.http) opts_.json_listener = true;
  for (std::size_t k = 0; k < kDisconnectCauses; ++k) {
    // The Disconnect names as Prometheus label values: slow-reader ->
    // slow_reader.
    std::string reason = to_string(static_cast<Disconnect>(k));
    std::replace(reason.begin(), reason.end(), '-', '_');
    disconnects_[k] = &registry_.counter(
        "rvhpc_net_disconnect_total{reason=\"" + reason + "\"}",
        "connections closed, by cause");
  }
  shard_series_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
    shard_series_.push_back(
        {&registry_.counter("rvhpc_net_connections_total" + label,
                            "connections accepted, by shard"),
         &registry_.counter("rvhpc_net_requests_total" + label,
                            "response lines delivered, by shard"),
         &registry_.gauge("rvhpc_net_queue_depth_bytes" + label,
                          "request bytes buffered on a shard, not yet "
                          "admitted")});
  }
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
  ServerStats s;
  s.inflight = inflight_.load(std::memory_order_relaxed);
  for (const ShardSeries& shard : shard_series_) {
    s.shard_connections.push_back(shard.connections->value());
    s.shard_answered.push_back(shard.answered->value());
    s.accepted += s.shard_connections.back();
    s.answered += s.shard_answered.back();
  }
  s.dispatched = dispatched_.value();
  s.bytes_in = bytes_in_.value();
  s.bytes_out = bytes_out_.value();
  s.http_requests = registry_.sum("rvhpc_http_requests_total");
  const auto cause = [&](Disconnect d) {
    return disconnects_[static_cast<std::size_t>(d)]->value();
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

std::string Server::render_metrics() const {
  // The acceptor-owned gauges are read at the scrape, never stale.
  open_conns_gauge_.set(
      static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  inflight_gauge_.set(
      static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  return obs::Registry::global().render_text() +
         service_.registry().render_text() + registry_.render_text();
}

void Server::accept_pending() {
  if (listener_.is_open()) accept_from(listener_, /*http=*/false);
  if (http_listener_.is_open()) accept_from(http_listener_, /*http=*/true);
}

void Server::accept_from(const Listener& listener, bool http) {
  while (true) {
    const int fd = listener.accept_client();
    if (fd < 0) return;
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
    shard_series_[shard].connections->add();
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

  // One compute queue shared by every shard (at most the service's jobs
  // tasks at once on the process pool, which it starts on the first miss),
  // one background cache flusher, N event loops.  The queue and the
  // flusher must outlive the shards: shard drain waits on computes the
  // queue is still running, and the flusher owns every cache checkpoint.
  compute_ = std::make_unique<detail::ComputeQueue>(service_.jobs());
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
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    shard_series_[0].connections->add();
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
  }

  // Drain: stop accepting, then let every shard answer what it owes
  // (buffered complete lines and in-flight computes) before the compute
  // queue and the flusher wind down — the flusher's destructor performs
  // the final cache checkpoint.  The queue's destructor waits for every
  // task this server queued, on_complete() included (a task whose
  // connection closed mid-compute still pokes its shard), so the shards
  // are destroyed only after it.
  listener_.close();
  http_listener_.close();
  for (auto& s : shards_) s->request_stop();
  for (auto& s : shards_) s->join();
  compute_.reset();
  flusher_.reset();
  shards_.clear();

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
