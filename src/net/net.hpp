#pragma once
// rvhpc::net — the sharded transport every live request goes through.
//
// One Server serves the line-delimited JSON protocol (serve/service.hpp
// is the schema, including per-request "backend" selection) on three
// kinds of connection, all owned by the same event-loop shards:
//
//   * raw JSON-lines over a loopback TCP socket (run(), ServerOptions::
//     port) — many concurrent clients sharing one resident cache;
//   * HTTP/1.1 on a second listener (ServerOptions::http): POST
//     /v1/predict carries one request line or a JSON-lines batch as a
//     Content-Length body and streams the responses back (single → a
//     status-mapped fixed-length reply, batch → chunked, each response a
//     chunk as its compute completes, matched by id exactly like the raw
//     wire), GET /metrics renders the obs registry inline on the shard,
//     and GET /healthz answers drain-aware 200/503.  The framing layer is
//     src/http — a pure incremental parser driven by the same poll()
//     reads;
//   * one stdin/stdout pair (run_stdio()) — the raw wire again, with a
//     read fd and a write fd instead of one socket.
//
// A connection's protocol is fixed by how it arrived, and every protocol
// shares the one admission path, the compute pool, the ordering
// contract, the bounded-memory taxonomy and the drain contract below.
//
// Architecture (DESIGN.md §13): I/O and compute never share a thread.
//
//   acceptor ──round-robin──▶ shard 0..N-1 (one poll() loop each)
//                                 │ admit (cheap parse/lint)
//                                 ▼
//                         engine::ThreadPool ──futures──▶ completions
//                                 ▲                            │
//                                 └── wakeup pipe re-arms ◀────┘
//
// The acceptor thread (the caller of run()/run_stdio()) owns the
// listeners and deals accepted sockets round-robin to N event-loop
// shards; each shard owns its connections exclusively and runs its own
// poll() loop with a wakeup pipe.  A shard splits every request line
// through serve::Service::admit() — the cheap parse/admission phase —
// and dispatches the compute phase to the shared engine ThreadPool as a
// std::future; a completed future pokes the shard's wakeup pipe so the
// response is flushed immediately instead of on the next poll tick.
// Responses complete out of order per connection: requests carrying an
// "id" are answered as soon as their future resolves (the id is echoed so
// clients can match), requests without an "id" are answered in request
// order.  Warm requests are completed inline on the shard (a memo probe,
// no pool handoff), so one slow uncached prediction never stalls cached
// hits — on the same connection or any other.  The periodic
// persistent-cache checkpoint runs on a dedicated background flusher
// thread, never on an event loop.
//
// Bounded-memory contract: a request line longer than max_line_bytes
// answers a structured "overloaded" error and closes; a socket client
// that stops reading until max_write_buffer fills is disconnected (the
// stdio connection stops admitting instead: stdout's reader is its only
// client, and a slow one must not lose answers); a connection idle
// past idle_timeout_ms is told "timeout" and closed; compute in flight
// past the service's queue_capacity answers "overloaded" at admission.
// Nothing about a misbehaving peer can grow server state without bound or
// wedge a loop.
//
// Shutdown: SIGTERM/SIGINT (serve::install_shutdown_handlers), stop(), or
// — for run_stdio() — the stdio connection closing stops accepting,
// answers every complete request line already buffered, waits for every
// in-flight compute future (answered, not dropped), flushes write buffers
// (bounded grace) and the persistent cache, and returns.  The Server
// ignores SIGPIPE: a reader that goes away is a disconnect, never a
// killed process.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rvhpc::serve {
class Service;
}
namespace rvhpc::engine {
class ThreadPool;
}

namespace rvhpc::net {

/// Why a connection was closed — stats and rvhpc_net_disconnects_*_total
/// metrics attribute every close to exactly one cause.
enum class Disconnect {
  Eof,         ///< client closed; its buffered requests were answered first
  Idle,        ///< nothing received for idle_timeout_ms ("timeout" answered)
  Oversize,    ///< request line exceeded max_line_bytes ("overloaded" answered)
  SlowReader,  ///< write buffer bound hit — the client is not reading
  Refused,     ///< accepted past max_connections ("overloaded" answered)
  Error,       ///< socket error (reset, broken pipe)
  Drained,     ///< server shut down while the connection was open
  HeaderTimeout,  ///< a started request's headers dribbled past
                  ///< header_timeout_ms (slow loris; 408 answered on HTTP)
};

[[nodiscard]] const char* to_string(Disconnect cause);

struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (the bound one
  /// is reported by Server::port() and logged by open()).
  std::uint16_t port = 0;
  /// Serve the raw JSON-lines protocol on `port`.  Disabled only when the
  /// process is HTTP-only (rvhpc-serve --http without --listen=tcp); at
  /// least one listener is always forced on.
  bool json_listener = true;
  /// Also serve HTTP/1.1 (POST /v1/predict, GET /metrics, GET /healthz —
  /// DESIGN.md §14) on `http_port`.  Both protocols share the shards, the
  /// service and the compute pool; a connection's protocol is fixed by
  /// the listener that accepted it.
  bool http = false;
  /// Port for the HTTP listener; 0 picks an ephemeral port (reported by
  /// http_port() and logged by open()).
  std::uint16_t http_port = 0;
  /// Largest admissible HTTP request body (Content-Length beyond it is
  /// answered 413 and the connection closed).  Header-block and
  /// request-line bounds are fixed (32 KiB / 8 KiB).
  std::size_t max_body_bytes = 1024 * 1024;
  /// Event-loop shards: accepted connections are dealt round-robin across
  /// this many independent poll() loops, each on its own thread.  Clamped
  /// to >= 1.  rvhpc-serve's --shards=0 resolves to
  /// min(hardware_concurrency, 4) before it gets here.
  std::size_t shards = 1;
  /// Concurrent clients across all shards; one past the cap is answered
  /// "overloaded" and closed instead of left dangling in the accept queue.
  std::size_t max_connections = 64;
  /// Longest admissible request line; beyond it the client gets a
  /// structured "overloaded" error and a disconnect.  Also the read-buffer
  /// bound, so per-connection input state never exceeds it (plus one read
  /// chunk).
  std::size_t max_line_bytes = 64 * 1024;
  /// Write-buffer bound per connection: responses a slow reader has not
  /// drained.  Exceeding it disconnects the client.
  std::size_t max_write_buffer = 256 * 1024;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default.  The
  /// slow-reader bound only trips once the kernel's send buffer is full,
  /// so tests (and memory-tight deployments) shrink this to make the
  /// transport's bounded-memory contract bite early.
  int so_sndbuf = 0;
  /// Disconnect a connection that sent nothing for this long; 0 disables.
  double idle_timeout_ms = 0.0;
  /// Deadline for *finishing* a request once its first byte arrives; 0
  /// disables.  Distinct from idle_timeout_ms, which a slow-loris client
  /// defeats by dripping one header byte per interval: each drip resets
  /// the idle clock, but the clock started here runs from the first byte
  /// of the request until its framing completes, no matter how the bytes
  /// arrive.  HTTP connections are answered 408; raw JSON-lines
  /// connections get the structured "timeout" error line.
  double header_timeout_ms = 0.0;
  /// poll() timeout — the latency bound on noticing stop()/SIGTERM.
  /// (Completed futures do not wait for it: they poke the owning shard's
  /// wakeup pipe.)
  int poll_interval_ms = 50;
  /// Grace for flushing write buffers at drain (and for closing
  /// connections that were answered an error but are not reading it).
  /// In-flight compute is *not* grace-bounded at drain: admitted requests
  /// are answered, not dropped.
  double drain_grace_ms = 2000.0;
};

/// Aggregate counters of one Server's lifetime (mirrors the rvhpc_net_*
/// obs metrics, which aggregate across instances; tests want these).  A
/// snapshot: Server::stats() reads each counter without a lock.
struct ServerStats {
  std::uint64_t accepted = 0;    ///< connections accepted (incl. refused)
  std::uint64_t answered = 0;    ///< response lines delivered to write buffers
  std::uint64_t dispatched = 0;  ///< compute phases handed to the pool
  std::uint64_t inflight = 0;    ///< of those, not yet completed (a gauge)
  std::uint64_t bytes_in = 0;    ///< payload bytes received
  std::uint64_t bytes_out = 0;   ///< response bytes written
  std::uint64_t http_requests = 0;  ///< HTTP exchanges completed (all routes)
  std::uint64_t disconnect_eof = 0;
  std::uint64_t disconnect_idle = 0;
  std::uint64_t disconnect_oversize = 0;
  std::uint64_t disconnect_slow_reader = 0;
  std::uint64_t disconnect_refused = 0;
  std::uint64_t disconnect_error = 0;
  std::uint64_t disconnect_drained = 0;
  std::uint64_t disconnect_header_timeout = 0;
  /// Per-shard fan-out, indexed by shard: connections adopted, response
  /// lines delivered.  Sized ServerOptions::shards.
  std::vector<std::uint64_t> shard_connections;
  std::vector<std::uint64_t> shard_answered;
};

/// The listening socket: binds 127.0.0.1:<port>, hands out accepted fds.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens (non-blocking).  Throws std::runtime_error when the
  /// port cannot be bound.  port 0 binds an ephemeral port; port() reports
  /// the one the kernel chose.
  void open(std::uint16_t port);
  /// One pending client as a non-blocking fd, or -1 when none is waiting.
  [[nodiscard]] int accept_client() const;
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

namespace detail {
class Shard;
class CacheFlusher;
struct ShardCounters;
}  // namespace detail

class Server {
 public:
  /// The Service outlives the Server; request lines are admitted by
  /// service.admit on a shard thread and completed on the engine pool.
  Server(serve::Service& service, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener(s) and logs "net: listening on 127.0.0.1:<port>"
  /// (and "http: listening on 127.0.0.1:<port>" when HTTP is enabled) —
  /// the lines scripts/check.sh parses ephemeral ports from.  Throws
  /// std::runtime_error on bind failure.
  void open(std::ostream& log);
  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  /// Port of the HTTP listener (0 when ServerOptions::http is off).
  [[nodiscard]] std::uint16_t http_port() const {
    return http_listener_.port();
  }

  /// Accept loop: spawns the shards, the compute pool and the background
  /// cache flusher, then deals accepted sockets round-robin until stop()
  /// or serve::shutdown_requested().  Drains (buffered requests answered,
  /// in-flight futures completed, write buffers and the persistent cache
  /// flushed) and logs a "net: drained" summary before returning.
  void run(std::ostream& log);

  /// Serves one raw-wire connection that reads `in_fd` and writes
  /// `out_fd` (rvhpc-serve --listen=stdio passes 0 and 1) on shard 0,
  /// with run()'s start and drain sequence; returns once that connection
  /// has closed (EOF answered, reader gone, oversized line) or a stop was
  /// requested, and the drain is done.  The fds are borrowed: they are
  /// made non-blocking while the connection is open, get their original
  /// file-status flags back when it closes, and are never closed.  Serves
  /// no listener: call open() only before run().
  void run_stdio(int in_fd, int out_fd, std::ostream& log);

  /// Requests the same graceful drain SIGTERM does (thread-safe).
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] ServerStats stats() const;

 private:
  friend class detail::Shard;
  friend class detail::CacheFlusher;

  void serve(std::ostream& log, int stdio_in, int stdio_out);
  void accept_pending();
  void accept_from(const Listener& listener, bool http);
  void publish_gauges() const;

  serve::Service& service_;
  ServerOptions opts_;
  Listener listener_;       ///< raw JSON-lines protocol
  Listener http_listener_;  ///< HTTP/1.1 front end (when opts_.http)
  std::vector<std::unique_ptr<detail::Shard>> shards_;
  std::unique_ptr<engine::ThreadPool> pool_;
  std::unique_ptr<detail::CacheFlusher> flusher_;
  std::size_t next_shard_ = 0;  ///< round-robin deal cursor
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> open_conns_{0};  ///< across shards (cap check)
  std::atomic<std::size_t> inflight_{0};    ///< dispatched, not completed
  /// ServerStats, one lock-free slot per shard (sized opts_.shards;
  /// outlives the shards, so stats() works after the drain too).
  std::unique_ptr<detail::ShardCounters[]> counters_;
};

}  // namespace rvhpc::net
