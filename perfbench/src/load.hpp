#pragma once
// The load generator: one thread driving up to nproc loopback
// connections against an rvhpc net::Server, on either wire.
//
// Open loop: item i of a phase is due at t0 + i/rate whatever the server
// is doing, and its latency is timed from that due time, so a stall
// charges every request that queued behind it.  How late the generator
// itself queued each item is recorded as its lag.  The connections form a
// pool like an HTTP/1.1 client's: each carries one request at a time (no
// pipelining), and an item waits in the generator's queue for a free
// connection — that wait is part of its latency.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check.hpp"
#include "gen.hpp"

namespace rvbench {

class SpanBuffer;

enum class Wire { Raw, Http };

/// One request line the generator sent.
struct LineRec {
  std::uint32_t spec = 0;      ///< Reference index of its content
  std::uint32_t exchange = 0;  ///< the item that carried it
  std::uint64_t hash = 0;      ///< normalized response hash
  double server_us = -1.0;     ///< the response's own latency_us field
  Outcome outcome = Outcome::Pending;
  bool hit = false;
  bool inline_machine = false;
  bool interval = false;
};

/// One item: a raw line, or one HTTP exchange (possibly a batch).
struct Exchange {
  double due_us = 0.0;
  double queued_us = 0.0;  ///< the generator queued it
  double sent_us = 0.0;    ///< its bytes were written
  double done_us = 0.0;
  std::uint32_t first_line = 0;
  std::uint16_t lines = 0;
  std::uint16_t answered = 0;
  std::uint16_t conn = 0;
};

/// What one phase offered and got back.  A phase may open with a
/// lead-in: items sent on the same schedule just before the measured ones,
/// checked and counted but left out of the latency figures.
struct Phase {
  std::string name;
  double rate = 0.0;       ///< offered items per second (0 = closed loop)
  double seconds = 0.0;    ///< scheduled length
  std::size_t lead_exchange = 0, lead_line = 0;  ///< lead-in start
  std::size_t first_exchange = 0, end_exchange = 0;
  std::size_t first_line = 0, end_line = 0;
  double elapsed_s = 0.0;  ///< first due time to last response
  bool drained = true;     ///< every response arrived before the deadline

  std::vector<double> latency_us;  ///< done − due, answered items only
  std::vector<double> lag_us;      ///< queued − due
};

/// Accounting of a phase's lines once the reference is known.
struct Tally {
  std::uint64_t items = 0, batch_items = 0;
  std::uint64_t sent = 0, ok = 0, refused = 0, failed = 0, wrong = 0;
  std::uint64_t hits = 0, inline_lines = 0, interval_lines = 0;
  [[nodiscard]] std::uint64_t bad() const { return refused + failed + wrong; }
};

class LoadClient {
 public:
  /// Connects `conns` clients to 127.0.0.1:`port`.  Throws on failure.
  LoadClient(Wire wire, std::uint16_t port, int conns, Reference& ref);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Offers `gen`'s items at `rate` per second for `seconds`, then waits
  /// up to `drain_s` for outstanding responses (missing ones fail).  A
  /// lead-in of `lead_s` seconds at `lead_rate` runs first, with no gap.
  /// With `spans`, records one span per measured item (due → done) with a
  /// child for its wait before the wire (due → written).
  Phase open_loop(const std::string& name, Generator& gen, double rate,
                  double seconds, double drain_s, SpanBuffer* spans,
                  double lead_rate = 0.0, double lead_s = 0.0);

  /// Sends `items` one at a time, each after the previous answered.
  Phase closed_loop(const std::string& name, const std::vector<Item>& items,
                    SpanBuffer* spans);

  /// Tallies a phase's lines; call after the reference is built.
  [[nodiscard]] Tally tally(const Phase& p) const;

  [[nodiscard]] const std::vector<LineRec>& lines() const { return lines_; }
  /// Responses whose id matched no request (each is a failure).
  [[nodiscard]] std::uint64_t stray() const { return stray_; }
  [[nodiscard]] const std::vector<Exchange>& exchanges() const {
    return exchanges_;
  }

 private:
  struct Conn;

  /// Renders `items` into wire bytes and line/exchange records; returns
  /// the first exchange index.
  std::size_t prepare(const std::vector<Item>& items);
  Phase start_phase(const std::string& name, const std::vector<Item>& items,
                    SpanBuffer* spans);
  void enqueue(std::uint32_t exchange, double due_us);
  /// Hands queued items to free connections.
  void dispatch(double now);
  void flush(Conn& c, double now);
  void pump(double timeout_us);
  void read_conn(Conn& c, double now);
  void on_line(std::string_view line, double now);
  void complete(std::uint32_t exchange, double now);
  void finish_phase(Phase& p, double deadline_us);
  void reconnect();

  Wire wire_;
  Reference& ref_;
  std::uint16_t port_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t next_conn_ = 0;
  std::deque<std::uint32_t> waiting_;  ///< queued items with no free conn
  std::vector<LineRec> lines_;
  std::vector<Exchange> exchanges_;
  std::vector<std::string> wire_bytes_;  ///< current phase, by exchange
  std::size_t wire_base_ = 0;            ///< exchange index of wire_bytes_[0]
  std::size_t outstanding_ = 0;          ///< items not yet fully answered
  std::uint64_t stray_ = 0;              ///< responses matching no request
  SpanBuffer* spans_ = nullptr;          ///< current phase's, when traced
  std::uint32_t span_exchange_ = 0, span_wait_ = 0;
  std::size_t trace_from_ = 0;           ///< first exchange spans cover
};

/// Blocks until a fresh connection to `port` answers one request
/// (raw: `probe_line`; HTTP: GET /healthz).  Throws on failure.
void await_ready(Wire wire, std::uint16_t port, const std::string& probe_line);

}  // namespace rvbench
