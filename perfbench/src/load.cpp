#include "load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "http/parser.hpp"
#include "trace.hpp"

namespace rvbench {

namespace {

/// Waits shorter than this are spun (non-blocking polls), not slept.
constexpr double kSpinUs = 5000.0;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string http_post(const std::string& body) {
  return "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

}  // namespace

struct LoadClient::Conn {
  int fd = -1;
  std::string out;          ///< the in-flight request's unwritten bytes
  std::size_t out_off = 0;
  std::string in;
  bool busy = false;        ///< a request is in flight
  std::uint32_t inflight = 0;
  rvhpc::http::ResponseParser parser;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

LoadClient::LoadClient(Wire wire, std::uint16_t port, int conns, Reference& ref)
    : wire_(wire), ref_(ref), port_(port) {
  for (int i = 0; i < std::max(1, conns); ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = connect_loopback(port);
    conns_.push_back(std::move(c));
  }
}

LoadClient::~LoadClient() = default;

void LoadClient::reconnect() {
  for (auto& c : conns_) {
    auto fresh = std::make_unique<Conn>();
    fresh->fd = connect_loopback(port_);
    c = std::move(fresh);
  }
  waiting_.clear();
  outstanding_ = 0;
}

std::size_t LoadClient::prepare(const std::vector<Item>& items) {
  const std::size_t first = exchanges_.size();
  wire_bytes_.clear();
  wire_bytes_.reserve(items.size());
  for (const Item& item : items) {
    const auto e = static_cast<std::uint32_t>(exchanges_.size());
    Exchange ex;
    ex.first_line = static_cast<std::uint32_t>(lines_.size());
    ex.lines = static_cast<std::uint16_t>(item.specs.size());
    std::string body;
    for (const Spec& s : item.specs) {
      LineRec rec;
      rec.spec = ref_.intern(s);
      rec.exchange = e;
      rec.inline_machine = !s.machine_text.empty();
      rec.interval = s.backend == "interval";
      body += render_line(s, std::to_string(lines_.size()));
      body += '\n';
      lines_.push_back(rec);
    }
    exchanges_.push_back(ex);
    wire_bytes_.push_back(wire_ == Wire::Http ? http_post(body)
                                              : std::move(body));
  }
  return first;
}

void LoadClient::enqueue(std::uint32_t e, double due_us) {
  exchanges_[e].due_us = due_us;
  exchanges_[e].queued_us = now_us();
  waiting_.push_back(e);
  ++outstanding_;
  dispatch(exchanges_[e].queued_us);
}

void LoadClient::dispatch(double now) {
  for (std::size_t k = 0; k < conns_.size() && !waiting_.empty(); ++k) {
    const std::size_t i = (next_conn_ + k) % conns_.size();
    Conn& c = *conns_[i];
    if (c.busy) continue;
    const std::uint32_t e = waiting_.front();
    waiting_.pop_front();
    exchanges_[e].conn = static_cast<std::uint16_t>(i);
    c.out = wire_bytes_[e - wire_base_];
    c.out_off = 0;
    c.busy = true;
    c.inflight = e;
    flush(c, now);
    next_conn_ = (i + 1) % conns_.size();
  }
}

void LoadClient::flush(Conn& c, double now) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error("send() failed");
    }
    c.out_off += static_cast<std::size_t>(n);
  }
  if (!c.out.empty()) {
    exchanges_[c.inflight].sent_us = now;
    c.out.clear();
    c.out_off = 0;
  }
}

void LoadClient::complete(std::uint32_t e, double now) {
  Exchange& ex = exchanges_[e];
  if (ex.done_us > 0.0) return;
  ex.done_us = now;
  if (outstanding_ > 0) --outstanding_;
  Conn& c = *conns_[ex.conn];
  if (c.busy && c.inflight == e) c.busy = false;
  if (spans_ && e >= trace_from_) {
    const std::int32_t parent =
        spans_->add(span_exchange_, -1, e, ex.due_us, ex.done_us);
    spans_->add(span_wait_, parent, e, ex.due_us,
                ex.sent_us > 0.0 ? ex.sent_us : ex.due_us);
  }
}

void LoadClient::on_line(std::string_view line, double now) {
  const std::string_view id = response_id(line);
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(id.data(), id.data() + id.size(), n);
  if (ec != std::errc() || end != id.data() + id.size() || n >= lines_.size()) {
    ++stray_;
    return;
  }
  LineRec& rec = lines_[n];
  rec.outcome = classify(line);
  rec.hash = fnv1a(normalize(line));
  rec.server_us = response_latency_us(line);
  rec.hit = response_hit(line);
  Exchange& ex = exchanges_[rec.exchange];
  ++ex.answered;
  if (wire_ == Wire::Raw && ex.answered >= ex.lines) complete(rec.exchange, now);
}

void LoadClient::read_conn(Conn& c, double now) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      throw std::runtime_error("recv() failed");
    }
    if (n == 0) throw std::runtime_error("server closed a connection");
    if (wire_ == Wire::Raw) {
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        on_line(std::string_view(c.in).substr(start, nl - start), now);
      }
      c.in.erase(0, start);
      continue;
    }
    std::string_view data(buf, static_cast<std::size_t>(n));
    while (!data.empty()) {
      data.remove_prefix(c.parser.feed(data));
      if (c.parser.failed()) throw std::runtime_error("bad HTTP response");
      if (!c.parser.complete()) continue;
      if (!c.busy) throw std::runtime_error("unsolicited HTTP response");
      const std::uint32_t e = c.inflight;
      std::string_view body = c.parser.body();
      while (!body.empty()) {
        const std::size_t nl = body.find('\n');
        const std::string_view line = body.substr(0, nl);
        if (!line.empty()) on_line(line, now);
        body.remove_prefix(nl == std::string_view::npos ? body.size() : nl + 1);
      }
      complete(e, now);
      c.parser.reset();
    }
  }
}

void LoadClient::pump(double timeout_us) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i]->fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT));
  }
  // Waking from a sleep can take milliseconds on a busy host, which would
  // read as generator lag: sleep only through long waits, spin the rest.
  timeout_us = timeout_us > kSpinUs ? timeout_us - kSpinUs : 0.0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_us / 1e6);
  ts.tv_nsec = static_cast<long>(
      std::fmod(timeout_us, 1e6) * 1e3);
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error("ppoll() failed");
  }
  if (ready == 0) return;
  const double now = now_us();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_conn(*conns_[i], now);
    if (fds[i].revents & POLLOUT) flush(*conns_[i], now);
  }
  if (!waiting_.empty()) dispatch(now_us());
}

Phase LoadClient::start_phase(const std::string& name, const std::vector<Item>& items,
                          SpanBuffer* spans) {
  Phase p;
  p.name = name;
  p.lead_exchange = p.first_exchange = exchanges_.size();
  p.lead_line = p.first_line = lines_.size();
  wire_base_ = prepare(items);
  p.end_exchange = exchanges_.size();
  p.end_line = lines_.size();
  spans_ = nullptr;
  if (spans) {
    span_exchange_ = spans->name_id("exchange");
    span_wait_ = spans->name_id("client.wait");
  }
  return p;
}

Phase LoadClient::open_loop(const std::string& name, Generator& gen, double rate,
                        double seconds, double drain_s, SpanBuffer* spans,
                        double lead_rate, double lead_s) {
  const auto count = [](double r, double s) {
    return r > 0.0 && s > 0.0
               ? static_cast<std::size_t>(std::max(1.0, std::round(r * s)))
               : std::size_t{0};
  };
  const std::size_t lead = count(lead_rate, lead_s);
  const std::size_t n = lead + std::max<std::size_t>(1, count(rate, seconds));
  std::vector<Item> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) items.push_back(gen.next());
  Phase p = start_phase(name, items, spans);
  p.rate = rate;
  p.seconds = seconds;
  p.first_exchange = p.lead_exchange + lead;
  p.first_line = exchanges_[p.first_exchange].first_line;
  trace_from_ = p.first_exchange;  // trace the measured items only
  // Item i is due at due(i): the lead-in's spacing, then the phase's.
  const double t0 = now_us() + 1000.0;
  const double lead_end = t0 + static_cast<double>(lead) * 1e6 / std::max(lead_rate, 1e-9);
  const auto due = [&](std::size_t i) {
    return i < lead ? t0 + static_cast<double>(i) * 1e6 / lead_rate
                    : lead_end + static_cast<double>(i - lead) * 1e6 / rate;
  };
  std::size_t i = 0;
  while (i < n) {
    const double now = now_us();
    for (; i < n && due(i) <= now; ++i) {
      if (i == lead) spans_ = spans;
      enqueue(static_cast<std::uint32_t>(p.lead_exchange + i), due(i));
    }
    if (i < n) pump(due(i) - now_us());
  }
  finish_phase(p, due(n - 1) + drain_s * 1e6);
  return p;
}

Phase LoadClient::closed_loop(const std::string& name, const std::vector<Item>& items,
                          SpanBuffer* spans) {
  Phase p = start_phase(name, items, spans);
  spans_ = spans;
  trace_from_ = p.first_exchange;
  for (std::size_t i = p.first_exchange; i < p.end_exchange; ++i) {
    const double due = now_us();
    enqueue(static_cast<std::uint32_t>(i), due);
    const double deadline = due + 10e6;
    while (exchanges_[i].done_us == 0.0 && now_us() < deadline) pump(0.0);
    if (exchanges_[i].done_us == 0.0) break;
  }
  finish_phase(p, now_us() + 1e6);
  return p;
}

void LoadClient::finish_phase(Phase& p, double deadline_us) {
  while (outstanding_ > 0 && now_us() < deadline_us) pump(0.0);
  p.drained = outstanding_ == 0;
  double first_due = 0.0, last_done = 0.0;
  for (std::size_t e = p.first_exchange; e < p.end_exchange; ++e) {
    const Exchange& ex = exchanges_[e];
    if (e == p.first_exchange) first_due = ex.due_us;
    if (ex.queued_us > 0.0) p.lag_us.push_back(ex.queued_us - ex.due_us);
    if (ex.done_us > 0.0) {
      p.latency_us.push_back(ex.done_us - ex.due_us);
      last_done = std::max(last_done, ex.done_us);
    }
  }
  p.elapsed_s = std::max(0.0, last_done - first_due) * 1e-6;
  spans_ = nullptr;
  // Late answers would land in the next phase's accounting: start it on
  // fresh connections instead.
  if (!p.drained) reconnect();
}

Tally LoadClient::tally(const Phase& p) const {
  Tally t;
  for (std::size_t e = p.lead_exchange; e < p.end_exchange; ++e) {
    ++t.items;
    if (exchanges_[e].lines > 1) ++t.batch_items;
  }
  for (std::size_t l = p.lead_line; l < p.end_line; ++l) {
    const LineRec& r = lines_[l];
    ++t.sent;
    if (r.hit) ++t.hits;
    if (r.inline_machine) ++t.inline_lines;
    if (r.interval) ++t.interval_lines;
    switch (r.outcome) {
      case Outcome::Ok:
        if (ref_.matches(r.spec, r.hash)) {
          ++t.ok;
        } else {
          ++t.wrong;
        }
        break;
      case Outcome::Refused: ++t.refused; break;
      default: ++t.failed; break;
    }
  }
  return t;
}

void await_ready(Wire wire, std::uint16_t port, const std::string& probe_line) {
  const int fd = connect_loopback(port);
  const std::string req =
      wire == Wire::Http
          ? std::string("GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
          : probe_line + "\n";
  bool ok = ::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(req.size());
  std::string in;
  char buf[4096];
  rvhpc::http::ResponseParser parser;
  while (ok) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10000) <= 0) {
      ok = false;
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ok = false;
      break;
    }
    if (wire == Wire::Raw) {
      in.append(buf, static_cast<std::size_t>(n));
      if (in.find('\n') != std::string::npos) {
        ok = classify(in) == Outcome::Ok;
        break;
      }
    } else {
      (void)parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      if (parser.complete()) {
        ok = parser.status() == 200;
        break;
      }
    }
  }
  ::close(fd);
  if (!ok) throw std::runtime_error("server did not answer its readiness probe");
}

}  // namespace rvbench
