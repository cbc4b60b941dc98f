// S-family source rules over the token-stream model (source_model.hpp).
//
// S0xx — concurrency: blocking work on the net::Server event loop (S001),
// cross-thread flags that are not std::atomic (S002), mutex pairs locked
// in opposite orders by different functions (S003), detached or unjoined
// std::thread locals (S004).
//
// S1xx — hot-path hygiene, active only inside annotated
// hot-path begin/end regions: allocations (S101), by-value std::string
// parameters/returns (S102), std::to_string (S103), and map lookups that
// construct a temporary key (S104) — including by-name obs registry
// lookups (timer_target("..."), .counter("...")) outside a static
// initializer.
//
// S2xx — syscall robustness: write/send/poll/rename results silently
// discarded (S201).
//
// All of these are lexical heuristics, tuned to the constructs this repo
// actually uses; each message says what the rule inferred so a false
// positive is easy to recognise (and suppress with a disable directive).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/rules.hpp"
#include "analysis/source_model.hpp"

namespace rvhpc::analysis::detail {
namespace {

using Tokens = std::vector<Token>;

bool is_call(const Tokens& t, std::size_t i) {
  return i + 1 < t.size() && t[i + 1].punct("(");
}

bool member_access_before(const Tokens& t, std::size_t i) {
  return i > 0 && (t[i - 1].punct(".") || t[i - 1].punct("->"));
}

/// Reads a chained lvalue name ("stats_mu_", "c.mu", "obj->m") starting at
/// token `i`; advances `i` past it.  Used for mutex and thread operands.
std::string read_chain(const Tokens& t, std::size_t& i) {
  std::string name;
  while (i < t.size()) {
    const Token& tok = t[i];
    if (tok.kind == Token::Kind::Identifier || tok.punct("::") ||
        tok.punct(".") || tok.punct("->")) {
      name += tok.text;
      ++i;
    } else {
      break;
    }
  }
  return name;
}

// --- S001: blocking calls on the net::Server event loop --------------------

/// Calls that stall every connection when made from the poll() loop: sleeps,
/// the prediction itself (serve::Service::handle_line runs it inline), and
/// persistent-cache I/O.
bool blocking_call(const std::string& name) {
  static const std::set<std::string> kBlocking = {
      "sleep",        "usleep",     "nanosleep",  "sleep_for",
      "sleep_until",  "system",     "getline",    "predict",
      "predict_paper_setup",        "save_cache", "load_cache",
      "flush",        "handle_line"};
  return kBlocking.count(name) > 0;
}

bool file_stream_type(const std::string& name) {
  return name == "ifstream" || name == "ofstream" || name == "fstream";
}

void event_loop_rules(Report& out, const SourceModel& m, const Structure& st) {
  for (const FunctionSpan& fn : st.functions) {
    if (fn.name.rfind("Server::", 0) != 0) continue;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& tok = m.tokens[i];
      if (tok.kind != Token::Kind::Identifier) continue;
      if (blocking_call(tok.text) && is_call(m.tokens, i)) {
        emit(out, "S001-blocking-call-in-event-loop", fn.name, tok.text,
             tok.text + "() blocks the single-threaded poll() loop — every "
             "connection stalls until it returns; dispatch to the engine "
             "ThreadPool or move it off the event thread");
        out.diagnostics.back().loc = {m.path, tok.line};
      } else if (file_stream_type(tok.text)) {
        emit(out, "S001-blocking-call-in-event-loop", fn.name, tok.text,
             "file stream I/O (" + tok.text + ") on the event-loop thread "
             "blocks every connection; stage it through a worker instead");
        out.diagnostics.back().loc = {m.path, tok.line};
      }
    }
  }
}

// --- S002: cross-thread flags that are not std::atomic ---------------------

bool scalar_type_token(const Token& t) {
  static const std::set<std::string> kScalar = {
      "bool",    "int",      "unsigned", "long",     "short",    "char",
      "signed",  "size_t",   "ssize_t",  "int8_t",   "int16_t",  "int32_t",
      "int64_t", "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "intptr_t",
      "uintptr_t", "ptrdiff_t", "sig_atomic_t", "std", "volatile", "static"};
  return (t.kind == Token::Kind::Identifier && kScalar.count(t.text) > 0) ||
         t.punct("::");
}

bool lock_acquisition_name(const std::string& s) {
  return s == "lock_guard" || s == "scoped_lock" || s == "unique_lock" ||
         s == "shared_lock";
}

/// True when `fn` acquires any lock (guard construction or .lock() call) —
/// the heuristic for "this access is mutex-protected".
bool function_locks(const SourceModel& m, const FunctionSpan& fn) {
  for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
    const Token& tok = m.tokens[i];
    if (tok.kind != Token::Kind::Identifier) continue;
    if (lock_acquisition_name(tok.text)) return true;
    if (tok.text == "lock" && member_access_before(m.tokens, i) &&
        is_call(m.tokens, i)) {
      return true;
    }
  }
  return false;
}

bool assignment_op(const Token& t) {
  return t.punct("=") || t.punct("+=") || t.punct("-=") || t.punct("*=") ||
         t.punct("/=") || t.punct("%=") || t.punct("&=") || t.punct("|=") ||
         t.punct("^=") || t.punct("<<=") || t.punct(">>=");
}

/// S002 only makes sense where a second thread of control can exist: the
/// file spawns threads, runs async work, or installs signal handlers.
/// Single-threaded tools with file-scope counters stay quiet.
bool has_concurrency_evidence(const Tokens& t) {
  static const std::set<std::string> kEvidence = {
      "thread", "jthread", "async", "signal", "sigaction", "pthread_create"};
  for (const Token& tok : t) {
    if (tok.kind == Token::Kind::Identifier && kEvidence.count(tok.text) > 0) {
      return true;
    }
  }
  return false;
}

void shared_flag_rules(Report& out, const SourceModel& m,
                       const Structure& st) {
  const Tokens& t = m.tokens;
  if (!has_concurrency_evidence(t)) return;

  // Namespace-scope declarations of plain scalar variables.
  struct Candidate {
    std::string name;
    int line;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!st.namespace_scope[i]) continue;
    const bool stmt_start = i == 0 || t[i - 1].punct(";") ||
                            t[i - 1].punct("{") || t[i - 1].punct("}");
    if (!stmt_start || t[i].kind != Token::Kind::Identifier) continue;

    // Collect the declaration up to `;`, bailing on anything that is not a
    // plain scalar (templates, pointers, const, functions, atomics...).
    std::size_t j = i;
    std::vector<std::size_t> type_tokens;
    while (j < t.size() && scalar_type_token(t[j])) type_tokens.push_back(j++);
    if (type_tokens.empty() || j >= t.size() ||
        t[j].kind != Token::Kind::Identifier) {
      continue;
    }
    const std::size_t name_idx = j++;
    // Accept `= init;`, `{init};` or a bare `;` — reject anything else
    // (function declarations, arrays, comma lists).
    if (j < t.size() && t[j].punct("{")) {
      int depth = 1;
      for (++j; j < t.size() && depth > 0; ++j) {
        if (t[j].punct("{")) ++depth;
        if (t[j].punct("}")) --depth;
      }
    } else if (j < t.size() && t[j].punct("=")) {
      while (j < t.size() && !t[j].punct(";")) ++j;
    }
    if (j >= t.size() || !t[j].punct(";")) continue;
    candidates.push_back({t[name_idx].text, t[name_idx].line});
    i = j;
  }

  for (const Candidate& c : candidates) {
    const FunctionSpan* writer = nullptr;
    const FunctionSpan* reader = nullptr;
    bool unlocked_access = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].ident(c.name.c_str()) || member_access_before(t, i)) continue;
      const FunctionSpan* fn = st.enclosing(i);
      if (!fn) continue;
      const bool write =
          (i + 1 < t.size() && (assignment_op(t[i + 1]) ||
                                t[i + 1].punct("++") || t[i + 1].punct("--"))) ||
          (i > 0 && (t[i - 1].punct("++") || t[i - 1].punct("--")));
      if (write && !writer) writer = fn;
      if (!write && !reader) reader = fn;
      if (!function_locks(m, *fn)) unlocked_access = true;
    }
    if (writer && reader && writer != reader && unlocked_access) {
      emit(out, "S002-non-atomic-shared-flag", c.name, c.name,
           "'" + c.name + "' is written in " + writer->name + " and read in " +
               reader->name + " without std::atomic or a lock — a data race "
               "if those run on different threads (the PR 5 shutdown-flag "
               "bug); use std::atomic with explicit memory order");
      out.diagnostics.back().loc = {m.path, c.line};
    }
  }
}

// --- S003: inconsistent mutex acquisition order ----------------------------

struct Acquisition {
  std::string mutex;
  int depth;  ///< brace depth the guard was declared at (-1 = whole fn)
  int line;
};

void lock_order_rules(Report& out, const SourceModel& m, const Structure& st) {
  const Tokens& t = m.tokens;
  struct OrderedPair {
    std::string first, second;
    const FunctionSpan* fn;
    int line;
  };
  std::vector<OrderedPair> pairs;

  for (const FunctionSpan& fn : st.functions) {
    std::vector<Acquisition> held;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& tok = t[i];
      if (tok.punct("}")) {
        std::erase_if(held, [&](const Acquisition& a) {
          return a.depth >= 0 && a.depth > tok.brace_depth;
        });
        continue;
      }
      if (tok.kind != Token::Kind::Identifier) continue;

      std::string mutex_name;
      int depth = -2;
      if (lock_acquisition_name(tok.text) && !member_access_before(t, i)) {
        // `lock_guard[<...>] name(mu)` / `{mu}` — guard released when the
        // enclosing block closes.
        std::size_t j = i + 1;
        if (j < t.size() && t[j].punct("<")) {
          while (j < t.size() && !t[j].punct(">")) ++j;
          if (j < t.size()) ++j;
        }
        if (j >= t.size() || t[j].kind != Token::Kind::Identifier) continue;
        ++j;
        if (j >= t.size() || !(t[j].punct("(") || t[j].punct("{"))) continue;
        ++j;
        mutex_name = read_chain(t, j);
        // std::scoped_lock with several mutexes orders them internally —
        // that is the fix, not a finding.
        if (j < t.size() && t[j].punct(",")) continue;
        if (mutex_name.empty()) continue;
        depth = tok.brace_depth;
      } else if (tok.text == "lock" && member_access_before(t, i) &&
                 is_call(t, i)) {
        // `mu.lock()` — held until `.unlock()` or the end of the function.
        std::size_t start = i - 1;
        while (start > 0 &&
               (t[start - 1].kind == Token::Kind::Identifier ||
                t[start - 1].punct("::") || t[start - 1].punct(".") ||
                t[start - 1].punct("->"))) {
          --start;
        }
        std::size_t j = start;
        mutex_name = read_chain(t, j);  // includes the trailing .lock
        const std::size_t dot = mutex_name.rfind(".lock");
        if (dot == std::string::npos) continue;
        mutex_name.erase(dot);
        depth = -1;
      } else if (tok.text == "unlock" && member_access_before(t, i) &&
                 is_call(t, i)) {
        std::size_t start = i - 1;
        while (start > 0 &&
               (t[start - 1].kind == Token::Kind::Identifier ||
                t[start - 1].punct("::") || t[start - 1].punct(".") ||
                t[start - 1].punct("->"))) {
          --start;
        }
        std::size_t j = start;
        std::string name = read_chain(t, j);
        const std::size_t dot = name.rfind(".unlock");
        if (dot != std::string::npos) {
          name.erase(dot);
          std::erase_if(held, [&](const Acquisition& a) {
            return a.mutex == name;
          });
        }
        continue;
      } else {
        continue;
      }

      for (const Acquisition& h : held) {
        if (h.mutex != mutex_name) {
          pairs.push_back({h.mutex, mutex_name, &fn, tok.line});
        }
      }
      held.push_back({mutex_name, depth, tok.line});
    }
  }

  std::set<std::string> reported;
  for (const OrderedPair& p : pairs) {
    for (const OrderedPair& q : pairs) {
      if (p.first != q.second || p.second != q.first) continue;
      std::string key = std::min(p.first, p.second) + "/" +
                        std::max(p.first, p.second);
      if (!reported.insert(std::move(key)).second) continue;
      emit(out, "S003-lock-order-inversion", p.fn->name + "/" + q.fn->name,
           p.first + "," + p.second,
           "'" + p.first + "' then '" + p.second + "' in " + p.fn->name +
               " but the opposite order in " + q.fn->name +
               " — two threads taking one each deadlock; pick one order or "
               "use std::scoped_lock over both");
      out.diagnostics.back().loc = {m.path, q.line};
    }
  }
}

// --- S004: detached / unjoined std::thread locals --------------------------

void thread_rules(Report& out, const SourceModel& m, const Structure& st) {
  const Tokens& t = m.tokens;
  for (const FunctionSpan& fn : st.functions) {
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (!t[i].ident("thread") || member_access_before(t, i)) continue;
      // Declaration shape: `std::thread name(...)` / `{...}` / `;` / ` = `.
      if (i + 2 >= t.size() || t[i + 1].kind != Token::Kind::Identifier) {
        continue;
      }
      const std::string& var = t[i + 1].text;
      const Token& after = t[i + 2];
      if (!(after.punct("(") || after.punct("{") || after.punct(";") ||
            after.punct("="))) {
        continue;
      }
      bool joined = false, detached = false, escaped = false;
      int detach_line = 0;
      for (std::size_t j = i + 2; j < fn.body_end; ++j) {
        if (!t[j].ident(var.c_str())) continue;
        if (j + 2 < t.size() && (t[j + 1].punct(".") || t[j + 1].punct("->"))) {
          if (t[j + 2].ident("join")) joined = true;
          if (t[j + 2].ident("detach")) {
            detached = true;
            detach_line = t[j + 2].line;
          }
          continue;
        }
        // Passed along (moved, stored, returned): ownership escapes, the
        // joining is someone else's contract.
        const bool arg_like =
            j > 0 && (t[j - 1].punct("(") || t[j - 1].punct(",")) &&
            j + 1 < t.size() && (t[j + 1].punct(")") || t[j + 1].punct(","));
        const bool returned = j > 0 && t[j - 1].ident("return");
        if (arg_like || returned) escaped = true;
      }
      if (detached) {
        emit(out, "S004-unjoined-thread", fn.name, var,
             "'" + var + "' is detached — it can outlive every object it "
             "captures and no shutdown path can wait for it; keep the "
             "handle and join() on drain");
        out.diagnostics.back().loc = {m.path, detach_line};
      } else if (!joined && !escaped) {
        emit(out, "S004-unjoined-thread", fn.name, var,
             "'" + var + "' is never joined in " + fn.name +
                 " — std::terminate fires if it is still joinable at "
                 "destruction; join() it on every path");
        out.diagnostics.back().loc = {m.path, t[i + 1].line};
      }
    }
  }
}

// --- S1xx: hot-path hygiene ------------------------------------------------

const char* allocation_name(const std::string& s) {
  if (s == "new") return "new";
  if (s == "make_unique" || s == "make_shared" || s == "malloc" ||
      s == "calloc" || s == "realloc" || s == "strdup") {
    return s.c_str();
  }
  return nullptr;
}

bool lookup_member(const std::string& s) {
  return s == "find" || s == "count" || s == "at" || s == "contains";
}

/// The obs registry's by-name instrument lookups: each call builds a
/// std::string key and searches the registry's map under its mutex.
bool registry_lookup(const std::string& s) {
  return s == "timer_target" || s == "counter" || s == "gauge" ||
         s == "histogram";
}

/// True when token `i` belongs to a `static` declaration's initializer —
/// a function-local static runs its lookup once, not per call.
bool in_static_initializer(const Tokens& t, std::size_t i) {
  while (i-- > 0) {
    if (t[i].punct(";") || t[i].punct("{") || t[i].punct("}")) return false;
    if (t[i].ident("static")) return true;
  }
  return false;
}

/// True for `std :: string` ending at index `i` (of the `string` token).
bool std_string_at(const Tokens& t, std::size_t i) {
  return t[i].ident("string") && i >= 2 && t[i - 1].punct("::") &&
         t[i - 2].ident("std");
}

void hot_path_rules(Report& out, const SourceModel& m, const Structure& st) {
  if (m.hot_regions.empty()) return;
  const Tokens& t = m.tokens;
  const auto subject = [&](std::size_t i) {
    const FunctionSpan* fn = st.enclosing(i);
    return fn ? fn->name : m.path;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (!m.in_hot_region(tok.line)) continue;
    if (tok.kind != Token::Kind::Identifier) continue;

    if (const char* alloc = allocation_name(tok.text)) {
      // `make_unique<Entry>(...)` carries a template argument list between
      // the name and the call parens; skip it before the `(` check.
      std::size_t call_at = i;
      if (i + 1 < t.size() && t[i + 1].punct("<")) {
        int angle = 0;
        for (std::size_t j = i + 1; j < t.size() && j < i + 64; ++j) {
          if (t[j].punct("<")) ++angle;
          if (t[j].punct(">") && --angle == 0) {
            call_at = j;
            break;
          }
        }
      }
      const bool call_like = tok.text == "new" || is_call(t, call_at);
      if (call_like && !member_access_before(t, i)) {
        emit(out, "S101-hot-path-allocation", subject(i), tok.text,
             std::string(alloc) + " allocates inside a hot-path region — "
             "the warm serve/engine path targets zero allocations; hoist, "
             "pool or arena-allocate it");
        out.diagnostics.back().loc = {m.path, tok.line};
      }
      continue;
    }

    if (tok.text == "to_string" && is_call(t, i)) {
      emit(out, "S103-hot-path-to-string", subject(i), tok.text,
           "to_string() materialises a std::string on the hot path — format "
           "into a reused buffer or defer to the response-building stage");
      out.diagnostics.back().loc = {m.path, tok.line};
      continue;
    }

    if (std_string_at(t, i)) {
      // By-value parameter: `std::string name [,)=]` inside a parameter
      // list; by-value return: `std::string name(...) {`.
      if (i + 2 < t.size() && t[i + 1].kind == Token::Kind::Identifier) {
        const Token& after = t[i + 2];
        if (tok.paren_depth > 0 &&
            (after.punct(",") || after.punct(")") || after.punct("="))) {
          emit(out, "S102-hot-path-string-copy", subject(i), t[i + 1].text,
               "parameter '" + t[i + 1].text + "' takes std::string by value "
               "— every call copies the buffer; take std::string_view or a "
               "const reference");
          out.diagnostics.back().loc = {m.path, tok.line};
        } else if (tok.paren_depth == 0 && after.punct("(")) {
          std::size_t j = i + 2;
          int depth = 0;
          while (j < t.size()) {
            if (t[j].punct("(")) ++depth;
            if (t[j].punct(")") && --depth == 0) break;
            ++j;
          }
          while (++j < t.size() &&
                 (t[j].ident("const") || t[j].ident("noexcept"))) {
          }
          if (j < t.size() && t[j].punct("{")) {
            emit(out, "S102-hot-path-string-copy", subject(i), t[i + 1].text,
                 "'" + t[i + 1].text + "' returns std::string by value on "
                 "the hot path — return std::string_view into interned data "
                 "or write into a caller-provided buffer");
            out.diagnostics.back().loc = {m.path, tok.line};
          }
        }
      }
      continue;
    }

    if (registry_lookup(tok.text) && is_call(t, i) && i + 2 < t.size() &&
        t[i + 2].kind == Token::Kind::String &&
        (tok.text == "timer_target" || member_access_before(t, i)) &&
        !in_static_initializer(t, i)) {
      emit(out, "S104-hot-path-temp-key", subject(i), tok.text,
           tok.text + "(\"...\") looks an instrument up by name on the hot "
           "path — a temporary std::string key and a locked registry map "
           "search per call; cache the reference in a function-local "
           "static");
      out.diagnostics.back().loc = {m.path, tok.line};
      continue;
    }

    if (lookup_member(tok.text) && member_access_before(t, i) &&
        is_call(t, i) && i + 2 < t.size()) {
      const Token& arg = t[i + 2];
      const bool literal_key = arg.kind == Token::Kind::String;
      const bool constructed_key =
          arg.ident("std") && i + 5 < t.size() && t[i + 3].punct("::") &&
          t[i + 4].ident("string") && t[i + 5].punct("(");
      if (literal_key || constructed_key) {
        emit(out, "S104-hot-path-temp-key", subject(i), tok.text,
             "map ." + tok.text + "() builds a temporary std::string key on "
             "the hot path — intern the key or use a heterogeneous "
             "(string_view) comparator");
        out.diagnostics.back().loc = {m.path, tok.line};
      }
    }
  }
}

// --- S201: discarded syscall results ---------------------------------------

bool checked_syscall(const std::string& s) {
  return s == "write" || s == "send" || s == "poll" || s == "rename";
}

void syscall_rules(Report& out, const SourceModel& m, const Structure& st) {
  const Tokens& t = m.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::Identifier || !checked_syscall(t[i].text)) {
      continue;
    }
    if (!is_call(t, i) || member_access_before(t, i)) continue;
    // Walk past `::` / `std::` qualification to the token before the call
    // expression; the result is discarded when that token starts a
    // statement.  `(void)` casts leave a `)` there and are respected.
    std::size_t j = i;
    if (j > 0 && t[j - 1].punct("::")) {
      --j;
      if (j > 0 && t[j - 1].ident("std")) --j;
    }
    const bool stmt_start = j == 0 || t[j - 1].punct(";") ||
                            t[j - 1].punct("{") || t[j - 1].punct("}") ||
                            t[j - 1].ident("else");
    if (!stmt_start) continue;
    const FunctionSpan* fn = st.enclosing(i);
    emit(out, "S201-ignored-syscall-result", fn ? fn->name : m.path,
         t[i].text,
         t[i].text + "() can fail or short-" +
             (t[i].text == "write" || t[i].text == "send" ? "write"
                                                          : "circuit") +
             " and the result is discarded — check it, retry, or cast to "
             "(void) with a comment saying why failure is acceptable");
    out.diagnostics.back().loc = {m.path, t[i].line};
  }
}

}  // namespace

void source_rules(Report& out, const SourceModel& m) {
  const Structure st = analyze_structure(m);
  event_loop_rules(out, m, st);
  shared_flag_rules(out, m, st);
  lock_order_rules(out, m, st);
  thread_rules(out, m, st);
  hot_path_rules(out, m, st);
  syscall_rules(out, m, st);
}

}  // namespace rvhpc::analysis::detail
