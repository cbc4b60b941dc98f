#pragma once
// rvhpc::cli — shared command-line plumbing for the repo's tools.
//
// rvhpc-lint and rvhpc-profile (and future CLIs) route their --help and
// --version output through these helpers so the tools stay consistent:
// one version string sourced from the CMake project version, one help
// layout, one place to change either.

#include <iosfwd>
#include <string>

namespace rvhpc::cli {

/// True in ASan/TSan builds.  Wall-clock gates (speedup bars, overhead
/// ratios) skip their thresholds there: instrumentation distorts timing.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// Static identity of one CLI tool.
struct ToolInfo {
  std::string name;      ///< "rvhpc-profile"
  std::string one_line;  ///< what the tool does, for the help header
  std::string usage;     ///< full usage block (no trailing newline needed)
};

/// The library version ("1.0.0"), from the CMake project version.
[[nodiscard]] std::string version_string();

/// "name (rvhpc <version>)".
void print_version(std::ostream& os, const ToolInfo& tool);

/// Help header + usage block.
void print_help(std::ostream& os, const ToolInfo& tool);

/// Handles a leading --help/-h/--version anywhere in argv: prints the
/// matching output to `os` and returns true (caller exits 0).  Returns
/// false when neither flag is present.
[[nodiscard]] bool handle_standard_flags(int argc, char** argv,
                                         const ToolInfo& tool,
                                         std::ostream& os);

/// The one sentence every tool's usage block uses for --jobs, so the flag
/// reads identically everywhere:
///   "  --jobs=N     at most N worker threads (0 = every hardware thread)"
[[nodiscard]] std::string jobs_flag_help();

/// Parses a non-negative decimal integer flag value ("16384") into `out`.
/// Returns false on empty input, garbage, or a negative/overflowing value
/// — the shared guts of every --queue=/--cache-capacity=/--connect=PORT
/// style flag, so each tool rejects bad numbers identically.
[[nodiscard]] bool parse_size(const std::string& text, std::size_t& out);

/// Scans argv for `--jobs=N` and caps the engine's default evaluator
/// (engine::set_default_jobs): N > 0 runs a batch on at most N threads,
/// N == 0 on every hardware thread (engine::hardware_jobs) — the same
/// semantics on every binary.  N is a cap on the process-wide pool of
/// hardware_jobs() workers, so N above the host's hardware threads
/// starts no extra thread.  Returns the effective worker count applied, 0 when
/// the flag is absent or malformed.  Other arguments are left untouched.
int apply_jobs_flag(int argc, char** argv);

}  // namespace rvhpc::cli
