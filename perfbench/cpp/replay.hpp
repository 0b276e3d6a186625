// The traced replay: each comparison row re-run as the sequence of
// public calls driver::compare_kernel makes (parse and lower the base
// program; per MVE variant apply SLMS, verify, run the interpreter
// oracle, lower and, with exact on, solve; then simulate per backend),
// with a span around every call. Spans stay in memory; a layer's self
// time is its spans' durations minus the time their child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::uint32_t row;
  };

  Tracer() : origin_(Clock::now()) {}
  int begin(const char* name, std::uint32_t row, int parent);
  void end(int span) { spans_[std::size_t(span)].end_ns = ns_since(origin_); }
  void clear() { spans_.clear(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in nanoseconds.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns() const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Work counts of one replay pass, summed over its rows.
struct ReplayCounts {
  std::uint64_t parse_calls = 0;
  std::uint64_t slms_calls = 0;
  std::uint64_t loops_attempted = 0;
  std::uint64_t loops_applied = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t verify_rejects = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t lower_calls = 0;
  std::uint64_t mir_insts = 0;
  std::uint64_t sim_calls = 0;
  std::uint64_t sim_instructions = 0;
  std::uint64_t exact_calls = 0;
  std::uint64_t exact_steps = 0;
};

/// Replays every (backend, kernel) row with spans recorded in `tracer`
/// (one root span per kernel; the transform calls run once per kernel,
/// the simulations once per backend, as with the transform cache).
/// `expected[b][k]` is compare_kernels' row for backend b, kernel k: a
/// replay that does not reproduce its cycles_base, cycles_slms and
/// report II is a failure on `result`.
ReplayCounts replay_rows(
    const std::vector<slc::kernels::Kernel>& kernels,
    const std::vector<slc::driver::Backend>& backends,
    const slc::driver::CompareOptions& options,
    const std::vector<std::vector<slc::driver::ComparisonRow>>& expected,
    Tracer& tracer, Result& result);

}  // namespace perfbench
