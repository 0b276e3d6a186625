// Shared plumbing of the perfbench program: run arguments, the result
// record every workload fills, robust statistics, the deterministic row
// digest that the output checks compare, and process-level measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "driver/pipeline.hpp"
#include "kernels/kernels.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;    // fresh per run; journals, crash dir, socket
  std::string bin_dir;    // holds the `slc` and `slcd` binaries
  std::string golden;     // golden digests of the default seed
  std::string spec;       // BENCHMARK.json: the metric names and units
  std::string trace_out;  // Chrome trace-event JSON of the traced replay
};

/// What a workload run reports. Metrics are keyed by their BENCHMARK.json
/// names; `notes` are human-readable lines printed before the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  /// Records `count` failures of one kind: the run is no longer correct
  /// and each failure counts toward fail_ratio.
  void fail(const std::string& why, std::uint64_t count = 1);
  void note(const std::string& line) { notes.push_back(line); }
};

/// The end-to-end timings of a run, kept per measurement window (a sweep,
/// a group of child-mode rounds, one second of requests). A run reports
/// the median over its windows, so a burst of host contention shorter
/// than half the run does not move its result.
struct Windows {
  std::vector<double> rate, p50_ms, p99_ms;

  /// A window of `latencies_ms.size()` completed units that took
  /// `seconds`. Give it at least 1000 units, so p99 has ten samples
  /// beyond it.
  void add(const std::vector<double>& latencies_ms, double seconds);
  /// Sets throughput_per_s on `result` and notes the p50 and p99.
  void report(Result& result) const;
};

/// Worker threads, concurrent children and client connections each
/// workload may use: the machine's core count, capped at 4.
[[nodiscard]] int load_width();

/// Setups each run repeats; setup_s is their median.
inline constexpr int kSetupRepeats = 15;

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Every deterministic field of a row (all but wall_ns, transform_cached
/// and the exact solve time), one line of text.
[[nodiscard]] std::string row_fields(const slc::driver::ComparisonRow& row);
/// Content hash over row_fields of every row, in order.
[[nodiscard]] std::string rows_digest(
    const std::vector<slc::driver::ComparisonRow>& rows);

/// Rows that did not complete `ok`.
[[nodiscard]] std::size_t not_ok(
    const std::vector<slc::driver::ComparisonRow>& rows);

/// Compares `rows` to `reference` field by field; every differing row is
/// a failure on `result`, labelled with `what`.
void check_same_rows(const std::vector<slc::driver::ComparisonRow>& rows,
                     const std::vector<slc::driver::ComparisonRow>& reference,
                     const std::string& what, Result& result);

/// The parsed JSON document in `path`; nullopt when unreadable.
[[nodiscard]] std::optional<slc::support::json::Value> read_json(
    const std::string& path);

/// Checks `digest` against the committed golden digest of `key` when the
/// run uses the golden seed; otherwise only notes the digest.
void check_golden(const Args& args, const std::string& key,
                  const std::string& digest, Result& result);

/// Peak resident set in MiB: the larger of this process and its largest
/// reaped descendant.
[[nodiscard]] double peak_rss_mb();

/// The eight "final compiler" backends of the paper's figure sweeps.
[[nodiscard]] std::vector<slc::driver::Backend> paper_backends();

/// Per-row compare_kernel times of `rows`, in milliseconds.
void append_row_ms(const std::vector<slc::driver::ComparisonRow>& rows,
                   std::vector<double>& out);

// Workloads. Each fills `result` with every end-to-end metric (trace off)
// or every per-layer metric it measures (trace on).
void run_gen_o3_cold(const Args& args, Result& result);
void run_gen_8backends(const Args& args, Result& result);
void run_gen_child_modes(const Args& args, Result& result);
void run_slcd_mixed(const Args& args, Result& result);

}  // namespace perfbench
