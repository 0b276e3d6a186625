// The in-process workloads: the generated corpus through
// driver::compare_kernels on one backend with a cold transform cache
// (gen_o3_cold), and on all eight paper backends with the exact II
// oracle on (gen_8backends). The traced run replays the same rows call by
// call (replay.hpp) and reconciles the replay with an untraced jobs=1
// pass of the same rows.
#include <algorithm>

#include "common.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

using slc::driver::Backend;
using slc::driver::ComparisonRow;
using slc::driver::CompareOptions;

struct SweepSpec {
  const char* name;
  std::size_t corpus_size;
  std::vector<Backend> backends;
  bool exact;
};

using Rows = std::vector<std::vector<ComparisonRow>>;  // [backend][kernel]

/// One sweep with the transform cache reset first, as a user's fresh
/// `slc --suite=generated` process would see it.
Rows sweep(const std::vector<slc::kernels::Kernel>& corpus,
           const SweepSpec& spec, int jobs) {
  CompareOptions opts;
  opts.jobs = jobs;
  opts.exact = spec.exact;
  slc::driver::transform_cache_reset();
  Rows rows;
  for (const Backend& b : spec.backends)
    rows.push_back(slc::driver::compare_kernels(corpus, b, opts));
  return rows;
}

std::vector<ComparisonRow> flatten(const Rows& rows) {
  std::vector<ComparisonRow> all;
  for (const auto& r : rows) all.insert(all.end(), r.begin(), r.end());
  return all;
}

std::vector<slc::kernels::Kernel> set_up(const Args& args,
                                         const SweepSpec& spec,
                                         Result& result) {
  std::vector<double> setups;
  std::vector<slc::kernels::Kernel> corpus;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    slc::driver::transform_cache_reset();
    corpus = slc::kernels::generated_suite(spec.corpus_size, args.seed);
    setups.push_back(seconds_since(start));
  }
  result.metrics["setup_s"] = median(setups);
  return corpus;
}

void timed_sweeps(const Args& args, const SweepSpec& spec,
                  const std::vector<slc::kernels::Kernel>& corpus,
                  Result& result) {
  int jobs = load_width();
  Windows windows;  // one per sweep
  std::string first_digest;
  Clock::time_point start = Clock::now();
  while (windows.rate.size() < 3 || seconds_since(start) < args.seconds) {
    Clock::time_point t0 = Clock::now();
    Rows rows = sweep(corpus, spec, jobs);
    double wall = seconds_since(t0);
    std::vector<ComparisonRow> all = flatten(rows);
    std::vector<double> row_ms;
    append_row_ms(all, row_ms);
    windows.add(row_ms, wall);
    result.attempted += all.size();
    result.failed += not_ok(all);
    std::string digest = rows_digest(all);
    if (first_digest.empty()) {
      first_digest = digest;
      check_golden(args, spec.name, digest, result);
    } else if (digest != first_digest) {
      result.fail("sweep " + std::to_string(windows.rate.size()) +
                  " rows differ from the first sweep");
    }
  }
  slc::driver::TransformCacheStats cache =
      slc::driver::transform_cache_stats();
  result.note("load: 1 process, " + std::to_string(jobs) +
              " compare threads, 0 children, 0 connections");
  result.note(std::string(spec.name) + ": " +
              std::to_string(windows.rate.size()) +
              " sweeps of " + std::to_string(corpus.size()) + " kernels x " +
              std::to_string(spec.backends.size()) + " backend(s); last " +
              "sweep transform cache " + std::to_string(cache.hits) +
              " hits / " + std::to_string(cache.misses) + " misses");
  windows.report(result);
}

void traced_sweeps(const Args& args, const SweepSpec& spec,
                   const std::vector<slc::kernels::Kernel>& corpus,
                   Result& result) {
  int jobs = load_width();
  CompareOptions opts;
  opts.exact = spec.exact;
  std::map<std::string, std::vector<double>> per_round;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Tracer tracer;
  std::string first_digest;
  Clock::time_point start = Clock::now();
  double round_s = 0;  // a round is long; start one only if it fits
  while (traced_s.empty() || seconds_since(start) + round_s < args.seconds) {
    Clock::time_point round_start = Clock::now();
    // Untraced jobs=1 pass: the reference rows and the time to reconcile.
    Clock::time_point t0 = Clock::now();
    Rows expected = sweep(corpus, spec, 1);
    untraced_s.push_back(seconds_since(t0));
    std::vector<ComparisonRow> all = flatten(expected);
    result.attempted += all.size();
    result.failed += not_ok(all);
    if (first_digest.empty()) {
      first_digest = rows_digest(all);
      check_golden(args, spec.name, first_digest, result);
    }

    tracer.clear();
    ReplayCounts c =
        replay_rows(corpus, spec.backends, opts, expected, tracer, result);
    std::map<std::string, std::int64_t> self = tracer.self_ns();
    double traced = 0;
    for (const auto& [name, ns] : self) traced += double(ns) / 1e9;
    traced_s.push_back(traced);

    auto& m = per_round;
    m["frontend.parse_ns"].push_back(double(self["frontend.parse"]));
    m["frontend.parse_calls"].push_back(double(c.parse_calls));
    m["slms.apply_ns"].push_back(double(self["slms.apply"]));
    m["slms.apply_calls"].push_back(double(c.slms_calls));
    m["slms.applied_ratio"].push_back(
        double(c.loops_applied) / double(std::max<std::uint64_t>(
                                      c.loops_attempted, 1)));
    m["verify.transformed_ns"].push_back(double(self["verify.transformed"]));
    m["verify.calls"].push_back(double(c.verify_calls));
    m["verify.rejects"].push_back(double(c.verify_rejects));
    m["interp.oracle_ns"].push_back(double(self["interp.oracle"]));
    m["interp.oracle_calls"].push_back(double(c.oracle_calls));
    m["interp.mismatches"].push_back(double(c.oracle_mismatches));
    m["machine.lower_ns"].push_back(double(self["machine.lower"]));
    m["machine.lower_calls"].push_back(double(c.lower_calls));
    m["machine.mir_insts"].push_back(double(c.mir_insts));
    m["sim.simulate_ns"].push_back(double(self["sim.simulate"]));
    m["sim.calls"].push_back(double(c.sim_calls));
    m["sim.instructions"].push_back(double(c.sim_instructions));
    m["exact.solve_ns"].push_back(double(self["exact.solve"]));
    m["exact.steps"].push_back(double(c.exact_steps));
    std::size_t ran = 0;
    std::size_t optimal = 0;
    for (const ComparisonRow& r : all) {
      ran += r.exact.ran ? 1 : 0;
      optimal += r.exact.ran && r.exact.status == "optimal" ? 1 : 0;
    }
    m["exact.optimal_ratio"].push_back(
        ran == 0 ? 0.0 : double(optimal) / double(ran));

    // Untraced pass at full width: the driver's own counters.
    t0 = Clock::now();
    Rows rows = sweep(corpus, spec, jobs);
    double wall = seconds_since(t0);
    all = flatten(rows);
    result.attempted += all.size();
    result.failed += not_ok(all);
    if (rows_digest(all) != first_digest)
      result.fail("jobs=" + std::to_string(jobs) +
                  " rows differ from the jobs=1 rows");
    std::vector<double> row_us;
    double busy = 0;
    for (const ComparisonRow& r : all) {
      row_us.push_back(double(r.wall_ns) / 1e3);
      busy += double(r.wall_ns) / 1e9;
    }
    slc::driver::TransformCacheStats cache =
        slc::driver::transform_cache_stats();
    m["driver.row_p50_us"].push_back(quantile(row_us, 0.5));
    m["driver.row_p99_us"].push_back(quantile(row_us, 0.99));
    m["driver.cache_hit_ratio"].push_back(
        double(cache.hits) /
        double(std::max<std::uint64_t>(cache.hits + cache.misses, 1)));
    m["driver.parallel_efficiency"].push_back(busy / (wall * jobs));
    round_s = seconds_since(round_start);
  }
  for (const auto& [name, values] : per_round)
    result.metrics[name] = median(values);

  // Reconciliation: the replay must account for the sweep it replays.
  double overhead = median(traced_s) / median(untraced_s) - 1.0;
  result.metrics["trace.overhead_ratio"] = overhead;
  result.note("traced: " + std::to_string(traced_s.size()) +
              " rounds; replay self time " + std::to_string(median(traced_s)) +
              " s vs untraced jobs=1 " + std::to_string(median(untraced_s)) +
              " s");
  if (overhead > 0.25 || overhead < -0.25)
    result.fail("replay self time does not reconcile with the untraced "
                "jobs=1 sweep (ratio " + std::to_string(overhead) + ")");
  if (!args.trace_out.empty()) {
    if (tracer.write_chrome(args.trace_out))
      result.note("trace: " + std::to_string(tracer.spans().size()) +
                  " spans written to " + args.trace_out);
    else
      result.note("trace: could not write " + args.trace_out);
  }
  result.note("load: 1 process, 1 replay thread, " + std::to_string(jobs) +
              " compare threads, 0 children, 0 connections");
}

void run_sweep(const Args& args, const SweepSpec& spec, Result& result) {
  std::vector<slc::kernels::Kernel> corpus = set_up(args, spec, result);
  if (args.trace)
    traced_sweeps(args, spec, corpus, result);
  else
    timed_sweeps(args, spec, corpus, result);
}

}  // namespace

void run_gen_o3_cold(const Args& args, Result& result) {
  run_sweep(args,
            {"gen_o3_cold", 2000, {slc::driver::weak_compiler_o3()}, false},
            result);
}

void run_gen_8backends(const Args& args, Result& result) {
  run_sweep(args, {"gen_8backends", 2000, paper_backends(), true}, result);
}

}  // namespace perfbench
