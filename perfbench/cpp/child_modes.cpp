// gen_child_modes: a generated-corpus slice through the child-process
// execution paths, in sequence — driver::isolate::run_suite with one row
// per child and a journal, dist::run_suite with a worker pool and a
// journal, then a resume of the complete worker journal. Every row of
// every mode must equal the in-process compare_kernels row.
//
// The children are the real `slc` binary, which rebuilds the corpus from
// `--suite=generated --corpus-size=N` (corpus seed 0); the run seed
// reaches the rows through `slc --seed`, the simulation input seed.
#include <filesystem>

#include "common.hpp"
#include "dist/coordinator.hpp"
#include "driver/isolate.hpp"
#include "driver/journal.hpp"
#include "support/subprocess.hpp"

namespace perfbench {

namespace {

using slc::driver::ComparisonRow;

constexpr std::size_t kSliceRows = 48;
// Child-computed rows per measurement window (about 11 rounds).
constexpr std::size_t kWindowRows = 1000;

bool all_completed(const std::vector<std::uint8_t>& completed) {
  for (std::uint8_t c : completed)
    if (c == 0) return false;
  return true;
}

}  // namespace

void run_gen_child_modes(const Args& args, Result& result) {
  namespace fs = std::filesystem;
  const int jobs = load_width();
  const std::string seed_flag = "--seed=" + std::to_string(args.seed);
  const std::vector<std::string> row_args = {
      "--suite=generated", "--corpus-size=" + std::to_string(kSliceRows),
      "--measure=gcc-o3", seed_flag};
  // The journal key context, as slc forms it: the row-shaping flags
  // without the row-set flag --corpus-size.
  const std::string signature =
      "--suite=generated --measure=gcc-o3 " + seed_flag;
  const std::string isolate_journal = args.tmp_dir + "/isolate.jsonl";
  const std::string dist_journal = args.tmp_dir + "/workers.jsonl";
  const std::string crash_dir = args.tmp_dir + "/crashes";

  // Set-up: a fresh crash directory, the slice, and one start of the
  // `slc` binary every child mode runs (it lists its kernels and exits),
  // so set-up is dominated by the program's start-up, not by a
  // sub-millisecond directory operation.
  std::vector<double> setups;
  std::vector<slc::kernels::Kernel> kernels;
  slc::support::subprocess::RunOptions probe;
  probe.argv = {args.bin_dir + "/slc", "--list-kernels"};
  probe.timeout_ms = 20000;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    fs::remove_all(crash_dir);
    fs::create_directories(crash_dir);
    kernels = slc::kernels::generated_suite(kSliceRows);
    slc::support::subprocess::RunResult started =
        slc::support::subprocess::run(probe);
    setups.push_back(seconds_since(start));
    if (!started.clean()) {
      result.fail("slc --list-kernels: " + started.describe());
      return;
    }
  }
  result.metrics["setup_s"] = median(setups);

  slc::driver::isolate::Options iso;
  iso.slc_exe = args.bin_dir + "/slc";
  iso.child_args = row_args;
  iso.shard_size = 1;
  iso.jobs = jobs;
  iso.options_signature = signature;
  iso.journal_path = isolate_journal;
  iso.crash_dir = crash_dir;
  iso.shrink_crashes = false;

  slc::dist::Options workers;
  workers.slc_exe = iso.slc_exe;
  workers.child_args = row_args;
  workers.workers = jobs;
  workers.options_signature = signature;
  workers.journal_path = dist_journal;
  slc::dist::Options resume = workers;
  resume.resume = true;

  std::vector<double> isolate_rates, worker_rates, resume_s, row_ms;
  Windows windows;
  std::vector<double> window_ms;  // the open window's row times
  double window_s = 0;            // and its summed pass time
  std::vector<ComparisonRow> first_isolate, first_workers, first_resume;
  slc::dist::Stats dist_totals;
  std::size_t crashed = 0, resumed = 0, rounds = 0;
  Clock::time_point start = Clock::now();
  while (rounds < 3 || seconds_since(start) < args.seconds) {
    ++rounds;
    Clock::time_point t0 = Clock::now();
    slc::driver::isolate::Outcome a =
        slc::driver::isolate::run_suite(kernels, iso);
    double t_isolate = seconds_since(t0);
    t0 = Clock::now();
    slc::dist::Outcome b = slc::dist::run_suite(kernels, workers);
    double t_workers = seconds_since(t0);
    t0 = Clock::now();
    slc::dist::Outcome c = slc::dist::run_suite(kernels, resume);
    double t_resume = seconds_since(t0);

    isolate_rates.push_back(double(kSliceRows) / t_isolate);
    worker_rates.push_back(double(kSliceRows) / t_workers);
    resume_s.push_back(t_resume);
    append_row_ms(a.rows, row_ms);
    append_row_ms(b.rows, row_ms);
    append_row_ms(a.rows, window_ms);
    append_row_ms(b.rows, window_ms);
    window_s += t_isolate + t_workers + t_resume;
    if (window_ms.size() >= kWindowRows) {
      windows.add(window_ms, window_s);
      window_ms.clear();
      window_s = 0;
    }

    for (const auto* rows : {&a.rows, &b.rows, &c.rows}) {
      result.attempted += rows->size();
      result.failed += not_ok(*rows);
    }
    if (!all_completed(a.completed) || !all_completed(b.completed) ||
        !all_completed(c.completed))
      result.fail("a child mode left rows incomplete in round " +
                  std::to_string(rounds));
    if (c.resumed != kSliceRows)
      result.fail("resume replayed " + std::to_string(c.resumed) + " of " +
                  std::to_string(kSliceRows) + " rows");
    if (first_isolate.empty()) {
      first_isolate = a.rows;
      first_workers = b.rows;
      first_resume = c.rows;
    } else {
      check_same_rows(a.rows, first_isolate, "isolate", result);
      check_same_rows(b.rows, first_workers, "workers", result);
      check_same_rows(c.rows, first_resume, "resume", result);
    }
    crashed += a.crashed_children;
    resumed += c.resumed;
    dist_totals.leases_granted += b.stats.leases_granted;
    dist_totals.steals += b.stats.steals;
    dist_totals.workers_lost += b.stats.workers_lost;
    dist_totals.fallback_rows += b.stats.fallback_rows;
  }

  // Output check: every mode's rows equal the in-process rows.
  slc::driver::CompareOptions opts;
  opts.sim_seed = args.seed;
  opts.jobs = jobs;
  std::vector<ComparisonRow> reference = slc::driver::compare_kernels(
      kernels, slc::driver::weak_compiler_o3(), opts);
  check_same_rows(first_isolate, reference, "isolate vs in-process", result);
  check_same_rows(first_workers, reference, "workers vs in-process", result);
  check_same_rows(first_resume, reference, "resume vs in-process", result);
  check_golden(args, "gen_child_modes", rows_digest(reference), result);

  result.note("load: 1 process, " + std::to_string(jobs) +
              " concurrent children (isolate) / " + std::to_string(jobs) +
              " workers (dist), 0 connections");
  result.note("gen_child_modes: " + std::to_string(rounds) + " rounds of " +
              std::to_string(kSliceRows) +
              " rows x (isolate, workers, resume)");
  result.note("isolate_rows_per_s = " + std::to_string(median(isolate_rates)) +
              " 1/s");
  result.note("workers_rows_per_s = " + std::to_string(median(worker_rates)) +
              " 1/s");
  result.note("resume_s = " + std::to_string(median(resume_s)) + " s");

  if (!args.trace) {
    // Rows computed by children (isolate and workers passes) over the
    // time of all three passes.
    if (windows.rate.empty()) windows.add(window_ms, window_s);
    windows.report(result);
    return;
  }
  result.metrics["driver.row_p50_us"] = quantile(row_ms, 0.5) * 1e3;
  result.metrics["driver.row_p99_us"] = quantile(row_ms, 0.99) * 1e3;
  result.metrics["isolate_rows_per_s"] = median(isolate_rates);
  result.metrics["workers_rows_per_s"] = median(worker_rates);
  result.metrics["resume_s"] = median(resume_s);
  // Counters per round (one pass of each mode over the slice).
  auto per_round = [&](std::size_t total) {
    return double(total) / double(rounds);
  };
  result.metrics["dist.leases_granted"] = per_round(dist_totals.leases_granted);
  result.metrics["dist.steals"] = per_round(dist_totals.steals);
  result.metrics["dist.workers_lost"] = per_round(dist_totals.workers_lost);
  result.metrics["dist.fallback_rows"] = per_round(dist_totals.fallback_rows);
  result.metrics["isolate.crashed_children"] = per_round(crashed);
  result.metrics["isolate.resumed_rows"] = per_round(resumed);

  // The journal layer on its own: appends of the reference rows to a
  // fresh journal, and loads of the complete worker journal.
  slc::driver::journal::Journal journal;
  std::string error;
  if (!journal.open(args.tmp_dir + "/append.jsonl", /*truncate=*/true,
                    &error)) {
    result.fail("journal open failed: " + error);
    return;
  }
  std::vector<double> append_us;
  for (const slc::kernels::Kernel& k : kernels) {
    const ComparisonRow& row = reference[append_us.size()];
    std::string key = slc::driver::journal::row_key(k.source, signature);
    Clock::time_point t0 = Clock::now();
    if (!journal.append(key, row)) result.fail("journal append failed");
    append_us.push_back(double(ns_since(t0)) / 1e3);
  }
  std::vector<double> load_ms;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t0 = Clock::now();
    slc::driver::journal::LoadResult loaded =
        slc::driver::journal::load(dist_journal);
    load_ms.push_back(double(ns_since(t0)) / 1e6);
    if (loaded.rows.size() != kSliceRows)
      result.fail("journal load found " + std::to_string(loaded.rows.size()) +
                  " rows");
  }
  result.metrics["driver.journal_append_us"] = median(append_us);
  result.metrics["driver.journal_load_ms"] = median(load_ms);
}

}  // namespace perfbench
