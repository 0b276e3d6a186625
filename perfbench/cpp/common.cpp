#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

using slc::driver::ComparisonRow;

void Result::fail(const std::string& why, std::uint64_t count) {
  correct = false;
  failed += count;
  note("FAIL: " + why);
}

int load_width() {
  unsigned hw = std::thread::hardware_concurrency();
  return int(std::clamp(hw, 1u, 4u));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * double(values.size()));
  std::size_t index = rank < 1 ? 0 : std::size_t(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Windows::add(const std::vector<double>& latencies_ms, double seconds) {
  rate.push_back(double(latencies_ms.size()) / seconds);
  p50_ms.push_back(quantile(latencies_ms, 0.5));
  p99_ms.push_back(quantile(latencies_ms, 0.99));
}

void Windows::report(Result& result) const {
  result.metrics["throughput_per_s"] = median(rate);
  // Latencies are printed, not bounded: bursts of steal time on a shared
  // host move them far more than any bound allows.
  result.note("p50_ms = " + std::to_string(median(p50_ms)) +
              " ms, p99_ms = " + std::to_string(median(p99_ms)) +
              " ms (medians over windows)");
  result.note("windows: " + std::to_string(rate.size()) +
              "; throughput quartiles " + std::to_string(quantile(rate, 0.25)) +
              " " + std::to_string(quantile(rate, 0.5)) + " " +
              std::to_string(quantile(rate, 0.75)) + " 1/s");
}

namespace {

void put_loop(std::ostringstream& os, const slc::sim::LoopStat& l) {
  os << l.modulo_scheduled << ',' << l.ii << ',' << l.res_mii << ','
     << l.rec_mii << ',' << l.stages << ',' << l.bundles_per_iter << ','
     << l.body_insts << ',' << l.iterations << ',' << l.ims_fail_reason
     << '|';
}

}  // namespace

std::string row_fields(const ComparisonRow& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.kernel << '|' << r.suite << '|' << r.slms_applied << '|'
     << r.slms_skip_reason << '|';
  const slc::slms::SlmsReport& p = r.report;
  os << p.applied << ',' << p.skip_reason << ',' << p.loop_name << ','
     << p.num_mis << ',' << p.ii << ',' << p.stages << ',' << p.unroll << ','
     << p.decompositions << ',' << p.renamed_scalars << ',' << p.if_converted
     << ',' << p.used_trip_guard << ',' << p.memory_ratio << '|';
  os << r.ok << '|' << r.error << '|' << r.degraded << '|'
     << (r.failure ? r.failure->str() : std::string("-")) << '|';
  os << r.cycles_base << '|' << r.cycles_slms << '|' << r.energy_base << '|'
     << r.energy_slms << '|' << r.misses_base << '|' << r.misses_slms << '|';
  put_loop(os, r.loop_base);
  put_loop(os, r.loop_slms);
  const slc::driver::ExactSummary& e = r.exact;
  os << e.ran << ',' << e.status << ',' << e.ii << ',' << e.lower_bound << ','
     << e.heuristic_ii << ',' << e.verified << ',' << e.with_resources << ','
     << e.steps;
  return os.str();
}

std::string rows_digest(const std::vector<ComparisonRow>& rows) {
  std::string text;
  for (const ComparisonRow& r : rows) {
    text += row_fields(r);
    text += '\n';
  }
  return slc::kernels::source_hash(text);
}

std::size_t not_ok(const std::vector<ComparisonRow>& rows) {
  std::size_t n = 0;
  for (const ComparisonRow& r : rows) n += r.ok ? 0 : 1;
  return n;
}

void check_same_rows(const std::vector<ComparisonRow>& rows,
                     const std::vector<ComparisonRow>& reference,
                     const std::string& what, Result& result) {
  if (rows.size() != reference.size()) {
    result.fail(what + ": " + std::to_string(rows.size()) + " rows, expected " +
                std::to_string(reference.size()));
    return;
  }
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (row_fields(rows[i]) != row_fields(reference[i]))
      result.fail(what + ": row " + std::to_string(i) + " (" +
                  reference[i].kernel + ") differs from the reference");
}

std::optional<slc::support::json::Value> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return slc::support::json::parse(text.str());
}

void check_golden(const Args& args, const std::string& key,
                  const std::string& digest, Result& result) {
  std::optional<slc::support::json::Value> doc = read_json(args.golden);
  const slc::support::json::Value* seed = doc ? doc->find("seed") : nullptr;
  const slc::support::json::Value* digests =
      doc ? doc->find("digests") : nullptr;
  if (seed == nullptr || digests == nullptr) {
    result.fail("golden digests unreadable: " + args.golden);
    return;
  }
  result.note("digest " + key + " seed=" + std::to_string(args.seed) + ": " +
              digest);
  if (args.seed != seed->as_u64()) return;
  const slc::support::json::Value* want = digests->find(key);
  if (want == nullptr || want->as_string() != digest)
    result.fail("golden digest mismatch for " + key + " (want " +
                (want ? want->as_string() : std::string("none")) + ")");
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::vector<slc::driver::Backend> paper_backends() {
  using namespace slc::driver;
  return {weak_compiler_o0(),   weak_compiler_o3(),  weak_compiler_sms(),
          strong_compiler_icc(), strong_compiler_xlc(), superscalar_gcc(),
          superscalar_gcc_o0(),  arm_gcc()};
}

void append_row_ms(const std::vector<ComparisonRow>& rows,
                   std::vector<double>& out) {
  for (const ComparisonRow& r : rows) out.push_back(double(r.wall_ns) / 1e6);
}

}  // namespace perfbench
