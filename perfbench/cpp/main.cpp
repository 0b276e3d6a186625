// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --tmp-dir DIR --bin-dir DIR --golden FILE --spec FILE
//             [--trace-out FILE]
//
// Runs one workload (gen_o3_cold, gen_8backends, gen_child_modes,
// slcd_mixed) for S seconds, checks every output, prints one
// "metric NAME = VALUE UNIT" line per metric and, as the last line, one
// JSON object {"correct","attempted","failed","metrics"}. The metric
// names and units come from the spec file (BENCHMARK.json): with
// --trace 0 its end_to_end list, with --trace 1 its per_layer list.
// Exit status is 0 only when every output check passed. run.py builds
// this binary and supplies the paths.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "support/json.hpp"

namespace {

using namespace perfbench;
namespace json = slc::support::json;

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The `list` metrics ("end_to_end" or "per_layer") of the spec file, in
/// its order; empty when the file or the list is unreadable.
std::vector<MetricSpec> read_metric_specs(const std::string& path,
                                          const char* list) {
  std::vector<MetricSpec> specs;
  std::optional<json::Value> doc = read_json(path);
  const json::Value* metrics = doc ? doc->find(list) : nullptr;
  if (metrics == nullptr) return specs;
  for (const json::Value& m : metrics->items()) {
    const json::Value* name = m.find("name");
    const json::Value* unit = m.find("unit");
    if (name != nullptr && unit != nullptr)
      specs.push_back({name->as_string(), unit->as_string()});
  }
  return specs;
}

/// Keeps every core the run may use busy for a moment first, so set-up
/// is not timed while the CPUs are still leaving an idle state.
void warm_up() {
  std::vector<std::jthread> spinners;
  for (int t = 0; t < load_width(); ++t)
    spinners.emplace_back([] {
      Clock::time_point start = Clock::now();
      volatile std::uint64_t h = 0;
      while (seconds_since(start) < 0.3)
        for (int i = 0; i < 10000; ++i) h = h * 6364136223846793005ULL + 1;
    });
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp-dir DIR --bin-dir DIR --golden FILE "
               "--spec FILE [--trace-out FILE]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--tmp-dir") {
      args.tmp_dir = value;
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--golden") {
      args.golden = value;
    } else if (flag == "--spec") {
      args.spec = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.tmp_dir.empty() &&
         !args.bin_dir.empty() && !args.golden.empty() && !args.spec.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const std::vector<MetricSpec> specs =
      read_metric_specs(args.spec, args.trace ? "per_layer" : "end_to_end");
  if (specs.empty()) {
    std::cerr << "perfbench: no metrics in " << args.spec << "\n";
    return 2;
  }

  Result result;
  warm_up();
  if (args.workload == "gen_o3_cold") {
    run_gen_o3_cold(args, result);
  } else if (args.workload == "gen_8backends") {
    run_gen_8backends(args, result);
  } else if (args.workload == "gen_child_modes") {
    run_gen_child_modes(args, result);
  } else if (args.workload == "slcd_mixed") {
    run_slcd_mixed(args, result);
  } else {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (result.attempted == 0) result.fail("no rows or requests were attempted");
  if (!args.trace) result.metrics["peak_rss_mb"] = peak_rss_mb();

  if (!args.trace)
    for (const MetricSpec& m : specs)
      if (!(result.metrics[m.name] > 0))
        result.fail("end-to-end metric " + m.name + " is not > 0");

  for (const std::string& line : result.notes) std::cout << line << "\n";
  json::Value metrics = json::Value::object();
  for (const MetricSpec& m : specs) {
    // A layer the workload bypasses reports 0 (workloads.json lists which).
    double value = result.metrics[m.name];
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), value,
                m.unit.c_str());
    json::Value entry = json::Value::object();
    entry.set("value", json::Value::number(value));
    entry.set("unit", json::Value::string(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  std::printf("fail_ratio = %.6g (%llu of %llu)\n",
              double(result.failed) / double(std::max<std::uint64_t>(
                                          result.attempted, 1)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  json::Value out = json::Value::object();
  out.set("correct", json::Value::boolean(result.correct));
  out.set("attempted", json::Value::number(result.attempted));
  out.set("failed", json::Value::number(result.failed));
  out.set("metrics", std::move(metrics));
  std::cout << out.dump() << std::endl;
  return result.correct ? 0 : 1;
}
