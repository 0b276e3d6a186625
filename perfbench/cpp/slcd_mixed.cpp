// slcd_mixed: a closed loop of client connections against a fresh slcd
// on a private socket with a memory-only result cache. Each client sends
// its next request when the previous answer arrives. A request is a
// seeded draw from a pool of generated kernel sources with Zipf
// popularity, so repeats hit the daemon's LRU result cache while the
// tail of the pool keeps missing and spawning `slc` children; a share of
// the requests are in-process `lint`. Every answer must be
// byte-identical across repeats and to the same request executed by an
// in-process service::Service.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "common.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "support/json.hpp"
#include "support/subprocess.hpp"

namespace perfbench {

namespace {

namespace service = slc::service;
namespace socket = slc::service::socket;
using slc::support::subprocess::Child;

// The request mix is assumed, not taken from measured slcd traffic; each
// constant follows from what the workload must exercise. The run prints
// the hit, miss and lint shares it produced.
//
// The pool is four times slcd's default result-cache capacity (1024
// entries), so the cache cannot hold every source and misses keep
// spawning `slc` children for the whole run, not only while it warms.
constexpr std::size_t kPool = 4096;
// Zipf popularity with exponent 1: with the pool above, a clear majority
// of compile requests hit (so req_p50 measures the hit path) while the
// misses still number in the hundreds per second (so miss_p50 and
// req_p99 have samples in every one-second window).
constexpr double kZipfExponent = 1.0;
// Lint is a side method next to compile: one request in ten still gives
// a few hundred lints per second for lint_p50.
constexpr double kLintShare = 0.1;
constexpr std::size_t kGoldenCompile = 8;  // hottest sources in the digest
constexpr std::size_t kGoldenLint = 4;

const std::vector<std::string> kCompileArgs = {"--report", "--measure=gcc-o3"};

/// One client connection to the daemon.
class Connection {
 public:
  explicit Connection(const std::string& path)
      : fd_(socket::connect_unix(path, &error_)), reader_(fd_) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  std::optional<service::Response> call(const service::Request& req) {
    if (!socket::write_all(fd_, service::to_json(req).dump() + "\n"))
      return std::nullopt;
    std::string line;
    if (!reader_.next_line(&line)) return std::nullopt;
    return service::parse_response_line(line);
  }

 private:
  std::string error_;
  int fd_;
  socket::LineReader reader_;
};

service::Request make_request(std::uint64_t id, const std::string& method,
                              std::vector<std::string> args) {
  service::Request req;
  req.id = id;
  req.method = method;
  req.args = std::move(args);
  return req;
}

/// Spawns slcd and waits until it answers a ping.
bool start_daemon(const Args& args, const std::string& socket_path,
                  Child& daemon, std::string* error) {
  Child::SpawnOptions spawn;
  spawn.argv = {args.bin_dir + "/slcd", "--socket=" + socket_path,
                "--workers=" + std::to_string(load_width())};
  spawn.inherit_stderr = false;
  if (!daemon.spawn(spawn, error)) return false;
  Clock::time_point start = Clock::now();
  while (seconds_since(start) < 20) {
    Connection conn(socket_path);
    if (conn.ok()) {
      std::optional<service::Response> r =
          conn.call(make_request(0, "ping", {}));
      if (r && r->out == "pong") return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "slcd did not answer a ping within 20 s";
  return false;
}

/// SIGTERM drains the daemon (in-flight requests finish, children are
/// reaped); a daemon that does not exit in time is killed.
void stop_daemon(Child& daemon) {
  if (!daemon.running()) return;
  ::kill(daemon.pid(), SIGTERM);
  Clock::time_point start = Clock::now();
  int status = 0;
  while (!daemon.try_wait(&status)) {
    if (seconds_since(start) > 20) {
      daemon.kill_group();
      daemon.wait();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Zipf draw over the pool by inverse CDF.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(double(i + 1), kZipfExponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(double u) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(std::size_t(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Answer identity: key = pool index * 2 + (1 for lint).
std::string answer_text(const service::Response& r) {
  return std::to_string(r.exit_code) + '\x1f' + r.out + '\x1f' + r.err;
}

struct ClientLog {
  std::vector<double> all_ms, hit_ms, miss_ms, lint_ms;
  std::vector<double> done_s;  // completion time of all_ms[i] in the run
  std::uint64_t attempted = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t mismatched = 0;
  std::map<std::size_t, std::string> answers;

  void merge(const ClientLog& other) {
    auto append = [](std::vector<double>& to, const std::vector<double>& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(all_ms, other.all_ms);
    append(done_s, other.done_s);
    append(hit_ms, other.hit_ms);
    append(miss_ms, other.miss_ms);
    append(lint_ms, other.lint_ms);
    attempted += other.attempted;
    unanswered += other.unanswered;
    mismatched += other.mismatched;
    for (const auto& [key, text] : other.answers) {
      auto [it, fresh] = answers.emplace(key, text);
      if (!fresh && it->second != text) ++mismatched;
    }
  }
};

void client_loop(const std::string& socket_path,
                 const std::vector<slc::kernels::Kernel>& pool,
                 const Zipf& zipf, std::uint64_t stream,
                 Clock::time_point start, Clock::time_point deadline,
                 ClientLog& log) {
  Connection conn(socket_path);
  if (!conn.ok()) {
    ++log.attempted;
    ++log.unanswered;
    return;
  }
  std::mt19937_64 rng(stream);
  auto uniform = [&] { return double(rng() >> 11) * 0x1.0p-53; };
  std::uint64_t id = 0;
  while (Clock::now() < deadline) {
    bool lint = uniform() < kLintShare;
    std::size_t index = zipf(uniform());
    service::Request req = make_request(
        ++id, lint ? "lint" : "compile", lint ? std::vector<std::string>{}
                                              : kCompileArgs);
    req.source = pool[index].source;
    ++log.attempted;
    Clock::time_point t0 = Clock::now();
    std::optional<service::Response> r = conn.call(req);
    double ms = double(ns_since(t0)) / 1e6;
    if (!r || r->id != id || !r->answered()) {
      ++log.unanswered;
      if (!r) return;  // the connection is gone
      continue;
    }
    log.all_ms.push_back(ms);
    log.done_s.push_back(seconds_since(start));
    (lint ? log.lint_ms : r->cached ? log.hit_ms : log.miss_ms).push_back(ms);
    std::string text = answer_text(*r);
    auto [it, fresh] = log.answers.emplace(index * 2 + (lint ? 1 : 0), text);
    if (!fresh && it->second != text) ++log.mismatched;
  }
}

service::Request pool_request(const std::vector<slc::kernels::Kernel>& pool,
                              std::size_t key) {
  bool lint = key % 2 == 1;
  service::Request req = make_request(
      key + 1, lint ? "lint" : "compile",
      lint ? std::vector<std::string>{} : kCompileArgs);
  req.source = pool[key / 2].source;
  req.no_cache = true;
  return req;
}

}  // namespace

void run_slcd_mixed(const Args& args, Result& result) {
  const int clients = load_width();
  const std::string socket_path = args.tmp_dir + "/slcd.sock";

  // Set-up: the request pool, then a fresh daemon up to its first pong.
  std::vector<double> setups;
  std::vector<slc::kernels::Kernel> pool;
  auto daemon = std::make_unique<Child>();
  for (int i = 0; i < kSetupRepeats; ++i) {
    stop_daemon(*daemon);
    daemon = std::make_unique<Child>();
    Clock::time_point start = Clock::now();
    pool = slc::kernels::generated_suite(kPool, args.seed);
    std::string error;
    if (!start_daemon(args, socket_path, *daemon, &error)) {
      stop_daemon(*daemon);
      result.fail("slcd start: " + error);
      return;
    }
    setups.push_back(seconds_since(start));
  }
  result.metrics["setup_s"] = median(setups);
  Zipf zipf(kPool);

  std::vector<ClientLog> logs(std::size_t(clients), ClientLog{});
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back(client_loop, std::cref(socket_path),
                           std::cref(pool), std::cref(zipf),
                           args.seed * 1000003 + std::uint64_t(c), start,
                           deadline, std::ref(logs[std::size_t(c)]));
  }
  double elapsed = seconds_since(start);

  std::optional<slc::support::json::Value> stats;
  {
    Connection conn(socket_path);
    std::optional<service::Response> r =
        conn.ok() ? conn.call(make_request(1, "stats", {})) : std::nullopt;
    if (r) stats = slc::support::json::parse(r->out);
  }
  stop_daemon(*daemon);
  if (!stats) result.fail("slcd stats unavailable");

  ClientLog all;
  for (const ClientLog& log : logs) all.merge(log);
  result.attempted = all.attempted;
  if (all.unanswered > 0)
    result.fail(std::to_string(all.unanswered) +
                    " request(s) not answered ok/degraded",
                all.unanswered);
  if (all.mismatched > 0)
    result.fail(std::to_string(all.mismatched) +
                    " answer(s) differ between repeats of the same request",
                all.mismatched);

  // Byte identity with the same request executed in-process: the
  // golden keys, then a seeded sample of the other keys seen.
  service::ServiceOptions local_opts;
  local_opts.slc_exe = args.bin_dir + "/slc";
  local_opts.workers = 1;
  service::Service local(local_opts);
  std::vector<std::size_t> keys;
  for (std::size_t i = 0; i < kGoldenCompile; ++i) keys.push_back(i * 2);
  for (std::size_t i = 0; i < kGoldenLint; ++i) keys.push_back(i * 2 + 1);
  std::string golden_text;
  std::mt19937_64 pick(args.seed);
  std::vector<std::size_t> seen;
  for (const auto& [key, text] : all.answers) seen.push_back(key);
  for (int i = 0; i < 24 && !seen.empty(); ++i)
    keys.push_back(seen[pick() % seen.size()]);
  std::size_t checked = 0;
  for (std::size_t n = 0; n < keys.size(); ++n) {
    service::Response r = local.execute(pool_request(pool, keys[n]));
    std::string text = answer_text(r);
    if (n < kGoldenCompile + kGoldenLint) golden_text += text + '\x1e';
    auto it = all.answers.find(keys[n]);
    if (it == all.answers.end()) continue;
    ++checked;
    if (it->second != text)
      result.fail("slcd answer for pool key " + std::to_string(keys[n]) +
                  " differs from the in-process answer");
  }
  local.drain();
  check_golden(args, "slcd_mixed", slc::kernels::source_hash(golden_text),
               result);

  auto stat = [&](const char* name) {
    const slc::support::json::Value* v = stats ? stats->find(name) : nullptr;
    return v == nullptr ? 0.0 : double(v->as_u64());
  };
  std::size_t compiles = all.hit_ms.size() + all.miss_ms.size();
  double hit_ratio =
      double(all.hit_ms.size()) / double(std::max<std::size_t>(compiles, 1));
  auto share = [&](const std::vector<double>& kind) {
    return std::to_string(double(kind.size()) /
                          double(std::max<std::size_t>(all.all_ms.size(), 1)));
  };
  result.note("load: 1 process, " + std::to_string(clients) +
              " client connections (closed loop), slcd with " +
              std::to_string(load_width()) +
              " workers (at most that many concurrent slc children)");
  result.note("slcd_mixed: " + std::to_string(all.all_ms.size()) +
              " answered requests (" + std::to_string(all.hit_ms.size()) +
              " hits, " + std::to_string(all.miss_ms.size()) + " misses, " +
              std::to_string(all.lint_ms.size()) + " lints), " +
              std::to_string(all.answers.size()) + " distinct, " +
              std::to_string(checked) + " checked against in-process");
  result.note("shares of answered requests: hit " + share(all.hit_ms) +
              ", miss " + share(all.miss_ms) + ", lint " + share(all.lint_ms));
  result.note("req_p50_ms = " + std::to_string(quantile(all.all_ms, 0.5)) +
              " ms, req_p99_ms = " +
              std::to_string(quantile(all.all_ms, 0.99)) +
              " ms, req_per_s = " +
              std::to_string(double(all.all_ms.size()) / elapsed) + " 1/s");
  if (!args.trace) {
    // One window per whole second of the run.
    std::size_t seconds = std::max<std::size_t>(std::size_t(elapsed), 1);
    std::vector<std::vector<double>> buckets(seconds);
    for (std::size_t i = 0; i < all.all_ms.size(); ++i)
      buckets[std::min(std::size_t(all.done_s[i]), seconds - 1)].push_back(
          all.all_ms[i]);
    Windows windows;
    for (const std::vector<double>& bucket : buckets)
      if (!bucket.empty()) windows.add(bucket, elapsed / double(seconds));
    windows.report(result);
    return;
  }
  result.metrics["service.hit_p50_ms"] = quantile(all.hit_ms, 0.5);
  result.metrics["service.cache_hit_ratio"] = hit_ratio;
  result.metrics["service.miss_p50_ms"] = quantile(all.miss_ms, 0.5);
  result.metrics["service.child_spawns"] = stat("child_spawns");
  result.metrics["service.lint_p50_ms"] = quantile(all.lint_ms, 0.5);
  result.metrics["service.req_p50_ms"] = quantile(all.all_ms, 0.5);
  result.metrics["service.req_p99_ms"] = quantile(all.all_ms, 0.99);
  result.metrics["service.shed"] = stat("shed");
  result.metrics["service.retries"] = stat("retries");
}

}  // namespace perfbench
