#include "replay.hpp"

#include <cstdio>
#include <memory>

#include "exact/certificate.hpp"
#include "exact/encoding.hpp"
#include "exact/solver.hpp"
#include "frontend/parser.hpp"
#include "machine/lower.hpp"
#include "native/oracle.hpp"
#include "sim/executor.hpp"
#include "slms/slms.hpp"
#include "verify/verify.hpp"

namespace perfbench {

using slc::DiagnosticEngine;
using slc::driver::ComparisonRow;
namespace ast = slc::ast;
namespace machine = slc::machine;
namespace slms = slc::slms;

int Tracer::begin(const char* name, std::uint32_t row, int parent) {
  std::int64_t now = ns_since(origin_);
  spans_.push_back({name, now, now, std::int32_t(parent), row});
  return int(spans_.size() - 1);
}

std::map<std::string, std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) covered[std::size_t(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        spans_[i].end_ns - spans_[i].start_ns - covered[i];
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"row\":%u,"
                 "\"span\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, double(s.start_ns) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3, s.row, i, s.parent);
  }
  std::fputs("]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

namespace {

/// Closes its span when the call it wraps returns.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint32_t row, int parent)
      : tracer_(tracer), id_(tracer.begin(name, row, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

struct Variant {
  slms::SlmsReport report;
  machine::MirProgram mir;
};

struct Built {
  bool base_ok = false;
  machine::MirProgram base_mir;
  std::vector<Variant> variants;
};

machine::MirProgram lower(const ast::Program& program, bool& ok,
                          ReplayCounts& counts) {
  DiagnosticEngine diags;
  machine::MirProgram mir = machine::lower(program, diags);
  ok = !diags.has_errors();
  ++counts.lower_calls;
  counts.mir_insts += mir.static_inst_count();
  return mir;
}

/// The exact step of the transform entry: solve the first applied
/// loop, then check both certificates and re-verify the witness.
void solve_exact(const std::vector<slms::SlmsApplication>& apps,
                 const slc::driver::CompareOptions& o, ReplayCounts& counts) {
  for (const slms::SlmsApplication& app : apps) {
    if (!app.applied()) continue;
    const slms::LoopPlacement& pl = *app.placement;
    slms::ResourceModel model;
    if (o.exact_resources)
      model = slc::exact::derive_resources(pl, /*mem_units=*/1,
                                           /*issue_width=*/2);
    slc::exact::Instance inst =
        slc::exact::from_placement(pl, std::move(model));
    slc::exact::ExactOptions eopts;
    eopts.budget_ms = o.exact_budget_ms;
    eopts.max_steps = o.exact_max_steps;
    slc::exact::ExactResult res = slc::exact::solve(inst, eopts);
    ++counts.exact_calls;
    counts.exact_steps += std::uint64_t(res.stats.steps);
    if (res.status == slc::exact::ExactStatus::Optimal) {
      std::string why;
      bool certs = slc::exact::check_schedule(inst, res.schedule, &why);
      if (certs && res.lower_proof.has_value())
        certs = slc::exact::check_infeasibility(inst, *res.lower_proof, &why);
      DiagnosticEngine vdiags;
      if (certs)
        (void)slc::verify::verify_schedule(pl, res.ii, res.schedule.sigma,
                                           vdiags);
    }
    break;
  }
}

Built build(const slc::kernels::Kernel& kernel,
            const slc::driver::CompareOptions& o, Tracer& tracer,
            std::uint32_t row, int root, ReplayCounts& counts) {
  Built out;
  DiagnosticEngine diags;
  ast::Program original;
  {
    Scope span(tracer, "frontend.parse", row, root);
    original = slc::frontend::parse_program(kernel.source, diags);
    ++counts.parse_calls;
  }
  if (diags.has_errors()) return out;
  {
    Scope span(tracer, "machine.lower", row, root);
    out.base_mir = lower(original, out.base_ok, counts);
  }
  if (!out.base_ok) return out;

  std::vector<slms::SlmsOptions> variants{o.slms};
  if (o.best_of_mve && o.slms.renaming == slms::RenamingChoice::Mve) {
    slms::SlmsOptions other = o.slms;
    other.eager_mve = !o.slms.eager_mve;
    variants.push_back(other);
  }
  for (const slms::SlmsOptions& variant : variants) {
    ast::Program transformed = original.clone();
    std::vector<slms::SlmsApplication> apps;
    std::vector<slms::SlmsReport> reports;
    {
      Scope span(tracer, "slms.apply", row, root);
      reports = slms::apply_slms(transformed, variant, &apps);
      ++counts.slms_calls;
    }
    for (const slms::SlmsReport& r : reports) {
      ++counts.loops_attempted;
      counts.loops_applied += r.applied ? 1 : 0;
    }
    if (reports.empty()) continue;
    bool legal = false;
    {
      Scope span(tracer, "verify.transformed", row, root);
      DiagnosticEngine vdiags;
      slc::verify::VerifyOptions vopts;
      vopts.check_bounds = false;
      legal = slc::verify::verify_transformed(transformed, apps, vdiags, vopts);
      ++counts.verify_calls;
    }
    if (!legal) {
      ++counts.verify_rejects;
      continue;
    }
    if (o.verify_oracle && reports.front().applied) {
      slc::interp::EquivalenceResult eq;
      {
        Scope span(tracer, "interp.oracle", row, root);
        slc::interp::InterpOptions iopts;
        if (o.max_interp_steps > 0) iopts.max_steps = o.max_interp_steps;
        eq = slc::native::oracle_check_equivalence(
                 original, transformed, o.sim_seed, iopts,
                 slc::native::OracleMode::Interp)
                 .eq;
        ++counts.oracle_calls;
      }
      if (eq.status ==
          slc::interp::EquivalenceResult::Status::OriginalFailed) {
        out.base_ok = false;
        return out;
      }
      if (!eq.ok()) {
        ++counts.oracle_mismatches;
        continue;
      }
    }
    Variant v;
    bool lowered = false;
    {
      Scope span(tracer, "machine.lower", row, root);
      v.mir = lower(transformed, lowered, counts);
    }
    if (!lowered) continue;
    if (o.exact) {
      Scope span(tracer, "exact.solve", row, root);
      solve_exact(apps, o, counts);
    }
    v.report = reports.front();
    out.variants.push_back(std::move(v));
    if (!reports.front().applied) break;
  }
  return out;
}

/// One backend's simulations of a built kernel; returns the row's
/// (cycles_base, cycles_slms, report II) the way compare_kernel picks
/// them: the fastest variant, or the base run when none simulated.
struct Simulated {
  bool ok = false;
  std::uint64_t cycles_base = 0;
  std::uint64_t cycles_slms = 0;
  int ii = 0;
};

Simulated simulate(const Built& built, const slc::driver::Backend& backend,
                   const slc::driver::CompareOptions& o,
                   const std::string& label, Tracer& tracer,
                   std::uint32_t row, int root, ReplayCounts& counts) {
  slc::sim::SimOptions sopts;
  sopts.preset = backend.preset;
  sopts.ms_algorithm = backend.ms_algorithm;
  sopts.seed = o.sim_seed;
  sopts.fault_label = label;
  auto run = [&](const machine::MirProgram& mir) {
    Scope span(tracer, "sim.simulate", row, root);
    slc::sim::SimResult r = slc::sim::simulate(mir, backend.model, sopts);
    ++counts.sim_calls;
    counts.sim_instructions += r.instructions;
    return r;
  };
  Simulated out;
  slc::sim::SimResult base = run(built.base_mir);
  if (!base.ok) return out;
  out.ok = true;
  out.cycles_base = base.cycles;
  out.cycles_slms = base.cycles;
  bool have_best = false;
  for (const Variant& v : built.variants) {
    slc::sim::SimResult r = run(v.mir);
    if (!r.ok) continue;
    if (!have_best || r.cycles < out.cycles_slms) {
      have_best = true;
      out.cycles_slms = r.cycles;
      out.ii = v.report.ii;
    }
  }
  return out;
}

}  // namespace

ReplayCounts replay_rows(
    const std::vector<slc::kernels::Kernel>& kernels,
    const std::vector<slc::driver::Backend>& backends,
    const slc::driver::CompareOptions& options,
    const std::vector<std::vector<ComparisonRow>>& expected, Tracer& tracer,
    Result& result) {
  ReplayCounts counts;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    std::uint32_t row = std::uint32_t(k);
    Scope root_span(tracer, "row", row, -1);
    int root = int(tracer.spans().size() - 1);
    Built built = build(kernels[k], options, tracer, row, root, counts);
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const ComparisonRow& want = expected[b][k];
      Simulated got;
      if (built.base_ok)
        got = simulate(built, backends[b], options, kernels[k].name, tracer,
                       row, root, counts);
      bool same = got.ok == want.ok &&
                  (!got.ok || (got.cycles_base == want.cycles_base &&
                               got.cycles_slms == want.cycles_slms &&
                               got.ii == want.report.ii));
      if (!same)
        result.fail("replay drift on " + kernels[k].name + " / " +
                    backends[b].label + ": cycles " +
                    std::to_string(got.cycles_base) + "->" +
                    std::to_string(got.cycles_slms) + " II " +
                    std::to_string(got.ii) + ", compare_kernel says " +
                    std::to_string(want.cycles_base) + "->" +
                    std::to_string(want.cycles_slms) + " II " +
                    std::to_string(want.report.ii));
    }
  }
  return counts;
}

}  // namespace perfbench
