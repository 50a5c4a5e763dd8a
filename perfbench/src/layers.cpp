#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "matching/verify.hpp"
#include "netalign/belief_prop.hpp"
#include "netalign/klau_mr.hpp"
#include "netalign/objective.hpp"
#include "netalign/rounding.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

template <typename Fn>
double median_time(int reps, Fn&& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    netalign::WallTimer t;
    fn();
    s.add(t.seconds());
  }
  return s.median();
}

}  // namespace

SolveSpec parse_solve_spec(const netalign::obs::JsonValue& cfg) {
  SolveSpec s;
  s.solver = cfg_str(cfg, "solver");
  s.matcher = cfg_str(cfg, "matcher");
  s.iters = static_cast<int>(cfg_num(cfg, "iters"));
  s.batch = static_cast<int>(cfg_num(cfg, "batch"));
  if (s.solver != "bp" && s.solver != "mr") {
    throw std::runtime_error("unknown solver " + s.solver);
  }
  return s;
}

netalign::AlignResult solve(const SolveSpec& spec,
                            const netalign::NetAlignProblem& p,
                            const netalign::SquaresView& S,
                            netalign::obs::Counters* counters) {
  const auto matcher = netalign::matcher_from_string(spec.matcher);
  if (spec.solver == "bp") {
    netalign::BeliefPropOptions opt;
    opt.max_iterations = spec.iters;
    opt.batch_size = spec.batch;
    opt.matcher = matcher;
    opt.counters = counters;
    return netalign::belief_prop_align(p, S, opt);
  }
  netalign::KlauMrOptions opt;
  opt.max_iterations = spec.iters;
  opt.matcher = matcher;
  opt.counters = counters;
  return netalign::klau_mr_align(p, S, opt);
}

void StepAccumulator::add(const std::string& solver,
                          const netalign::AlignResult& r, double solve_wall) {
  auto& s = by_solver_[solver];
  s.timers.merge(r.timers);
  s.wall += solve_wall;
  ++solves_;
}

void StepAccumulator::report(Report& report, const std::string& suffix) const {
  const double n = solves_ > 0 ? solves_ : 1;
  double kernels = 0, matching = 0, final_round = 0, unattributed = 0;
  for (const auto& [solver, s] : by_solver_) {
    for (const auto& step : s.timers.names()) {
      const double t = s.timers.total(step) / n;
      report.set(solver + "." + step + suffix + "_s", t, "s");
      if (step == "matching" || step == "match") {
        matching += t;
      } else if (step == "final_exact_round") {
        final_round += t;
      } else {
        kernels += t;
      }
    }
    const double un = (s.wall - s.timers.grand_total()) / n;
    report.set(solver + ".unattributed" + suffix + "_s", un, "s");
    unattributed += un;
  }
  report.set("solve.kernels" + suffix + "_s", kernels, "s");
  report.set("solve.matching" + suffix + "_s", matching, "s");
  report.set("solve.final_exact_round" + suffix + "_s", final_round, "s");
  report.set("solve.unattributed" + suffix + "_s", unattributed, "s");
}

void report_matching_layer(Report& report, const Loaded& in, int threads) {
  netalign::ThreadCountGuard guard(threads);
  const auto& p = in.p;
  const auto S = in.sq.view();
  const auto w = p.L.weights();
  using netalign::MatcherKind;
  netalign::BipartiteMatching ld, suitor;
  report.set("matching.ld_call_s", median_time(3, [&] {
               ld = netalign::run_matcher(p.L, w, MatcherKind::kLocallyDominant);
             }),
             "s");
  report.set("matching.suitor_call_s", median_time(3, [&] {
               suitor = netalign::run_matcher(p.L, w, MatcherKind::kSuitor);
             }),
             "s");
  report.set("rounding.round_heuristic_s", median_time(3, [&] {
               netalign::round_heuristic(p, S, w, MatcherKind::kLocallyDominant);
             }),
             "s");
  report.set("objective.evaluate_s", median_time(3, [&] {
               netalign::evaluate_objective(p, S, ld);
             }),
             "s");
  report.info("matching.suitor_equals_ld",
              same_matching(ld, suitor) ? "true" : "false");
}

bool same_matching(const netalign::BipartiteMatching& x,
                   const netalign::BipartiteMatching& y) {
  return x.mate_a == y.mate_a && x.mate_b == y.mate_b;
}

std::string counter_diff(const netalign::obs::Counters& x,
                         const netalign::obs::Counters& y) {
  std::string diff;
  auto names = x.names();
  for (const auto& n : y.names()) {
    if (std::find(names.begin(), names.end(), n) == names.end()) {
      names.push_back(n);
    }
  }
  for (const auto& n : names) {
    if (x.total(n) == y.total(n)) continue;
    if (!diff.empty()) diff += ", ";
    diff += n + " " + std::to_string(x.total(n)) + "!=" +
            std::to_string(y.total(n));
  }
  return diff;
}

void report_counters(Report& report, const netalign::obs::Counters& c,
                     double per) {
  for (const auto& name : c.names()) {
    report.set(name, static_cast<double>(c.total(name)) / per, "count");
  }
}

std::string pairs_json(const netalign::BipartiteMatching& m) {
  std::string s = "[";
  bool first = true;
  for (std::size_t a = 0; a < m.mate_a.size(); ++a) {
    if (m.mate_a[a] == netalign::kInvalidVid) continue;
    if (!first) s += ',';
    first = false;
    s += '[' + std::to_string(a) + ',' + std::to_string(m.mate_a[a]) + ']';
  }
  return s + ']';
}

}  // namespace perfbench
