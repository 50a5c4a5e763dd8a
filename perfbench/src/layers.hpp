// Calls into the library's layers that several workloads share: the solve
// a workload runs, the per-step accounting of its StepTimers, standalone
// matching-layer calls, and the comparisons the output checks use.
#pragma once

#include <map>
#include <string>

#include "harness.hpp"
#include "netalign/problem.hpp"
#include "netalign/result.hpp"
#include "netalign/squares_view.hpp"
#include "obs/counters.hpp"

namespace perfbench {

/// Solver parameters of one alignment (the `netalign align` flags).
struct SolveSpec {
  std::string solver;   ///< "bp" | "mr"
  std::string matcher;  ///< matcher_from_string name
  int iters = 20;
  int batch = 1;
};

/// Read solver/matcher/iters/batch from a workloads.json object.
SolveSpec parse_solve_spec(const netalign::obs::JsonValue& cfg);

netalign::AlignResult solve(const SolveSpec& spec,
                            const netalign::NetAlignProblem& p,
                            const netalign::SquaresView& S,
                            netalign::obs::Counters* counters);

/// A loaded problem and its squares; heap-held by callers so the squares
/// never see the problem move.
struct Loaded {
  netalign::NetAlignProblem p;
  netalign::SquaresBackend sq;
};

/// Per-step times of many solves, reported as per-solve means: detailed
/// `<solver>.<step>` names plus the solver-neutral `solve.*` groups.
class StepAccumulator {
 public:
  void add(const std::string& solver, const netalign::AlignResult& r,
           double solve_wall);
  void report(Report& report, const std::string& suffix) const;

 private:
  struct PerSolver {
    netalign::StepTimers timers;
    double wall = 0.0;
  };
  std::map<std::string, PerSolver> by_solver_;
  int solves_ = 0;
};

/// Standalone matcher / rounding / objective calls on a problem's L and w.
/// The exact matcher is left out: on L's raw weights it takes seconds at
/// the wiki size; its cost inside a solve is `solve.final_exact_round_s`.
void report_matching_layer(Report& report, const Loaded& in, int threads);

bool same_matching(const netalign::BipartiteMatching& x,
                   const netalign::BipartiteMatching& y);
/// The counters on which x and y disagree ("name x!=y, ..."); empty when
/// they are identical.
std::string counter_diff(const netalign::obs::Counters& x,
                         const netalign::obs::Counters& y);
/// Report every counter of `c`, divided by `per` (the number of solves
/// it summed over, for per-solve means).
void report_counters(Report& report, const netalign::obs::Counters& c,
                     double per = 1.0);

/// "[[a,b],...]" of a matching: the `pairs` form of the daemon's result.
std::string pairs_json(const netalign::BipartiteMatching& m);

}  // namespace perfbench
