#include "netalign/solver_ckpt.hpp"

#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace netalign::ckpt {

void write_meta(io::Checkpoint& c, const std::string& solver, eid_t m,
                eid_t nnz) {
  io::ByteWriter w;
  w.str(solver);
  w.i64(m);
  w.i64(nnz);
  w.i32(0);
  c.add(kMetaSection).payload = w.take();
}

void check_meta(const io::Checkpoint& c, const std::string& solver, eid_t m,
                eid_t nnz, const char* where) {
  io::ByteReader r(c.section(kMetaSection).payload);
  const std::string got_solver = r.str();
  const eid_t got_m = r.i64();
  const eid_t got_nnz = r.i64();
  const int got_ranks = r.i32();
  auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(where) +
                             ": checkpoint does not match this run (" + what +
                             ")");
  };
  if (got_solver != solver) {
    fail("solver '" + got_solver + "' != '" + solver + "'");
  }
  if (got_m != m || got_nnz != nnz) fail("problem shape differs");
  if (got_ranks != 0) fail("rank count " + std::to_string(got_ranks));
}

void write_progress(io::Checkpoint& c, int iter,
                    const BestSolutionTracker& tracker,
                    const AlignResult& result) {
  io::ByteWriter w;
  w.i32(iter);
  tracker.save(w);
  w.pod_vector(result.objective_history);
  w.pod_vector(result.upper_history);
  c.add(kProgressSection).payload = w.take();
}

int read_progress(const io::Checkpoint& c, BestSolutionTracker& tracker,
                  AlignResult& result) {
  io::ByteReader r(c.section(kProgressSection).payload);
  const int iter = r.i32();
  tracker.load(r);
  result.objective_history = r.pod_vector<weight_t>();
  result.upper_history = r.pod_vector<weight_t>();
  return iter;
}

void commit_checkpoint(const io::Checkpoint& c, const std::string& path,
                       int iter, obs::TraceWriter* trace,
                       obs::Counters* counters) {
  const std::vector<std::uint8_t> bytes = io::serialize_checkpoint(c);
  io::write_checkpoint_bytes(path, bytes);
  if (trace != nullptr) {
    trace->event("checkpoint",
                 {{"iter", iter},
                  {"path", path},
                  {"bytes", static_cast<std::int64_t>(bytes.size())}});
  }
  if (counters != nullptr) {
    counters->add("ckpt.writes");
    counters->add("ckpt.bytes", static_cast<std::int64_t>(bytes.size()));
  }
}

ResumeState load_for_resume(const std::string& path,
                            const std::string& solver, eid_t m, eid_t nnz,
                            const char* where, BestSolutionTracker& tracker,
                            AlignResult& result, obs::TraceWriter* trace,
                            obs::Counters* counters) {
  bool used_previous = false;
  ResumeState rs;
  rs.checkpoint = io::read_checkpoint_with_fallback(path, &used_previous);
  check_meta(rs.checkpoint, solver, m, nnz, where);
  rs.iter = read_progress(rs.checkpoint, tracker, result);
  if (trace != nullptr) {
    trace->event("resume", {{"path", path},
                            {"iter", rs.iter},
                            {"fallback", used_previous}});
  }
  if (counters != nullptr) {
    counters->add("ckpt.restores");
    if (used_previous) counters->add("ckpt.fallbacks");
  }
  return rs;
}

}  // namespace netalign::ckpt
