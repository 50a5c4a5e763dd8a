// Checkpoint container + kill-resume semantics (docs/FORMATS.md
// "Checkpoint format", docs/ARCHITECTURE.md "Preemption & recovery").
//
// Two halves: the container itself (CRC vectors, byte round-trips,
// corruption/truncation rejection, atomic rotation with .prev fallback)
// and in-process resume equivalence for every solver -- a run stopped at
// iteration k and resumed from its checkpoint must reproduce the
// uninterrupted run's matching, objective, and history bit-identically.
// The out-of-process SIGKILL version of the same claim lives in
// tools/check_recovery.sh.
#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "matching/verify.hpp"
#include "netalign/belief_prop.hpp"
#include "netalign/isorank.hpp"
#include "netalign/klau_mr.hpp"
#include "netalign/solver_ckpt.hpp"
#include "netalign/synthetic.hpp"

namespace netalign {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void remove_generations(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  std::remove((path + ".tmp").c_str());
}

// --- CRC32 -----------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value: crc32("123456789") == 0xCBF43926.
  const char digits[] = "123456789";
  EXPECT_EQ(io::crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(io::crc32(nullptr, 0), 0u);
  const char a[] = "a";
  EXPECT_EQ(io::crc32(a, 1), 0xE8B7BE43u);
}

TEST(Crc32, SeedChainsIncrementally) {
  const char data[] = "123456789";
  const std::uint32_t whole = io::crc32(data, 9);
  const std::uint32_t part = io::crc32(data, 4);
  EXPECT_EQ(io::crc32(data + 4, 5, part), whole);
}

// --- ByteWriter / ByteReader ----------------------------------------------

TEST(ByteCodec, ScalarAndVectorRoundTrip) {
  io::ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(0.1);  // not exactly representable: the round-trip must be bitwise
  w.str("hello");
  w.pod_vector(std::vector<double>{1.5, -2.25, 3.0});
  w.pod_vector(std::vector<std::int32_t>{});

  io::ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.pod_vector<double>(), (std::vector<double>{1.5, -2.25, 3.0}));
  EXPECT_TRUE(r.pod_vector<std::int32_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodec, ReadPastEndThrows) {
  io::ByteWriter w;
  w.u32(7);
  io::ByteReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW(r.u8(), std::runtime_error);
}

TEST(ByteCodec, HostileVectorCountThrows) {
  // A length prefix far beyond the bytes present must throw, not allocate
  // (and must not wrap when multiplied by sizeof(T)).
  io::ByteWriter w;
  w.u64(~0ull / 2);
  io::ByteReader r(w.bytes());
  EXPECT_THROW(r.pod_vector<double>(), std::runtime_error);
}

// --- Checkpoint container --------------------------------------------------

io::Checkpoint sample_checkpoint() {
  io::Checkpoint c;
  c.solver = "bp";
  io::ByteWriter state;
  state.pod_vector(std::vector<double>{1.0, 2.5, -3.125});
  c.add("state").payload = state.take();
  io::ByteWriter progress;
  progress.i32(17);
  c.add("progress").payload = progress.take();
  return c;
}

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  const io::Checkpoint c = sample_checkpoint();
  const auto bytes = io::serialize_checkpoint(c);
  const io::Checkpoint back = io::deserialize_checkpoint(bytes);
  EXPECT_EQ(back.solver, "bp");
  ASSERT_EQ(back.sections.size(), 2u);
  EXPECT_EQ(back.sections[0].name, "state");
  EXPECT_EQ(back.sections[0].payload, c.sections[0].payload);
  io::ByteReader r(back.section("progress").payload);
  EXPECT_EQ(r.i32(), 17);
  EXPECT_EQ(back.find("nope"), nullptr);
  EXPECT_THROW((void)back.section("nope"), std::runtime_error);
}

TEST(Checkpoint, RejectsBadMagic) {
  auto bytes = io::serialize_checkpoint(sample_checkpoint());
  bytes[0] ^= 0xFF;
  try {
    (void)io::deserialize_checkpoint(bytes);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsHeaderCorruption) {
  auto bytes = io::serialize_checkpoint(sample_checkpoint());
  // Flip a bit inside the solver-name region of the header.
  bytes[13] ^= 0x01;
  EXPECT_THROW((void)io::deserialize_checkpoint(bytes), std::runtime_error);
}

TEST(Checkpoint, RejectsSectionCorruption) {
  auto bytes = io::serialize_checkpoint(sample_checkpoint());
  // Flip the very last payload byte: only a section CRC can catch it.
  bytes[bytes.size() - 1] ^= 0x80;
  try {
    (void)io::deserialize_checkpoint(bytes);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsTruncation) {
  const auto bytes = io::serialize_checkpoint(sample_checkpoint());
  for (const std::size_t keep : {0u, 4u, 12u}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + keep);
    EXPECT_THROW((void)io::deserialize_checkpoint(cut), std::runtime_error);
  }
  const std::vector<std::uint8_t> almost(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW((void)io::deserialize_checkpoint(almost), std::runtime_error);
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  auto bytes = io::serialize_checkpoint(sample_checkpoint());
  bytes.push_back(0);
  EXPECT_THROW((void)io::deserialize_checkpoint(bytes), std::runtime_error);
}

TEST(Checkpoint, FileRoundTripAndRotation) {
  const std::string path = tmp_path("rotation.ckpt");
  remove_generations(path);

  io::Checkpoint gen1 = sample_checkpoint();
  io::write_checkpoint_file(path, gen1);
  io::Checkpoint gen2 = sample_checkpoint();
  io::ByteWriter w;
  w.i32(99);
  gen2.add("extra").payload = w.take();
  io::write_checkpoint_file(path, gen2);

  // Newest generation at path, previous generation at .prev.
  EXPECT_EQ(io::read_checkpoint_file(path).sections.size(), 3u);
  EXPECT_EQ(io::read_checkpoint_file(path + ".prev").sections.size(), 2u);

  bool used_previous = true;
  const auto got = io::read_checkpoint_with_fallback(path, &used_previous);
  EXPECT_FALSE(used_previous);
  EXPECT_EQ(got.sections.size(), 3u);
  remove_generations(path);
}

TEST(Checkpoint, FallbackToPreviousGeneration) {
  const std::string path = tmp_path("fallback.ckpt");
  remove_generations(path);
  io::write_checkpoint_file(path, sample_checkpoint());
  io::write_checkpoint_file(path, sample_checkpoint());

  // Corrupt the newest generation in place (simulates a torn write that
  // somehow survived the atomic rename, e.g. media corruption).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x7f');
  }
  bool used_previous = false;
  const auto got = io::read_checkpoint_with_fallback(path, &used_previous);
  EXPECT_TRUE(used_previous);
  EXPECT_EQ(got.solver, "bp");
  remove_generations(path);
}

TEST(Checkpoint, BothGenerationsUnusableThrows) {
  const std::string path = tmp_path("nogen.ckpt");
  remove_generations(path);
  try {
    (void)io::read_checkpoint_with_fallback(path);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("both generations"),
              std::string::npos)
        << e.what();
  }
}

// --- Budget edges ----------------------------------------------------------

TEST(SolveBudget, ValidatesSettings) {
  SolveBudget bad;
  bad.deadline_seconds = -1.0;
  EXPECT_THROW(bad.validate("test"), std::invalid_argument);
  SolveBudget orphan;
  orphan.checkpoint_every = 5;  // no checkpoint_path
  EXPECT_THROW(orphan.validate("test"), std::invalid_argument);
  SolveBudget ok;
  ok.checkpoint_every = 5;
  ok.checkpoint_path = "x.ckpt";
  ok.deadline_seconds = 1.0;
  EXPECT_NO_THROW(ok.validate("test"));
}

// --- Solver resume equivalence ---------------------------------------------

SyntheticInstance small_instance(std::uint64_t seed) {
  PowerLawInstanceOptions opt;
  opt.n = 48;
  opt.seed = seed;
  opt.expected_degree = 3.0;
  return make_power_law_instance(opt);
}

/// Bitwise result comparison: the resumed run must be indistinguishable
/// from the uninterrupted one.
void expect_identical(const AlignResult& a, const AlignResult& b) {
  EXPECT_EQ(a.matching.mate_a, b.matching.mate_a);
  EXPECT_EQ(a.matching.mate_b, b.matching.mate_b);
  EXPECT_EQ(a.value.objective, b.value.objective);
  EXPECT_EQ(a.value.weight, b.value.weight);
  EXPECT_EQ(a.value.overlap, b.value.overlap);
  EXPECT_EQ(a.best_iteration, b.best_iteration);
  EXPECT_EQ(a.objective_history, b.objective_history);
  EXPECT_EQ(a.upper_history, b.upper_history);
}

TEST(ResumeEquivalence, BeliefProp) {
  const auto inst = small_instance(11);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("bp.ckpt");
  remove_generations(path);

  BeliefPropOptions full;
  full.max_iterations = 12;
  full.batch_size = 3;  // exercise the rounding-batch flush at snapshot
  const auto uninterrupted = belief_prop_align(inst.problem, S, full);

  BeliefPropOptions part = full;
  part.max_iterations = 5;
  part.budget.checkpoint_path = path;
  part.budget.checkpoint_every = 1;
  (void)belief_prop_align(inst.problem, S, part);

  BeliefPropOptions rest = full;
  rest.budget.resume_path = path;
  const auto resumed = belief_prop_align(inst.problem, S, rest);
  EXPECT_EQ(resumed.resumed_from, 5);
  EXPECT_EQ(resumed.iterations_completed, 12);
  expect_identical(uninterrupted, resumed);
  remove_generations(path);
}

TEST(ResumeEquivalence, KlauMr) {
  const auto inst = small_instance(12);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("mr.ckpt");
  remove_generations(path);

  KlauMrOptions full;
  full.max_iterations = 10;
  const auto uninterrupted = klau_mr_align(inst.problem, S, full);

  KlauMrOptions part = full;
  part.max_iterations = 4;
  part.budget.checkpoint_path = path;
  part.budget.checkpoint_every = 2;
  (void)klau_mr_align(inst.problem, S, part);

  KlauMrOptions rest = full;
  rest.budget.resume_path = path;
  const auto resumed = klau_mr_align(inst.problem, S, rest);
  EXPECT_EQ(resumed.resumed_from, 4);
  expect_identical(uninterrupted, resumed);
  EXPECT_EQ(uninterrupted.best_upper_bound, resumed.best_upper_bound);
  remove_generations(path);
}

TEST(ResumeEquivalence, IsoRank) {
  const auto inst = small_instance(13);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("isorank.ckpt");
  remove_generations(path);

  IsoRankOptions full;
  full.max_iterations = 20;
  full.tolerance = 0.0;  // fixed iteration count on both sides
  const auto uninterrupted = isorank_align(inst.problem, S, full);

  IsoRankOptions part = full;
  part.max_iterations = 7;
  part.budget.checkpoint_path = path;
  part.budget.checkpoint_every = 1;
  (void)isorank_align(inst.problem, S, part);

  IsoRankOptions rest = full;
  rest.budget.resume_path = path;
  const auto resumed = isorank_align(inst.problem, S, rest);
  EXPECT_EQ(resumed.resumed_from, 7);
  expect_identical(uninterrupted, resumed);
  remove_generations(path);
}

TEST(ResumeEquivalence, IsoRankConvergedCheckpointGoesStraightToRounding) {
  // A checkpoint written at convergence must not sweep again on resume:
  // the history and matching equal the uninterrupted run's, whether the
  // checkpoint stores the final residual or predates that and only its
  // recorded history carries it.
  const auto inst = small_instance(13);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("isorank_converged.ckpt");

  for (const bool history : {true, false}) {
    SCOPED_TRACE(history ? "with history" : "without history");
    remove_generations(path);
    IsoRankOptions full;
    full.max_iterations = 200;
    full.record_history = history;
    const auto uninterrupted = isorank_align(inst.problem, S, full);
    ASSERT_LT(uninterrupted.iterations_completed, full.max_iterations);

    IsoRankOptions part = full;
    part.budget.checkpoint_path = path;
    part.budget.checkpoint_every = 1;
    (void)isorank_align(inst.problem, S, part);  // ends in a converged ckpt

    IsoRankOptions rest = full;
    rest.budget.resume_path = path;
    const auto resumed = isorank_align(inst.problem, S, rest);
    EXPECT_EQ(resumed.resumed_from, uninterrupted.iterations_completed);
    EXPECT_EQ(resumed.iterations_completed,
              uninterrupted.iterations_completed);
    expect_identical(uninterrupted, resumed);
  }

  // The older layout: isorank.state holds the iterate alone, and the
  // history (recorded by default) says the run had converged.
  remove_generations(path);
  IsoRankOptions full;
  full.max_iterations = 200;
  const auto uninterrupted = isorank_align(inst.problem, S, full);
  IsoRankOptions part = full;
  part.budget.checkpoint_path = path;
  part.budget.checkpoint_every = 1;
  (void)isorank_align(inst.problem, S, part);
  io::Checkpoint c = io::read_checkpoint_file(path);
  for (io::CheckpointSection& section : c.sections) {
    if (section.name != "isorank.state") continue;
    io::ByteReader r(section.payload);
    io::ByteWriter w;
    w.pod_vector(r.pod_vector<weight_t>());
    section.payload = w.take();
  }
  io::write_checkpoint_file(path, c);
  IsoRankOptions rest = full;
  rest.budget.resume_path = path;
  const auto resumed = isorank_align(inst.problem, S, rest);
  EXPECT_EQ(resumed.iterations_completed, uninterrupted.iterations_completed);
  expect_identical(uninterrupted, resumed);
  remove_generations(path);
}

TEST(ResumeEquivalence, RepeatedResumesStillMatch) {
  // Resume, run two more iterations, checkpoint again, resume again: the
  // chain of three processes must equal one uninterrupted run.
  const auto inst = small_instance(16);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("chain.ckpt");
  remove_generations(path);

  KlauMrOptions full;
  full.max_iterations = 9;
  const auto uninterrupted = klau_mr_align(inst.problem, S, full);

  KlauMrOptions stage = full;
  stage.max_iterations = 3;
  stage.budget.checkpoint_path = path;
  stage.budget.checkpoint_every = 1;
  (void)klau_mr_align(inst.problem, S, stage);
  stage.max_iterations = 6;
  stage.budget.resume_path = path;
  (void)klau_mr_align(inst.problem, S, stage);
  stage.max_iterations = 9;
  const auto resumed = klau_mr_align(inst.problem, S, stage);
  EXPECT_EQ(resumed.resumed_from, 6);
  expect_identical(uninterrupted, resumed);
  remove_generations(path);
}

// --- Budget-stop edges -----------------------------------------------------

TEST(BudgetStop, DeadlineBeforeFirstIteration) {
  const auto inst = small_instance(17);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("deadline.ckpt");
  remove_generations(path);

  BeliefPropOptions opt;
  opt.max_iterations = 50;
  opt.budget.deadline_seconds = 1e-9;  // trips before iteration 1
  opt.budget.checkpoint_path = path;
  const auto r = belief_prop_align(inst.problem, S, opt);
  EXPECT_EQ(r.stopped_reason, StopReason::kDeadline);
  EXPECT_EQ(r.iterations_completed, 0);
  // Empty-but-valid matching, and a valid checkpoint of iteration 0.
  EXPECT_TRUE(is_valid_matching(inst.problem.L, r.matching));
  EXPECT_EQ(r.matching.cardinality, 0);
  const auto c = io::read_checkpoint_file(path);
  EXPECT_EQ(c.solver, "bp");
  remove_generations(path);
}

TEST(BudgetStop, ResumeFromIterationZeroMatchesFreshRun) {
  const auto inst = small_instance(18);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("zero.ckpt");
  remove_generations(path);

  KlauMrOptions fresh;
  fresh.max_iterations = 6;
  const auto direct = klau_mr_align(inst.problem, S, fresh);

  KlauMrOptions stopped = fresh;
  stopped.budget.deadline_seconds = 1e-9;
  stopped.budget.checkpoint_path = path;
  const auto r0 = klau_mr_align(inst.problem, S, stopped);
  EXPECT_EQ(r0.stopped_reason, StopReason::kDeadline);
  EXPECT_EQ(r0.iterations_completed, 0);

  KlauMrOptions resumed = fresh;
  resumed.budget.resume_path = path;
  const auto r = klau_mr_align(inst.problem, S, resumed);
  EXPECT_EQ(r.resumed_from, 0);
  expect_identical(direct, r);
  remove_generations(path);
}

TEST(BudgetStop, ResumePastMaxIterationsCompletesWithRestoredBest) {
  // max_iterations already reached by the checkpoint: zero loop
  // iterations run, and the result is finalized purely from the restored
  // tracker (the SolveBudget max_iterations==0 edge in satellite terms --
  // the solvers themselves reject max_iterations < 1 up front).
  const auto inst = small_instance(19);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("past.ckpt");
  remove_generations(path);

  KlauMrOptions opt;
  opt.max_iterations = 5;
  opt.budget.checkpoint_path = path;
  opt.budget.checkpoint_every = 1;
  const auto first = klau_mr_align(inst.problem, S, opt);

  KlauMrOptions again = opt;
  again.budget.resume_path = path;
  const auto r = klau_mr_align(inst.problem, S, again);
  EXPECT_EQ(r.stopped_reason, StopReason::kCompleted);
  EXPECT_EQ(r.resumed_from, 5);
  EXPECT_EQ(r.iterations_completed, 5);
  expect_identical(first, r);
  remove_generations(path);
}

TEST(BudgetStop, StopLatchReturnsBestSoFar) {
  const auto inst = small_instance(20);
  const auto S = SquaresMatrix::build(inst.problem);
  std::atomic<bool> latch{true};  // already tripped, like a SIGTERM at t=0
  BeliefPropOptions opt;
  opt.max_iterations = 50;
  opt.budget.stop_flag = &latch;
  const auto r = belief_prop_align(inst.problem, S, opt);
  EXPECT_EQ(r.stopped_reason, StopReason::kSignal);
  EXPECT_EQ(r.iterations_completed, 0);
  EXPECT_TRUE(is_valid_matching(inst.problem.L, r.matching));
}

TEST(BudgetStop, MetaMismatchIsRejected) {
  const auto inst = small_instance(21);
  const auto other = small_instance(22);
  const auto S = SquaresMatrix::build(inst.problem);
  const auto So = SquaresMatrix::build(other.problem);
  const std::string path = tmp_path("meta.ckpt");
  remove_generations(path);

  KlauMrOptions opt;
  opt.max_iterations = 3;
  opt.budget.checkpoint_path = path;
  opt.budget.checkpoint_every = 1;
  (void)klau_mr_align(inst.problem, S, opt);

  // Wrong solver entirely.
  BeliefPropOptions bp;
  bp.max_iterations = 3;
  bp.budget.resume_path = path;
  EXPECT_THROW((void)belief_prop_align(inst.problem, S, bp),
               std::runtime_error);
  // Right solver, different problem.
  KlauMrOptions wrong;
  wrong.max_iterations = 3;
  wrong.budget.resume_path = path;
  EXPECT_THROW((void)klau_mr_align(other.problem, So, wrong),
               std::runtime_error);
  remove_generations(path);
}

TEST(BudgetStop, MetaKeepsTheZeroRankFieldOfEarlierVersions) {
  // The meta layout predates the removal of the simulated distributed
  // solvers: solver tag, |E_L|, nnz(S), then an i32 rank count that the
  // shared-memory solvers always wrote as 0. Keeping that field (and
  // requiring 0) lets checkpoints from earlier versions resume unchanged.
  auto legacy_meta = [](std::int32_t ranks) {
    io::ByteWriter w;
    w.str("mr");
    w.i64(40);
    w.i64(17);
    w.i32(ranks);
    return w.take();
  };
  io::Checkpoint c;
  ckpt::write_meta(c, "mr", 40, 17);
  EXPECT_EQ(c.section(ckpt::kMetaSection).payload, legacy_meta(0));
  EXPECT_NO_THROW(ckpt::check_meta(c, "mr", 40, 17, "test"));

  io::Checkpoint ranked;
  ranked.add(ckpt::kMetaSection).payload = legacy_meta(3);
  EXPECT_THROW(ckpt::check_meta(ranked, "mr", 40, 17, "test"),
               std::runtime_error);
}

TEST(BudgetStop, DeadlineRunKeepsPartialHistory) {
  // A mid-run deadline keeps everything computed so far: history length
  // equals iterations_completed and the checkpoint stores that iteration.
  const auto inst = small_instance(24);
  const auto S = SquaresMatrix::build(inst.problem);
  const std::string path = tmp_path("midrun.ckpt");
  remove_generations(path);

  KlauMrOptions part;
  part.max_iterations = 7;
  part.budget.checkpoint_path = path;
  part.budget.checkpoint_every = 1;
  KlauMrOptions probe = part;
  probe.max_iterations = 3;
  const auto r = klau_mr_align(inst.problem, S, probe);
  EXPECT_EQ(r.stopped_reason, StopReason::kCompleted);
  EXPECT_EQ(static_cast<int>(r.objective_history.size()),
            r.iterations_completed);
  remove_generations(path);
}

}  // namespace
}  // namespace netalign
