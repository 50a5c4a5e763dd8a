// Write-ahead journal and crash-recovery tests (docs/SERVER.md
// "Durability & recovery", record schema in docs/FORMATS.md).
//
// Three layers:
//   - replay_journal_file / JobJournal round trips: every record kind,
//     idempotent re-application, eviction, version refusal, compaction
//     equivalence.
//   - the torn-write sweep: a journal truncated at *every byte offset*
//     of its final record must replay without crashing and apply that
//     record atomically -- fully or not at all -- mirroring the
//     checkpoint corruption sweep in test_checkpoint.cpp.
//   - JobManager restarts over the same work dir: terminal results stay
//     queryable (bit-identical pairs), queued jobs are re-enqueued and
//     run, lost problem spills degrade to a failed job instead of a
//     crash, orphaned work-dir files are swept, and request_id dedupe
//     survives the restart.
//
// The SIGKILL path itself (a daemon killed mid-load, restarted, and
// checked for zero lost jobs and checkpoint-resumed byte-identical
// matchings) lives in tools/check_durability.sh, which drives the real
// binaries; these tests keep the mechanism attributable per-module.
#include "server/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/problem_io.hpp"
#include "netalign/synthetic.hpp"
#include "server/cache.hpp"
#include "server/jobs.hpp"

namespace netalign::server {
namespace {

namespace fs = std::filesystem;

/// Per-process scratch path (ctest runs cases as concurrent processes).
std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "jn" + std::to_string(::getpid()) + "_" +
         name;
}

std::string problem_text(vid_t n = 60, std::uint64_t seed = 7) {
  PowerLawInstanceOptions opt;
  opt.n = n;
  opt.expected_degree = 4.0;
  opt.seed = seed;
  std::ostringstream out;
  write_problem(out, make_power_law_instance(opt).problem);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

JournalJob sample_job(std::int64_t id, const std::string& tenant = "default") {
  JournalJob j;
  j.id = id;
  j.tenant = tenant;
  j.key = "0123456789abcdef";
  j.problem_file = "job-" + std::to_string(id) + ".nap";
  j.spec.solver = "bp";
  j.spec.iters = 3;
  j.spec.tenant = tenant;
  return j;
}

JournalResult done_result() {
  JournalResult r;
  r.state = "done";
  r.has_result = true;
  r.stopped_reason = "completed";
  r.objective = 12.5;
  r.weight = 4.0;
  r.overlap = 8.5;
  r.cardinality = 2;
  r.best_iteration = 1;
  r.iterations_completed = 3;
  r.total_seconds = 0.01;
  r.problem_name = "tiny";
  r.num_a = 4;
  r.num_b = 4;
  r.pairs = {{0, 1}, {2, 3}};
  return r;
}

// --- record round trips ------------------------------------------------------

TEST(JournalReplayTest, MissingFileReplaysEmpty) {
  const auto r = replay_journal_file(tmp_path("absent.jsonl"));
  EXPECT_TRUE(r.jobs.empty());
  EXPECT_EQ(r.next_id, 1);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_FALSE(r.malformed);
}

TEST(JournalReplayTest, FullLifecycleRoundTrips) {
  const std::string path = tmp_path("roundtrip.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, /*fsync_all=*/false);
    j.submit(sample_job(1, "team-a"));
    j.start(1, "feedfeedfeedfeed", "job-1.nap");
    j.terminal(1, done_result());
    EXPECT_EQ(j.appends_total(), 4);  // header + submit + start + terminal
    EXPECT_GE(j.fsyncs_total(), 1);   // terminal records always fsync
  }
  const auto r = replay_journal_file(path);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_FALSE(r.malformed);
  EXPECT_EQ(r.ignored_events, 0);
  EXPECT_EQ(r.next_id, 2);
  ASSERT_EQ(r.jobs.size(), 1u);
  const JournalJob& job = r.jobs[0];
  EXPECT_EQ(job.id, 1);
  EXPECT_EQ(job.tenant, "team-a");
  EXPECT_TRUE(job.started);
  EXPECT_EQ(job.key, "feedfeedfeedfeed");  // start finalizes the key
  EXPECT_EQ(job.problem_file, "job-1.nap");
  ASSERT_TRUE(job.terminal);
  EXPECT_EQ(job.result.state, "done");
  EXPECT_TRUE(job.result.has_result);
  EXPECT_EQ(job.result.stopped_reason, "completed");
  EXPECT_DOUBLE_EQ(job.result.objective, 12.5);
  EXPECT_EQ(job.result.cardinality, 2);
  ASSERT_EQ(job.result.pairs.size(), 2u);
  EXPECT_EQ(job.result.pairs[0], (std::pair<std::int64_t, std::int64_t>{0, 1}));
  EXPECT_EQ(job.result.pairs[1], (std::pair<std::int64_t, std::int64_t>{2, 3}));
}

TEST(JournalReplayTest, ReappliedRecordsAreIgnoredNotDoubleApplied) {
  const std::string path = tmp_path("reapply.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    j.submit(sample_job(1));
    j.submit(sample_job(1));  // duplicate submit (compaction race shape)
    j.terminal(1, done_result());
    JournalResult second = done_result();
    second.state = "failed";
    j.terminal(1, second);  // late terminal: first one wins
    j.start(1, "x", "y");   // start after terminal: ignored
  }
  const auto r = replay_journal_file(path);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.ignored_events, 3);
  EXPECT_EQ(r.jobs[0].result.state, "done");
  EXPECT_FALSE(r.jobs[0].started);
}

TEST(JournalReplayTest, EvictedJobsStayDead) {
  const std::string path = tmp_path("evict.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    j.submit(sample_job(1));
    j.submit(sample_job(2));
    j.terminal(1, done_result());
    j.evict(1);
    // A stale record for the evicted id must not resurrect it.
    j.terminal(1, done_result());
  }
  const auto r = replay_journal_file(path);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_EQ(r.jobs[0].id, 2);
  EXPECT_EQ(r.ignored_events, 1);
  // Ids are never reused even when the highest id was evicted earlier.
  EXPECT_EQ(r.next_id, 3);
}

TEST(JournalReplayTest, NewerVersionIsRefusedLoudly) {
  const std::string path = tmp_path("future.jsonl");
  std::ofstream(path, std::ios::trunc)
      << R"({"event":"journal","version":99,"proto":1,"next_id":7})" << "\n";
  try {
    const auto r = replay_journal_file(path);
    FAIL() << "a newer journal version must be refused, not misread (got "
           << r.jobs.size() << " jobs)";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos);
  }
}

TEST(JournalReplayTest, HeaderNextIdIsAFloorNotAnOverride) {
  const std::string path = tmp_path("nextid.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    j.compact({}, /*next_id=*/41);  // header now carries 41
    j.submit(sample_job(50));
  }
  EXPECT_EQ(replay_journal_file(path).next_id, 51);
  {
    JobJournal j(path, false);
    j.compact({}, /*next_id=*/80);
  }
  EXPECT_EQ(replay_journal_file(path).next_id, 80);
}

TEST(JournalReplayTest, MalformedMidStreamKeepsTheCleanPrefix) {
  const std::string path = tmp_path("midstream.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    j.submit(sample_job(1));
  }
  std::ofstream(path, std::ios::app)
      << "{\"event\": <smashed by bitrot>\n"
      << R"({"event":"submit","job":2,"tenant":"default"})" << "\n";
  const auto r = replay_journal_file(path);
  EXPECT_TRUE(r.malformed);
  ASSERT_EQ(r.jobs.size(), 1u);  // job 2 is after the damage: not applied
  EXPECT_EQ(r.jobs[0].id, 1);
}

TEST(JournalReplayTest, UnknownEventTypesAreForwardCompatible) {
  const std::string path = tmp_path("unknown.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    j.submit(sample_job(1));
  }
  std::ofstream(path, std::ios::app)
      << R"({"event":"rebalance","job":1,"shard":3})" << "\n";
  const auto r = replay_journal_file(path);
  EXPECT_FALSE(r.malformed);
  ASSERT_EQ(r.jobs.size(), 1u);
}

TEST(JournalCompactTest, CompactionPreservesReplayedState) {
  const std::string path = tmp_path("compact.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    for (int i = 1; i <= 5; ++i) j.submit(sample_job(i));
    j.start(2, "aaaaaaaaaaaaaaaa", "job-2.nap");
    j.terminal(3, done_result());
    j.terminal(4, done_result());
    j.evict(4);
    EXPECT_EQ(j.appends_since_compact(), 10);  // header + 9 records
    const auto before = replay_journal_file(path);
    j.compact(before.jobs, before.next_id);
    EXPECT_EQ(j.appends_since_compact(), 0);
    EXPECT_EQ(j.compactions_total(), 1);
    // Appends keep landing in the new file through the swapped fd.
    j.submit(sample_job(6));
  }
  const auto after = replay_journal_file(path);
  EXPECT_EQ(after.next_id, 7);
  EXPECT_EQ(after.ignored_events, 0);  // compaction left no dead history
  ASSERT_EQ(after.jobs.size(), 5u);    // 1,2,3,5 survived + 6 appended
  EXPECT_EQ(after.jobs[0].id, 1);
  EXPECT_TRUE(after.jobs[1].started);
  EXPECT_EQ(after.jobs[1].start_seq, 0);
  EXPECT_TRUE(after.jobs[2].terminal);
  EXPECT_EQ(after.jobs[3].id, 5);
  EXPECT_EQ(after.jobs[4].id, 6);
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // renamed, not left behind
}

// --- the torn-write sweep ----------------------------------------------------

TEST(JournalTornWriteTest, TruncationAtEveryByteOfTheFinalRecordIsAtomic) {
  const std::string path = tmp_path("torn_src.jsonl");
  std::remove(path.c_str());
  {
    JobJournal j(path, false);
    j.submit(sample_job(1));
    j.start(1, "feedfeedfeedfeed", "job-1.nap");
    j.terminal(1, done_result());
  }
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  ASSERT_EQ(bytes.back(), '\n');
  // Offset where the final (terminal) record begins.
  const std::size_t last =
      bytes.rfind('\n', bytes.size() - 2) + 1;
  ASSERT_GT(last, 0u);
  const std::string torn = tmp_path("torn_cut.jsonl");
  for (std::size_t cut = last; cut <= bytes.size(); ++cut) {
    std::ofstream(torn, std::ios::trunc | std::ios::binary)
        << bytes.substr(0, cut) << std::flush;
    JournalReplay r;
    ASSERT_NO_THROW(r = replay_journal_file(torn)) << "cut at " << cut;
    ASSERT_EQ(r.jobs.size(), 1u) << "cut at " << cut;
    EXPECT_FALSE(r.malformed) << "cut at " << cut;
    if (cut == bytes.size()) {
      // The whole record survived: applied exactly once.
      EXPECT_TRUE(r.jobs[0].terminal);
      EXPECT_FALSE(r.torn_tail);
      EXPECT_EQ(r.jobs[0].result.pairs.size(), 2u);
    } else {
      // Any shorter prefix: the terminal record is dropped whole -- the
      // job replays as started-but-unfinished, never as a half-applied
      // result.
      EXPECT_FALSE(r.jobs[0].terminal) << "cut at " << cut;
      EXPECT_TRUE(r.jobs[0].started) << "cut at " << cut;
      if (cut > last) {
        EXPECT_TRUE(r.torn_tail) << "cut at " << cut;
      }
    }
  }
  std::remove(torn.c_str());
}

// --- JobManager restarts over one work dir -----------------------------------

JobManagerOptions recovery_options(const std::string& dir) {
  JobManagerOptions opt;
  opt.workers = 1;
  opt.queue_cap = 16;
  opt.work_dir = dir;
  opt.checkpoint_every = 2;
  return opt;
}

JobManager::JobResult wait_terminal(JobManager& jobs, std::int64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const auto r = jobs.result(id);
    if (!r.has_value()) {
      ADD_FAILURE() << "job " << id << " vanished";
      return {};
    }
    if (r->state != JobState::kQueued && r->state != JobState::kRunning) {
      return *r;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "job " << id << " did not finish in time";
      return *r;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

SubmitParams bp_job(const std::string& text, std::int64_t iters) {
  SubmitParams spec;
  spec.problem_text = text;
  spec.solver = "bp";
  spec.iters = iters;
  return spec;
}

TEST(RecoveryTest, TerminalResultsSurviveARestartBitIdentically) {
  const std::string dir = tmp_path("rec_terminal");
  fs::remove_all(dir);
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager::JobResult before;
  std::int64_t id = -1;
  {
    JobManager jobs(recovery_options(dir), cache, &counters);
    const auto out = jobs.submit(bp_job(problem_text(), 10));
    ASSERT_TRUE(out.accepted) << out.message;
    id = out.job;
    before = wait_terminal(jobs, id);
    ASSERT_EQ(before.state, JobState::kDone);
  }
  // "Restart": a fresh manager over the same work dir.
  JobManager jobs(recovery_options(dir), cache, &counters);
  EXPECT_TRUE(jobs.recovery().performed);
  EXPECT_EQ(jobs.recovery().terminal_restored, 1);
  EXPECT_EQ(jobs.recovery().requeued, 0);
  const auto after = jobs.result(id);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->state, JobState::kDone);
  EXPECT_EQ(after->stopped_reason, before.stopped_reason);
  EXPECT_DOUBLE_EQ(after->objective, before.objective);
  EXPECT_EQ(after->iterations_completed, before.iterations_completed);
  EXPECT_EQ(after->pairs, before.pairs);  // the matching itself, verbatim
  // The restarted manager must not reuse the id space.
  const auto fresh = jobs.submit(bp_job(problem_text(), 5));
  ASSERT_TRUE(fresh.accepted);
  EXPECT_GT(fresh.job, id);
}

TEST(RecoveryTest, QueuedJobsAreReenqueuedInOrderAndRun) {
  const std::string dir = tmp_path("rec_requeue");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string text = problem_text();
  // Fabricate a crashed daemon's work dir by hand: journal with two
  // acknowledged-but-unrun submits, plus their problem spills. (An
  // in-process manager cannot SIGKILL itself; its destructor would
  // journal cancellations instead.)
  std::ofstream(dir + "/job-1.nap", std::ios::binary) << text << std::flush;
  std::ofstream(dir + "/job-2.nap", std::ios::binary) << text << std::flush;
  {
    JobJournal j(dir + "/journal.jsonl", false);
    JournalJob one = sample_job(1);
    one.key = content_key(text);
    JournalJob two = sample_job(2);
    two.key = content_key(text);
    j.submit(one);
    j.submit(two);
  }
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(recovery_options(dir), cache, &counters);
  EXPECT_EQ(jobs.recovery().requeued, 2);
  EXPECT_EQ(jobs.recovery().rerun, 0);
  const auto r1 = wait_terminal(jobs, 1);
  const auto r2 = wait_terminal(jobs, 2);
  EXPECT_EQ(r1.state, JobState::kDone);
  EXPECT_EQ(r2.state, JobState::kDone);
  EXPECT_GT(r1.cardinality, 0);
  EXPECT_EQ(r1.pairs, r2.pairs);  // same problem, same deterministic solve
  EXPECT_EQ(counters.total("server.recovery.requeued"), 2);
}

TEST(RecoveryTest, FormerlyRunningJobIsRerunToCompletion) {
  const std::string dir = tmp_path("rec_rerun");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string text = problem_text();
  std::ofstream(dir + "/job-1.nap", std::ios::binary) << text << std::flush;
  {
    JobJournal j(dir + "/journal.jsonl", false);
    JournalJob one = sample_job(1);
    one.key = content_key(text);
    j.submit(one);
    j.start(1, content_key(text), "job-1.nap");
    // No terminal record: the daemon died mid-run.
  }
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(recovery_options(dir), cache, &counters);
  EXPECT_EQ(jobs.recovery().rerun, 1);
  EXPECT_EQ(jobs.recovery().resumed, 0);  // no checkpoint was on disk
  const auto r = wait_terminal(jobs, 1);
  EXPECT_EQ(r.state, JobState::kDone);
  EXPECT_EQ(r.iterations_completed, 3);
}

TEST(RecoveryTest, LostProblemSpillDegradesToAFailedJob) {
  const std::string dir = tmp_path("rec_lost");
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    JobJournal j(dir + "/journal.jsonl", false);
    JournalJob one = sample_job(1);
    one.problem_file.clear();  // the spill write failed before the crash
    j.submit(one);
  }
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(recovery_options(dir), cache, &counters);
  const auto r = jobs.result(1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->state, JobState::kFailed);
  EXPECT_NE(r->error.find("lost"), std::string::npos) << r->error;
}

TEST(RecoveryTest, RetiredSolverInAnOlderJournalFailsOnlyThatJob) {
  // Journals written before the simulated distributed solvers were
  // retired can hold queued `dist-bp` / `dist-mr` submits with a `ranks`
  // field. Replay must not abort: that job fails with an unknown-solver
  // error, its neighbours run, and the daemon keeps accepting work.
  // The retired job is rejected before its problem is read, so it adds
  // nothing to the problem cache (it carries its own problem to tell).
  const std::string dir = tmp_path("rec_retired");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string retired_text = problem_text(60, 8);
  const std::string text = problem_text();
  std::ofstream(dir + "/job-1.nap", std::ios::binary)
      << retired_text << std::flush;
  std::ofstream(dir + "/job-2.nap", std::ios::binary) << text << std::flush;
  {
    // Verbatim records in the older layout (`ranks` after `batch`).
    auto common = [](const std::string& problem) {
      return R"("tenant":"default","key":")" + content_key(problem) +
             R"(","key_provisional":false,"request_id":"",)";
    };
    std::ofstream journal(dir + "/journal.jsonl", std::ios::binary);
    journal << R"({"event":"journal","version":1,"proto":1,"next_id":1})"
            << "\n"
            << R"({"event":"submit","job":1,)" << common(retired_text)
            << R"("solver":"dist-bp","matcher":"approx","iters":3,)"
            << R"("batch":1,"ranks":3,"gamma":0,"deadline_seconds":0,)"
            << R"("tag":"","squares_mode":"","problem_path":"",)"
            << R"("problem_file":"job-1.nap"})" << "\n"
            << R"({"event":"submit","job":2,)" << common(text)
            << R"("solver":"bp","matcher":"approx","iters":3,)"
            << R"("batch":1,"ranks":4,"gamma":0,"deadline_seconds":0,)"
            << R"("tag":"","squares_mode":"","problem_path":"",)"
            << R"("problem_file":"job-2.nap"})" << "\n";
  }
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(recovery_options(dir), cache, &counters);
  EXPECT_EQ(jobs.recovery().requeued, 2);
  const auto retired = wait_terminal(jobs, 1);
  EXPECT_EQ(retired.state, JobState::kFailed);
  EXPECT_NE(retired.error.find("unknown solver 'dist-bp'"), std::string::npos)
      << retired.error;
  EXPECT_EQ(wait_terminal(jobs, 2).state, JobState::kDone);
  const auto fresh = jobs.submit(bp_job(text, 3));
  ASSERT_TRUE(fresh.accepted) << fresh.message;
  EXPECT_EQ(wait_terminal(jobs, fresh.job).state, JobState::kDone);
  // Only job 2's problem was ever loaded (the fresh submit hits it).
  EXPECT_EQ(counters.total("server.cache_miss"), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RecoveryTest, TornFinalRecordIsReportedAndSurvivable) {
  const std::string dir = tmp_path("rec_torn");
  fs::remove_all(dir);
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  std::int64_t id = -1;
  {
    JobManager jobs(recovery_options(dir), cache, &counters);
    const auto out = jobs.submit(bp_job(problem_text(), 5));
    ASSERT_TRUE(out.accepted);
    id = out.job;
    wait_terminal(jobs, id);
  }
  // Tear the tail the way a SIGKILL mid-append would: a new submit
  // record cut partway through, no trailing newline. (A *terminal*
  // record can only be torn while the job's spill still exists -- the
  // unlink happens strictly after the append -- so the torn-terminal
  // case is the chaos harness's to exercise with real kills.)
  const std::string jpath = dir + "/journal.jsonl";
  std::ofstream(jpath, std::ios::app | std::ios::binary)
      << R"({"event":"submit","job":99,"tenant":"def)" << std::flush;
  JobManager jobs(recovery_options(dir), cache, &counters);
  EXPECT_TRUE(jobs.recovery().performed);
  EXPECT_TRUE(jobs.recovery().torn_tail);
  // Exactly the torn record is dropped: the completed job is intact...
  const auto r = jobs.result(id);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->state, JobState::kDone);
  // ...and the half-written job 99 never existed (it was never acked).
  EXPECT_FALSE(jobs.status(99).has_value());
}

TEST(RecoveryTest, OrphanedWorkDirFilesAreSweptUnknownFilesKept) {
  const std::string dir = tmp_path("rec_orphans");
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir + "/job-97.trace.jsonl") << "{}\n";
  std::ofstream(dir + "/job-98.ckpt.tmp") << "half a checkpoint";
  std::ofstream(dir + "/job-99.ckpt") << "checkpoint of an unknown job";
  std::ofstream(dir + "/job-96.nap") << "spill of an unknown job";
  std::ofstream(dir + "/notes.txt") << "operator scratch file";
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(recovery_options(dir), cache, &counters);
  EXPECT_EQ(jobs.recovery().orphans_removed, 4);
  EXPECT_FALSE(fs::exists(dir + "/job-97.trace.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/job-98.ckpt.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/job-99.ckpt"));
  EXPECT_FALSE(fs::exists(dir + "/job-96.nap"));
  // Files the manager did not create are never touched.
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
}

TEST(RecoveryTest, RequestIdDedupeWorksLiveAndAcrossRestart) {
  const std::string dir = tmp_path("rec_dedupe");
  fs::remove_all(dir);
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  std::int64_t original = -1;
  {
    JobManager jobs(recovery_options(dir), cache, &counters);
    SubmitParams spec = bp_job(problem_text(), 5);
    spec.request_id = "retry-abc-1";
    const auto first = jobs.submit(spec);
    ASSERT_TRUE(first.accepted);
    EXPECT_FALSE(first.duplicate);
    original = first.job;
    // A blind retry of the same request must not enqueue a second run.
    const auto again = jobs.submit(spec);
    ASSERT_TRUE(again.accepted);
    EXPECT_TRUE(again.duplicate);
    EXPECT_EQ(again.job, original);
    EXPECT_EQ(counters.total("server.jobs_deduplicated"), 1);
    wait_terminal(jobs, original);
  }
  // The dedupe window survives the restart: the request_id rides the
  // journal's submit record.
  JobManager jobs(recovery_options(dir), cache, &counters);
  SubmitParams spec = bp_job(problem_text(), 5);
  spec.request_id = "retry-abc-1";
  const auto replayed = jobs.submit(spec);
  ASSERT_TRUE(replayed.accepted);
  EXPECT_TRUE(replayed.duplicate);
  EXPECT_EQ(replayed.job, original);
}

TEST(RecoveryTest, RequestIdDedupeIsScopedPerTenant) {
  const std::string dir = tmp_path("rec_dedupe_tenant");
  fs::remove_all(dir);
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(recovery_options(dir), cache, &counters);
  SubmitParams a = bp_job(problem_text(), 5);
  a.tenant = "team-a";
  a.request_id = "token-1";
  const auto first = jobs.submit(a);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.duplicate);
  // The same token from another tenant is a fresh job -- never answered
  // with team-a's job id and content key.
  SubmitParams b = bp_job(problem_text(50, 5), 5);
  b.tenant = "team-b";
  b.request_id = "token-1";
  const auto other = jobs.submit(b);
  ASSERT_TRUE(other.accepted);
  EXPECT_FALSE(other.duplicate);
  EXPECT_NE(other.job, first.job);
  EXPECT_NE(other.key, first.key);
  // A genuine retry within the tenant still dedupes.
  const auto retry = jobs.submit(a);
  ASSERT_TRUE(retry.accepted);
  EXPECT_TRUE(retry.duplicate);
  EXPECT_EQ(retry.job, first.job);
  wait_terminal(jobs, first.job);
  wait_terminal(jobs, other.job);
}

TEST(JournalWriteErrorTest, FailedAppendsAreCountedNotFatal) {
  // /dev/full fails every write(2) with ENOSPC: the journal must stay
  // usable (no throw, no partial-record bookkeeping) and report the
  // losses through write_errors_total().
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  JobJournal j("/dev/full", /*fsync_all=*/false);
  EXPECT_EQ(j.appends_total(), 0);  // the header append already failed
  EXPECT_GE(j.write_errors_total(), 1);
  j.submit(sample_job(1));
  j.terminal(1, done_result());
  EXPECT_EQ(j.appends_total(), 0);
  EXPECT_GE(j.write_errors_total(), 3);
}

TEST(RecoveryTest, NewerJournalRefusesToStartTheManager) {
  const std::string dir = tmp_path("rec_future");
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir + "/journal.jsonl")
      << R"({"event":"journal","version":99,"proto":1,"next_id":1})" << "\n";
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  EXPECT_THROW(JobManager(recovery_options(dir), cache, &counters),
               std::runtime_error);
}

TEST(RecoveryTest, NoRecoverDiscardsThePriorJournal) {
  const std::string dir = tmp_path("rec_norecover");
  fs::remove_all(dir);
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  std::int64_t id = -1;
  {
    JobManager jobs(recovery_options(dir), cache, &counters);
    const auto out = jobs.submit(bp_job(problem_text(), 5));
    ASSERT_TRUE(out.accepted);
    id = out.job;
    wait_terminal(jobs, id);
  }
  JobManagerOptions opt = recovery_options(dir);
  opt.recover = false;
  JobManager jobs(opt, cache, &counters);
  EXPECT_FALSE(jobs.recovery().performed);
  EXPECT_FALSE(jobs.result(id).has_value());  // prior state discarded
}

TEST(RecoveryTest, JournalOffMeansVolatileJobsAndNoJournalFile) {
  const std::string dir = tmp_path("rec_off");
  fs::remove_all(dir);
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = recovery_options(dir);
  opt.journal = false;
  JobManager jobs(opt, cache, &counters);
  EXPECT_FALSE(jobs.journal_stats().enabled);
  const auto out = jobs.submit(bp_job(problem_text(), 5));
  ASSERT_TRUE(out.accepted);
  wait_terminal(jobs, out.job);
  EXPECT_FALSE(fs::exists(dir + "/journal.jsonl"));
}

}  // namespace
}  // namespace netalign::server
