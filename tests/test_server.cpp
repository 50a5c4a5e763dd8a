// Alignment-server protocol and lifecycle tests (docs/SERVER.md).
//
// Four layers, mostly socket-free so failures stay attributable:
// protocol framing (the compatibility rules the header promises: unknown
// fields ignored, unknown methods rejected, wrong types are bad_request),
// the content-addressed LRU cache, the job manager's lifecycle (cancel of
// queued vs running jobs, admission control), and the tail-tolerant JSONL
// reader both progress streaming and trace_summary ride on. A final
// section drives a real Server end to end -- over its AF_UNIX socket and
// over authenticated loopback TCP -- including the request-size cap,
// per-byte frame splits, mid-frame resets, idle reaping, and the
// connection cap.
#include "server/protocol.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "netalign/synthetic.hpp"
#include "io/problem_io.hpp"
#include "obs/json.hpp"
#include "obs/jsonl_tail.hpp"
#include "server/cache.hpp"
#include "server/client.hpp"
#include "server/jobs.hpp"
#include "server/server.hpp"
#include "server/transport.hpp"

namespace netalign::server {
namespace {

/// Per-process scratch path: ctest runs each gtest case as its own
/// process, concurrently, so a bare TempDir() name would make the socket
/// tests bind over each other's daemons and deadlock.
std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "na" + std::to_string(::getpid()) + "_" +
         name;
}

/// Canonical text of a small synthetic instance.
std::string problem_text(vid_t n = 60, std::uint64_t seed = 7) {
  PowerLawInstanceOptions opt;
  opt.n = n;
  opt.expected_degree = 4.0;
  opt.seed = seed;
  std::ostringstream out;
  write_problem(out, make_power_law_instance(opt).problem);
  return out.str();
}

/// Submit request JSON with an inline problem.
std::string submit_line(const std::string& text, std::int64_t iters) {
  std::string line = R"({"method":"submit","problem":)";
  obs::append_json_string(line, text);
  line += R"(,"solver":"bp","iters":)" + std::to_string(iters) + "}";
  return line;
}

Request parse_ok(const std::string& line) {
  Request req;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  EXPECT_TRUE(parse_request(line, req, code, message)) << message;
  return req;
}

ErrorCode parse_fail(const std::string& line) {
  Request req;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  EXPECT_FALSE(parse_request(line, req, code, message));
  EXPECT_FALSE(message.empty());
  return code;
}

// --- protocol framing ------------------------------------------------------

TEST(Protocol, MalformedJsonIsBadRequest) {
  EXPECT_EQ(parse_fail(R"({"method":"ping")"), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail("not json at all"), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"([1, 2, 3])"), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"no_method": 1})"), ErrorCode::kBadRequest);
}

TEST(Protocol, UnknownMethodIsItsOwnError) {
  EXPECT_EQ(parse_fail(R"({"method":"align_all_the_things"})"),
            ErrorCode::kUnknownMethod);
}

TEST(Protocol, UnknownFieldsAreIgnored) {
  // Forward compatibility: a newer client may send fields this server
  // does not know. They must not be errors.
  const Request req = parse_ok(
      R"({"method":"status","job":3,"future_field":{"deep":[1,2]}})");
  EXPECT_EQ(req.method, Method::kStatus);
  EXPECT_EQ(req.job, 3);
  // `ranks` configured the retired simulated distributed solvers; older
  // clients still send it, at any value.
  const Request old_client = parse_ok(
      R"({"method":"submit","problem":"x","solver":"mr","ranks":2000000000})");
  EXPECT_EQ(old_client.submit.solver, "mr");
}

TEST(Protocol, WrongFieldTypeIsBadRequest) {
  EXPECT_EQ(parse_fail(R"({"method":"status","job":"three"})"),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"method":"shutdown","now":1})"),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"method":"progress","job":1,"cursor":1.5})"),
            ErrorCode::kBadRequest);
}

TEST(Protocol, AuthParseRules) {
  const Request req = parse_ok(R"({"method":"auth","token":"s3cret"})");
  EXPECT_EQ(req.method, Method::kAuth);
  EXPECT_EQ(req.auth_token, "s3cret");
  EXPECT_EQ(parse_fail(R"({"method":"auth"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"method":"auth","token":""})"),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"method":"auth","token":17})"),
            ErrorCode::kBadRequest);
  // The constant-time compare walks the whole candidate, so the parser
  // bounds how much work one line can demand.
  std::string oversized = R"({"method":"auth","token":")";
  oversized.append(5000, 'a');
  oversized += "\"}";
  EXPECT_EQ(parse_fail(oversized), ErrorCode::kBadRequest);
}

TEST(Protocol, ErrorTaxonomyIsClosed) {
  // Every emitted code round-trips through the taxonomy check the
  // fuzzer relies on; strings outside it are rejected.
  EXPECT_TRUE(known_error_code("bad_request"));
  EXPECT_TRUE(known_error_code("too_large"));
  EXPECT_TRUE(known_error_code("auth_required"));
  EXPECT_TRUE(known_error_code("auth_failed"));
  EXPECT_FALSE(known_error_code("?"));
  EXPECT_FALSE(known_error_code(""));
  EXPECT_FALSE(known_error_code("AUTH_FAILED"));
}

TEST(Protocol, SubmitNeedsExactlyOneProblemSource) {
  EXPECT_EQ(parse_fail(R"({"method":"submit"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(
                R"({"method":"submit","problem":"x","problem_path":"y"})"),
            ErrorCode::kBadRequest);
}

TEST(Protocol, SubmitValidatesNamesAndRanges) {
  EXPECT_EQ(parse_fail(R"({"method":"submit","problem":"x","solver":"gpt"})"),
            ErrorCode::kBadRequest);
  // The retired simulated distributed solvers are unknown solvers now.
  EXPECT_EQ(
      parse_fail(R"({"method":"submit","problem":"x","solver":"dist-bp"})"),
      ErrorCode::kBadRequest);
  EXPECT_EQ(
      parse_fail(R"({"method":"submit","problem":"x","matcher":"magic"})"),
      ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"method":"submit","problem":"x","iters":-1})"),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(R"({"method":"submit","problem":"x","batch":0})"),
            ErrorCode::kBadRequest);
  // Upper bounds too: iters is the job's DRR scheduling cost and both
  // feed solver `int` options, so absurd values must die here.
  EXPECT_EQ(parse_fail(
                R"({"method":"submit","problem":"x","iters":1000000000001})"),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(
                R"({"method":"submit","problem":"x","batch":2000000000})"),
            ErrorCode::kBadRequest);
  EXPECT_EQ(parse_fail(
                R"({"method":"submit","problem":"x","deadline_seconds":-2})"),
            ErrorCode::kBadRequest);
}

TEST(Protocol, SubmitDefaultsMirrorTheCli) {
  const Request req = parse_ok(R"({"method":"submit","problem":"x"})");
  EXPECT_EQ(req.submit.solver, "bp");
  EXPECT_EQ(req.submit.matcher, "approx");
  EXPECT_EQ(req.submit.batch, 1);
  EXPECT_EQ(req.submit.deadline_seconds, 0.0);
  EXPECT_TRUE(req.submit.tenant.empty());  // resolved to "default" later
}

TEST(Protocol, TenantFieldParsesAndTypeChecks) {
  const Request req = parse_ok(
      R"({"method":"submit","problem":"x","tenant":"team-a"})");
  EXPECT_EQ(req.submit.tenant, "team-a");
  EXPECT_EQ(parse_fail(R"({"method":"submit","problem":"x","tenant":7})"),
            ErrorCode::kBadRequest);
}

TEST(Protocol, NewErrorCodesHaveStableNames) {
  EXPECT_STREQ(to_string(ErrorCode::kQuotaExceeded), "quota_exceeded");
  EXPECT_STREQ(to_string(ErrorCode::kExpired), "expired");
}

TEST(Protocol, IdIsEchoedEvenOnErrors) {
  Request req;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  ASSERT_FALSE(
      parse_request(R"({"method":"nope","id":"req-17"})", req, code, message));
  EXPECT_EQ(req.id_json, R"("req-17")");
  const std::string resp = error_response(req.id_json, code, message);
  obs::JsonValue doc = obs::parse_json(resp);
  ASSERT_NE(doc.find("id"), nullptr);
  EXPECT_EQ(doc.find("id")->as_string(), "req-17");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("code")->as_string(), "unknown_method");
}

TEST(Protocol, ResponseBuilderProducesParseableJson) {
  ResponseBuilder r(true, "42");
  r.field("name", "a \"quoted\" value");
  r.field("count", std::int64_t{7});
  r.field("ratio", 0.5);
  r.field("flag", true);
  r.field("literal", "drain");  // must not decay into the bool overload
  r.raw("list", "[1,2]");
  const obs::JsonValue doc = obs::parse_json(std::move(r).str());
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("id")->as_number(), 42.0);
  EXPECT_EQ(doc.find("name")->as_string(), "a \"quoted\" value");
  EXPECT_EQ(doc.find("count")->as_number(), 7.0);
  EXPECT_EQ(doc.find("flag")->as_bool(), true);
  EXPECT_EQ(doc.find("literal")->as_string(), "drain");
  EXPECT_EQ(doc.find("list")->items().size(), 2u);
}

// --- content-addressed cache -----------------------------------------------

TEST(ProblemCache, KeyIsContentNotName) {
  const std::string a = problem_text(60, 7);
  const std::string b = problem_text(60, 8);
  EXPECT_EQ(content_key(a), content_key(a));
  EXPECT_NE(content_key(a), content_key(b));
  EXPECT_EQ(content_key(a).size(), 16u);
}

TEST(ProblemCache, RepeatSubmissionHits) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  const std::string text = problem_text();
  bool hit = true;
  const auto first = cache.get(content_key(text), text, hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get(content_key(text), text, hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // same built entry, not a rebuild
  EXPECT_EQ(counters.total("server.cache_hit"), 1);
  EXPECT_EQ(counters.total("server.cache_miss"), 1);
  EXPECT_GT(first->squares.nnz, 0);
  EXPECT_FALSE(first->squares.is_implicit());  // default overload: explicit
}

TEST(ProblemCache, ModeIsASecondKeyDimension) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  const std::string text = problem_text();
  const std::string key = content_key(text);
  bool hit = true;
  SquaresBackendOptions implicit_opts;
  implicit_opts.mode = SquaresMode::kImplicit;
  const auto exp = cache.get(key, text, hit);
  EXPECT_FALSE(hit);
  const auto imp = cache.get(key, text, implicit_opts, hit);
  EXPECT_FALSE(hit);  // same bytes, different backend: a distinct entry
  EXPECT_NE(exp.get(), imp.get());
  EXPECT_TRUE(imp->squares.is_implicit());
  EXPECT_EQ(exp->squares.nnz, imp->squares.nnz);
  const auto imp2 = cache.get(key, text, implicit_opts, hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(imp.get(), imp2.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProblemCache, EvictsLeastRecentlyUsed) {
  obs::Counters counters;
  ProblemCache cache(2, &counters);
  const std::string a = problem_text(50, 1);
  const std::string b = problem_text(50, 2);
  const std::string c = problem_text(50, 3);
  bool hit = false;
  cache.get(content_key(a), a, hit);
  cache.get(content_key(b), b, hit);
  cache.get(content_key(a), a, hit);  // touch a; b is now LRU
  EXPECT_TRUE(hit);
  cache.get(content_key(c), c, hit);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counters.total("server.cache_evicted"), 1);
  cache.get(content_key(a), a, hit);
  EXPECT_TRUE(hit);
  cache.get(content_key(b), b, hit);
  EXPECT_FALSE(hit);  // b was the victim
}

TEST(ProblemCache, BuildFailureIsNotCached) {
  obs::Counters counters;
  ProblemCache cache(2, &counters);
  const std::string junk = "NETALIGN-PROBLEM 999\nnot a problem\n";
  bool hit = false;
  EXPECT_THROW(cache.get(content_key(junk), junk, hit), std::exception);
  EXPECT_EQ(cache.size(), 0u);
  // The same key again still *builds* (and fails) instead of replaying a
  // poisoned entry.
  EXPECT_THROW(cache.get(content_key(junk), junk, hit), std::exception);
  EXPECT_FALSE(hit);
}

// --- job lifecycle ---------------------------------------------------------

JobManagerOptions manager_options(int workers, std::size_t queue_cap,
                                  const std::string& dir) {
  JobManagerOptions opt;
  opt.workers = workers;
  opt.queue_cap = queue_cap;
  opt.work_dir = tmp_path(dir);
  // Journaling is on by default, so a re-run in the same process (e.g.
  // --gtest_repeat) would otherwise recover the previous iteration's
  // jobs and skew counts; start every manager from a clean slate.
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  return opt;
}

SubmitParams bp_job(const std::string& text, std::int64_t iters) {
  SubmitParams spec;
  spec.problem_text = text;
  spec.solver = "bp";
  spec.iters = iters;
  return spec;
}

/// Poll until the job leaves queued/running (bounded; test-fails on hang).
JobManager::JobResult wait_terminal(JobManager& jobs, std::int64_t id,
                                    int timeout_seconds = 60) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(timeout_seconds);
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

TEST(JobManager, RunsAJobToDone) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 4, "jm_done"), cache, &counters);
  const auto out = jobs.submit(bp_job(problem_text(), 15));
  ASSERT_TRUE(out.accepted) << out.message;
  const auto result = wait_terminal(jobs, out.job);
  EXPECT_EQ(result.state, JobState::kDone);
  ASSERT_TRUE(result.has_result);
  EXPECT_EQ(result.stopped_reason, "completed");
  EXPECT_EQ(result.iterations_completed, 15);
  EXPECT_GT(result.cardinality, 0);
  EXPECT_EQ(static_cast<std::int64_t>(result.pairs.size()),
            result.cardinality);
  // Progress is the solver's own trace, re-served.
  const auto progress = jobs.progress(out.job, 0);
  ASSERT_TRUE(progress.has_value());
  EXPECT_GT(progress->next_cursor, 0);
  // A cursor past the end yields no events, not an error.
  const auto tail = jobs.progress(out.job, progress->next_cursor + 100);
  EXPECT_TRUE(tail->events.empty());
  const auto status = jobs.status(out.job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_GT(status->rounds, 0);
}

TEST(JobManager, ProgressCursorStreamsEveryEventExactlyOnce) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 4, "jm_stream"), cache, &counters);
  const auto out = jobs.submit(bp_job(problem_text(), 400));
  ASSERT_TRUE(out.accepted) << out.message;
  // Poll with the returned cursor while the solver emits, the way
  // `client progress` does; stop after the first poll that saw the job
  // terminal, which therefore holds everything up to run_end.
  std::vector<std::string> streamed;
  std::int64_t cursor = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const auto p = jobs.progress(out.job, cursor);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->next_cursor,
              cursor + static_cast<std::int64_t>(p->events.size()));
    streamed.insert(streamed.end(), p->events.begin(), p->events.end());
    cursor = p->next_cursor;
    if (p->state != JobState::kQueued && p->state != JobState::kRunning) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(wait_terminal(jobs, out.job).state, JobState::kDone);

  const auto all = jobs.progress(out.job, 0);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(streamed, all->events);  // no gaps, no duplicates
  ASSERT_GE(streamed.size(), 2u);
  EXPECT_EQ(obs::parse_json(streamed.front()).find("event")->as_string(),
            "run_start");
  EXPECT_EQ(obs::parse_json(streamed.back()).find("event")->as_string(),
            "run_end");
  std::int64_t iterations = 0;
  std::int64_t rounds = 0;
  for (const std::string& line : streamed) {
    const std::string kind = obs::parse_json(line).find("event")->as_string();
    iterations += kind == "iteration" ? 1 : 0;
    rounds += kind == "round" ? 1 : 0;
  }
  const auto status = jobs.status(out.job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->iterations, 400);
  EXPECT_EQ(status->iterations, iterations);
  EXPECT_EQ(status->rounds, rounds);
  EXPECT_GT(status->rounds, 0);
}

TEST(JobManager, FailedProblemReportsError) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 4, "jm_fail"), cache, &counters);
  SubmitParams spec = bp_job("this is not a problem file\n", 5);
  const auto out = jobs.submit(spec);
  ASSERT_TRUE(out.accepted);
  const auto result = wait_terminal(jobs, out.job);
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_FALSE(result.has_result);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(counters.total("server.jobs_failed"), 1);
}

TEST(JobManager, UnknownJobIsEmpty) {
  obs::Counters counters;
  ProblemCache cache(2, &counters);
  JobManager jobs(manager_options(1, 2, "jm_unknown"), cache, &counters);
  EXPECT_FALSE(jobs.status(99).has_value());
  EXPECT_FALSE(jobs.result(99).has_value());
  EXPECT_FALSE(jobs.cancel(99).found);
}

TEST(JobManager, CancelQueuedVsRunning) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  // One worker so the second submission is guaranteed to queue behind the
  // first. The running job gets an iteration count it could never finish
  // inside the test budget; cancellation is what ends it.
  JobManager jobs(manager_options(1, 8, "jm_cancel"), cache, &counters);
  const std::string text = problem_text();
  const auto running = jobs.submit(bp_job(text, 50'000'000));
  ASSERT_TRUE(running.accepted);
  // Wait until it actually occupies the worker.
  const auto spin_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (jobs.status(running.job)->state == JobState::kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now(), spin_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto queued = jobs.submit(bp_job(problem_text(60, 9), 10));
  ASSERT_TRUE(queued.accepted);

  // Cancelling a queued job is immediate: it never reaches a worker.
  const auto cancel_queued = jobs.cancel(queued.job);
  ASSERT_TRUE(cancel_queued.found);
  EXPECT_EQ(cancel_queued.state, JobState::kCancelled);
  const auto queued_result = jobs.result(queued.job);
  EXPECT_EQ(queued_result->state, JobState::kCancelled);
  EXPECT_FALSE(queued_result->has_result);

  // Cancelling a running job latches the budget flag; the solver stops at
  // the next iteration boundary with its best-so-far matching.
  const auto cancel_running = jobs.cancel(running.job);
  ASSERT_TRUE(cancel_running.found);
  const auto result = wait_terminal(jobs, running.job);
  EXPECT_EQ(result.state, JobState::kCancelled);
  ASSERT_TRUE(result.has_result);
  EXPECT_EQ(result.stopped_reason, "cancelled");
  EXPECT_LT(result.iterations_completed, 50'000'000);
  EXPECT_EQ(counters.total("server.jobs_cancelled"), 2);
}

/// Poll until the job occupies a worker (bounded; test-fails on hang).
void wait_running(JobManager& jobs, std::int64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const auto st = jobs.status(id);
    ASSERT_TRUE(st.has_value()) << "job " << id << " vanished";
    if (st->state == JobState::kRunning) return;
    ASSERT_EQ(st->state, JobState::kQueued) << "job " << id
                                            << " finished prematurely";
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

SubmitParams tenant_job(const std::string& text, std::int64_t iters,
                        const std::string& tenant) {
  SubmitParams spec = bp_job(text, iters);
  spec.tenant = tenant;
  return spec;
}

TEST(JobManager, AdmissionControlRejectsWhenFull) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 1, "jm_admission"), cache, &counters);
  const auto running = jobs.submit(bp_job(problem_text(), 50'000'000));
  ASSERT_TRUE(running.accepted);
  const auto spin_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (jobs.status(running.job)->state == JobState::kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now(), spin_deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto queued = jobs.submit(bp_job(problem_text(), 10));
  ASSERT_TRUE(queued.accepted);  // fills the queue (cap 1)
  const auto rejected = jobs.submit(bp_job(problem_text(), 10));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.code, ErrorCode::kRejected);
  EXPECT_EQ(counters.total("server.jobs_rejected"), 1);
  // Draining rejects even with queue space.
  jobs.begin_drain();
  const auto drained = jobs.submit(bp_job(problem_text(), 10));
  EXPECT_FALSE(drained.accepted);
  EXPECT_EQ(drained.code, ErrorCode::kShuttingDown);
  jobs.cancel(running.job);
  jobs.cancel(queued.job);
}

// --- fair scheduling, quotas, retention ------------------------------------

TEST(JobManager, DeficitRoundRobinLetsAPoliteTenantThrough) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 16, "jm_drr"), cache, &counters);
  const std::string text = problem_text();
  // Occupy the single worker so everything below queues deterministically.
  const auto blocker = jobs.submit(bp_job(text, 50'000'000));
  ASSERT_TRUE(blocker.accepted);
  wait_running(jobs, blocker.job);
  // An aggressive tenant floods first, with enormous jobs...
  std::vector<std::int64_t> agg;
  for (int i = 0; i < 4; ++i) {
    const auto out = jobs.submit(tenant_job(text, 30'000'000, "aggressive"));
    ASSERT_TRUE(out.accepted) << out.message;
    agg.push_back(out.job);
  }
  // ...then a polite tenant asks for one small job.
  const auto polite =
      jobs.submit(tenant_job(problem_text(60, 9), 10, "polite"));
  ASSERT_TRUE(polite.accepted) << polite.message;

  jobs.cancel(blocker.job);
  const auto polite_result = wait_terminal(jobs, polite.job);
  EXPECT_EQ(polite_result.state, JobState::kDone);
  // FIFO would have run all four 30M-iteration jobs first. DRR charges
  // cost = the iteration budget, so the 10-iteration job's first quantum
  // covers it long before any aggressive job becomes affordable: at the
  // moment the polite job finishes, no aggressive job has.
  bool saw_aggressive = false;
  for (const auto& t : jobs.queue_stats().tenants) {
    if (t.tenant != "aggressive") continue;
    saw_aggressive = true;
    EXPECT_EQ(t.completed, 0);
    EXPECT_EQ(t.queued + t.running, 4);
  }
  EXPECT_TRUE(saw_aggressive);
  for (const auto id : agg) jobs.cancel(id);
  for (const auto id : agg) wait_terminal(jobs, id);
}

TEST(JobManager, TenantQueueQuotaIsIndependentOfOtherTenants) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = manager_options(1, 16, "jm_quota");
  opt.tenant_queue_cap = 2;
  JobManager jobs(opt, cache, &counters);
  const std::string text = problem_text();
  const auto blocker = jobs.submit(bp_job(text, 50'000'000));
  ASSERT_TRUE(blocker.accepted);
  wait_running(jobs, blocker.job);
  ASSERT_TRUE(jobs.submit(tenant_job(text, 10, "a")).accepted);
  ASSERT_TRUE(jobs.submit(tenant_job(text, 10, "a")).accepted);
  const auto over = jobs.submit(tenant_job(text, 10, "a"));
  EXPECT_FALSE(over.accepted);
  EXPECT_EQ(over.code, ErrorCode::kQuotaExceeded);
  EXPECT_EQ(counters.total("server.jobs_quota_exceeded"), 1);
  // One tenant sitting at its quota must not tax anyone else's admission:
  // the server-wide queue (cap 16) still has room.
  EXPECT_TRUE(jobs.submit(tenant_job(text, 10, "b")).accepted);
  jobs.cancel(blocker.job);
  // The destructor's shutdown(true) cancels the rest.
}

TEST(JobManager, TenantRunningCapLeavesWorkersForOthers) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = manager_options(2, 16, "jm_runcap");
  opt.tenant_running_cap = 1;
  JobManager jobs(opt, cache, &counters);
  const std::string text = problem_text();
  const auto a1 = jobs.submit(tenant_job(text, 50'000'000, "a"));
  const auto a2 = jobs.submit(tenant_job(text, 50'000'000, "a"));
  ASSERT_TRUE(a1.accepted);
  ASSERT_TRUE(a2.accepted);
  wait_running(jobs, a1.job);
  const auto b1 = jobs.submit(tenant_job(text, 50'000'000, "b"));
  ASSERT_TRUE(b1.accepted);
  // b reaches the second worker even though a2 queued first: tenant a is
  // at its running cap, so a2 cannot be the one occupying that worker.
  wait_running(jobs, b1.job);
  EXPECT_EQ(jobs.status(a2.job)->state, JobState::kQueued);
  // The cap frees as a1 stops, and only then does a2 run.
  jobs.cancel(a1.job);
  wait_running(jobs, a2.job);
  for (const auto id : {a2.job, b1.job}) jobs.cancel(id);
  for (const auto id : {a1.job, a2.job, b1.job}) wait_terminal(jobs, id);
}

TEST(JobManager, RetentionEvictsOldestTerminalJobsAndWritesNoTraceFiles) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = manager_options(1, 16, "jm_retain");
  opt.retained_cap = 4;
  JobManager jobs(opt, cache, &counters);
  const std::string text = problem_text();
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto out = jobs.submit(bp_job(text, 1));
    ASSERT_TRUE(out.accepted) << out.message;
    ids.push_back(out.job);
    wait_terminal(jobs, out.job);  // serialize: terminal order == id order
  }
  const auto stats = jobs.queue_stats();
  EXPECT_EQ(stats.retained, 4);
  EXPECT_EQ(stats.retained_cap, 4);
  EXPECT_EQ(stats.evicted, 6);
  EXPECT_EQ(counters.total("server.jobs_evicted"), 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(jobs.status(ids[i]).has_value());
    EXPECT_FALSE(jobs.result(ids[i]).has_value());
    EXPECT_FALSE(jobs.cancel(ids[i]).found);
    EXPECT_TRUE(jobs.expired(ids[i]));  // evicted, not never-issued
  }
  for (int i = 6; i < 10; ++i) {
    ASSERT_TRUE(jobs.result(ids[i]).has_value());
    EXPECT_FALSE(jobs.expired(ids[i]));
  }
  EXPECT_FALSE(jobs.expired(0));
  EXPECT_FALSE(jobs.expired(ids.back() + 1));  // never issued
  // Progress lives in memory: no job leaves a trace file in the work dir.
  std::size_t traces = 0;
  for (const auto& entry : std::filesystem::directory_iterator(opt.work_dir)) {
    const std::string name = entry.path().filename().string();
    traces += name.find(".trace.jsonl") != std::string::npos ? 1u : 0u;
  }
  EXPECT_EQ(traces, 0u);
}

TEST(JobManager, RetentionRefreshesRecencyOnAccess) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = manager_options(1, 16, "jm_lru");
  opt.retained_cap = 2;
  JobManager jobs(opt, cache, &counters);
  const std::string text = problem_text();
  const auto j1 = jobs.submit(bp_job(text, 1));
  wait_terminal(jobs, j1.job);
  const auto j2 = jobs.submit(bp_job(text, 1));
  wait_terminal(jobs, j2.job);
  // Reading j1 refreshes its recency: j2 is now the eviction candidate.
  ASSERT_TRUE(jobs.status(j1.job).has_value());
  const auto j3 = jobs.submit(bp_job(text, 1));
  wait_terminal(jobs, j3.job);
  EXPECT_TRUE(jobs.expired(j2.job));
  EXPECT_FALSE(jobs.status(j2.job).has_value());
  EXPECT_TRUE(jobs.status(j1.job).has_value());
  EXPECT_TRUE(jobs.status(j3.job).has_value());
}

TEST(JobManager, ProblemPathIsReadByTheWorkerAndRekeyedFromBytes) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 4, "jm_path"), cache, &counters);
  const std::string text = problem_text();
  const std::string path = tmp_path("jm_path_problem.txt");
  std::ofstream(path, std::ios::trunc) << text << std::flush;
  SubmitParams spec;
  spec.problem_path = path;
  spec.solver = "bp";
  spec.iters = 5;
  const auto out = jobs.submit(spec);
  ASSERT_TRUE(out.accepted) << out.message;
  // At submit time only a provisional path+mtime key exists (the bytes
  // are deliberately unread), and the outcome says so...
  EXPECT_NE(out.key, content_key(text));
  EXPECT_TRUE(out.key_provisional);
  const auto done = wait_terminal(jobs, out.job);
  EXPECT_EQ(done.state, JobState::kDone);
  ASSERT_TRUE(done.has_result);
  // ...and the worker re-keys the job from the bytes it read, so a later
  // inline submission of the same content hits the cache.
  EXPECT_EQ(jobs.status(out.job)->key, content_key(text));
  const auto inline_out = jobs.submit(bp_job(text, 5));
  ASSERT_TRUE(inline_out.accepted);
  EXPECT_FALSE(inline_out.key_provisional);  // inline keys are final
  EXPECT_TRUE(wait_terminal(jobs, inline_out.job).cache_hit);
  // A missing path is still rejected up front.
  SubmitParams missing;
  missing.problem_path = tmp_path("definitely_absent.txt");
  missing.solver = "bp";
  const auto bad = jobs.submit(missing);
  EXPECT_FALSE(bad.accepted);
  EXPECT_EQ(bad.code, ErrorCode::kBadRequest);
  // ...and so is a path that exists but is not a regular file: a
  // writer-less FIFO would park a worker in open() forever, and a
  // directory makes no sense as a problem.
  SubmitParams dir;
  dir.problem_path = ::testing::TempDir();
  dir.solver = "bp";
  const auto not_file = jobs.submit(dir);
  EXPECT_FALSE(not_file.accepted);
  EXPECT_EQ(not_file.code, ErrorCode::kBadRequest);
  EXPECT_NE(not_file.message.find("regular file"), std::string::npos);
}

TEST(JobManager, ProblemPathReplacedByAFifoFailsTheJobNotTheWorker) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 4, "jm_toctou"), cache, &counters);
  const std::string text = problem_text();
  // Park the single worker so the path submit stays queued.
  const auto blocker = jobs.submit(bp_job(text, 50'000'000));
  ASSERT_TRUE(blocker.accepted);
  wait_running(jobs, blocker.job);
  const std::string path = tmp_path("jm_toctou_problem.txt");
  std::ofstream(path, std::ios::trunc) << text << std::flush;
  SubmitParams spec;
  spec.problem_path = path;
  spec.solver = "bp";
  const auto out = jobs.submit(spec);
  ASSERT_TRUE(out.accepted) << out.message;
  // Race the worker deterministically: swap the regular file for a FIFO
  // while the job is still queued. The worker's pre-open re-check must
  // fail the job instead of blocking forever in open().
  ASSERT_EQ(::unlink(path.c_str()), 0);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  jobs.cancel(blocker.job);
  const auto r = wait_terminal(jobs, out.job);
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_NE(r.error.find("regular file"), std::string::npos);
  ::unlink(path.c_str());
}

TEST(JobManager, OversizedProblemPathFailsTheJob) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = manager_options(1, 4, "jm_toolarge");
  opt.max_problem_bytes = 64;  // far below any real problem
  JobManager jobs(opt, cache, &counters);
  const std::string path = tmp_path("jm_toolarge_problem.txt");
  std::ofstream(path, std::ios::trunc) << problem_text() << std::flush;
  SubmitParams spec;
  spec.problem_path = path;
  spec.solver = "bp";
  const auto out = jobs.submit(spec);
  ASSERT_TRUE(out.accepted) << out.message;
  const auto r = wait_terminal(jobs, out.job);
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_NE(r.error.find("exceeds"), std::string::npos);
}

TEST(JobManager, MaxCostJobIsScheduledWithoutALockStall) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 4, "jm_maxcost"), cache, &counters);
  // The largest cost the protocol admits. The quantum-at-a-time DRR loop
  // would have spun ~cost/quantum (10^7) passes under the job lock just
  // to pick this job; the closed-form pick must dispatch it immediately.
  SubmitParams spec = bp_job(problem_text(), 1'000'000'000);
  spec.deadline_seconds = 0.05;  // the budget stops the solve itself
  const auto out = jobs.submit(spec);
  ASSERT_TRUE(out.accepted) << out.message;
  const auto r = wait_terminal(jobs, out.job, /*timeout_seconds=*/30);
  EXPECT_EQ(r.state, JobState::kDone);
  EXPECT_EQ(r.stopped_reason, "deadline");
}

TEST(JobManager, CancelStormReachesQuiescence) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManagerOptions opt = manager_options(2, 32, "jm_storm");
  opt.tenant_queue_cap = 32;
  JobManager jobs(opt, cache, &counters);
  const std::string text = problem_text();
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 24; ++i) {
    // append, not "t" + to_string(...): GCC 12 reports a false -Wrestrict
    // on operator+(const char*, string&&).
    const auto out = jobs.submit(
        tenant_job(text, 3, std::string("t").append(std::to_string(i % 3))));
    ASSERT_TRUE(out.accepted) << out.message;
    ids.push_back(out.job);
  }
  // Two threads race the workers to every job: each cancel either wins
  // (dequeues the job or stops it mid-run) or loses to completion --
  // never hangs, never strands a queue slot or a tenant counter.
  std::thread even([&] {
    for (std::size_t i = 0; i < ids.size(); i += 2) jobs.cancel(ids[i]);
  });
  std::thread odd([&] {
    for (std::size_t i = 1; i < ids.size(); i += 2) jobs.cancel(ids[i]);
  });
  even.join();
  odd.join();
  std::int64_t terminal = 0;
  for (const auto id : ids) {
    const auto r = wait_terminal(jobs, id);
    if (r.state == JobState::kDone) {
      EXPECT_TRUE(r.has_result);
    } else {
      EXPECT_EQ(r.state, JobState::kCancelled);
    }
    ++terminal;
  }
  EXPECT_EQ(terminal, 24);
  const auto stats = jobs.queue_stats();
  EXPECT_EQ(stats.queued, 0);
  EXPECT_EQ(stats.running, 0);
  std::int64_t completed = 0;
  for (const auto& t : stats.tenants) completed += t.completed;
  EXPECT_EQ(completed, 24);
}

TEST(JobManager, DrainShutdownCompletesQueuedJobsButRejectsNew) {
  obs::Counters counters;
  ProblemCache cache(4, &counters);
  JobManager jobs(manager_options(1, 16, "jm_drain"), cache, &counters);
  const std::string text = problem_text();
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto out = jobs.submit(bp_job(text, 5));
    ASSERT_TRUE(out.accepted) << out.message;
    ids.push_back(out.job);
  }
  jobs.begin_drain();
  const auto late = jobs.submit(bp_job(text, 5));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.code, ErrorCode::kShuttingDown);
  jobs.shutdown(false);  // drain: joins only after the queue empties
  EXPECT_TRUE(jobs.idle());
  for (const auto id : ids) {
    const auto r = jobs.result(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->state, JobState::kDone);
    EXPECT_TRUE(r->has_result);
  }
}

// --- tail-tolerant JSONL reader --------------------------------------------

TEST(JsonlTail, OnlyTerminatedLinesSurface) {
  const std::string path = tmp_path("tail_basic.jsonl");
  std::ofstream out(path, std::ios::trunc);
  out << R"({"event":"a"})" << "\n" << R"({"event":)" << std::flush;
  obs::JsonlTailReader reader(path);
  obs::JsonValue doc;
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kEvent);
  EXPECT_EQ(doc.find("event")->as_string(), "a");
  // The second line has no newline yet: held back, not surfaced broken.
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kPending);
  EXPECT_TRUE(reader.has_partial_tail());
  out << R"("b"})" << "\n" << std::flush;
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kEvent);
  EXPECT_EQ(doc.find("event")->as_string(), "b");
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kPending);
  EXPECT_FALSE(reader.has_partial_tail());
}

TEST(JsonlTail, MissingFileIsPendingUntilCreated) {
  const std::string path = tmp_path("tail_late.jsonl");
  std::remove(path.c_str());
  obs::JsonlTailReader reader(path);
  obs::JsonValue doc;
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kPending);
  std::ofstream(path) << R"({"event":"late"})" << "\n" << std::flush;
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kEvent);
  EXPECT_EQ(doc.find("event")->as_string(), "late");
}

TEST(JsonlTail, TerminatedGarbageAtEofIsTruncatedThenMalformed) {
  const std::string path = tmp_path("tail_garbage.jsonl");
  std::ofstream out(path, std::ios::trunc);
  out << R"({"event":"ok"})" << "\n" << R"({"event": <cut)" << "\n"
      << std::flush;
  obs::JsonlTailReader reader(path);
  obs::JsonValue doc;
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kEvent);
  // A terminated-but-unparseable final line could be a crashed writer:
  // retryable, not fatal...
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kTruncatedTail);
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kTruncatedTail);
  // ...until later bytes prove the stream was corrupt mid-flight.
  out << R"({"event":"after"})" << "\n" << std::flush;
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kMalformed);
  EXPECT_EQ(reader.next(doc), obs::JsonlTailReader::Status::kMalformed);
}

// --- the daemon over its socket --------------------------------------------

class ServerSocketTest : public ::testing::Test {
 protected:
  ServerOptions base_options() {
    ServerOptions options;
    options.socket_path = tmp_path("srv.sock");
    options.workers = 1;
    options.queue_cap = 4;
    options.cache_cap = 2;
    // Per-test work dir: with the journal on by default, a shared dir
    // would make later tests in a same-process run recover earlier
    // tests' jobs.
    options.work_dir =
        tmp_path(std::string("srv_jobs_") +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name());
    return options;
  }

  void start(std::size_t max_request_bytes = kDefaultMaxRequestBytes) {
    ServerOptions options = base_options();
    options.max_request_bytes = max_request_bytes;
    start_with(options);
  }

  void start_with(const ServerOptions& options) {
    token_ = options.auth_token;
    server_ = std::make_unique<Server>(options);
    thread_ = std::thread([this] { rc_ = server_->run(); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    if (!options.listen.empty()) {
      // `tcp:host:0` binds an ephemeral port; only bound_address() knows
      // the real endpoint.
      while (server_->bound_address().empty()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "listener never came up";
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      target_ = server_->bound_address();
    } else {
      target_ = options.socket_path;
    }
    // The listener may not be bound yet; retry the connect briefly.
    for (;;) {
      try {
        client_ = std::make_unique<ServerClient>(target_, RetryPolicy{},
                                                 token_);
        break;
      } catch (const std::exception&) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  /// Shut the daemon down (fresh connection; client_ may be dead) and
  /// join its thread. Under --max-conns the fresh connection itself can
  /// be refused while a just-closed client still occupies a slot (the
  /// accept burst runs before dead-connection reaping within one poll
  /// cycle), so a `rejected` answer is retried rather than mistaken for
  /// a delivered shutdown.
  void stop() {
    if (!thread_.joinable()) return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      try {
        const obs::JsonValue resp =
            ServerClient(target_, RetryPolicy{}, token_)
                .call(R"({"method":"shutdown","now":true})");
        if (resp.find("ok")->as_bool()) break;
        if (resp.find("error")->find("code")->as_string() != "rejected") {
          break;  // e.g. shutting_down: the daemon is already exiting
        }
      } catch (const std::exception&) {
        break;  // connect failed: the daemon is already gone
      }
      if (std::chrono::steady_clock::now() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    thread_.join();
    EXPECT_EQ(rc_, 0);
    client_.reset();
    server_.reset();
  }

  void TearDown() override { stop(); }

  std::unique_ptr<Server> server_;
  std::unique_ptr<ServerClient> client_;
  std::thread thread_;
  std::string target_;  ///< endpoint spec the daemon is actually serving
  std::string token_;   ///< auth token (TCP daemons), "" otherwise
  int rc_ = -1;
};

TEST_F(ServerSocketTest, PingSubmitResultOverOneConnection) {
  start();
  const obs::JsonValue pong = client_->call(R"({"method":"ping","id":1})");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.find("protocol")->as_number(), kProtocolVersion);
  // Version stamps: wire schema and journal format, so clients can check
  // compatibility before submitting (docs/SERVER.md).
  EXPECT_EQ(pong.find("proto_version")->as_number(), kProtocolVersion);
  EXPECT_EQ(pong.find("journal_version")->as_number(),
            static_cast<double>(kJournalVersion));
  EXPECT_EQ(pong.find("id")->as_number(), 1.0);

  const obs::JsonValue accepted =
      client_->call(submit_line(problem_text(), 10));
  ASSERT_TRUE(accepted.find("ok")->as_bool());
  const auto job =
      static_cast<std::int64_t>(accepted.find("job")->as_number());
  const std::string result_line =
      R"({"method":"result","job":)" + std::to_string(job) + "}";
  for (;;) {
    const obs::JsonValue r = client_->call(result_line);
    if (r.find("ok")->as_bool()) {
      EXPECT_EQ(r.find("state")->as_string(), "done");
      EXPECT_GT(r.find("pairs")->items().size(), 0u);
      break;
    }
    ASSERT_EQ(r.find("error")->find("code")->as_string(), "not_ready");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Same bytes again: the parse + squares build must be served from cache.
  const obs::JsonValue again = client_->call(submit_line(problem_text(), 10));
  ASSERT_TRUE(again.find("ok")->as_bool());
  const auto job2 = static_cast<std::int64_t>(again.find("job")->as_number());
  // The cache lookup happens when a worker picks the job up, so wait for
  // the job to finish before reading the counter.
  const std::string result2 =
      R"({"method":"result","job":)" + std::to_string(job2) + "}";
  while (!client_->call(result2).find("ok")->as_bool()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const obs::JsonValue stats = client_->call(R"({"method":"stats"})");
  EXPECT_GE(stats.find("counters")->find("server.cache_hit")->as_number(),
            1.0);
}

TEST_F(ServerSocketTest, OversizedRequestLineIsRejected) {
  start(/*max_request_bytes=*/512);
  std::string huge = R"({"method":"submit","problem":")";
  huge.append(4096, 'x');
  // No closing newline needed: the cap triggers as soon as the unfinished
  // line exceeds it, so a streaming flood is cut off early.
  client_->send_raw(huge);
  const std::string line = client_->read_line();
  const obs::JsonValue doc = obs::parse_json(line);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("code")->as_string(), "too_large");
  // The server hangs up on the flooding connection after responding.
  EXPECT_THROW(client_->read_line(), std::runtime_error);
  // A fresh, polite connection to the same daemon still works.
  ServerClient polite(tmp_path("srv.sock"));
  EXPECT_TRUE(polite.call(R"({"method":"ping"})").find("ok")->as_bool());
}

TEST_F(ServerSocketTest, ErrorTaxonomyOverTheWire) {
  start();
  const obs::JsonValue bad = client_->call("garbage");
  EXPECT_EQ(bad.find("error")->find("code")->as_string(), "bad_request");
  const obs::JsonValue unknown = client_->call(R"({"method":"frobnicate"})");
  EXPECT_EQ(unknown.find("error")->find("code")->as_string(),
            "unknown_method");
  const obs::JsonValue missing =
      client_->call(R"({"method":"result","job":123})");
  EXPECT_EQ(missing.find("error")->find("code")->as_string(), "not_found");
  const obs::JsonValue retired = client_->call(
      R"({"method":"submit","problem":"x","solver":"dist-mr","ranks":3})");
  EXPECT_EQ(retired.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_NE(
      retired.find("error")->find("message")->as_string().find(
          "unknown solver"),
      std::string::npos);
}

TEST_F(ServerSocketTest, ProblemPathIsReadOffTheIoLoopAndFifosAreRefused) {
  start();
  // A FIFO with no writer: opening it for read blocks indefinitely, so
  // it (like any non-regular file) is refused at submit time -- a worker
  // must never be parked in open() on one.
  const std::string fifo = tmp_path("srv_fifo_problem");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  std::string fifo_line = R"({"method":"submit","problem_path":)";
  obs::append_json_string(fifo_line, fifo);
  fifo_line += R"(,"solver":"bp","iters":5})";
  const obs::JsonValue refused = client_->call(fifo_line);
  EXPECT_FALSE(refused.find("ok")->as_bool());
  EXPECT_EQ(refused.find("error")->find("code")->as_string(), "bad_request");
  ::unlink(fifo.c_str());

  // A regular file is accepted without being read in the I/O loop: the
  // submit response flags its key as provisional, a second connection's
  // ping answers promptly, and the worker re-keys the job to the true
  // content hash once it reads the bytes.
  const std::string path = tmp_path("srv_path_problem.txt");
  const std::string text = problem_text();
  std::ofstream(path, std::ios::trunc) << text << std::flush;
  std::string line = R"({"method":"submit","problem_path":)";
  obs::append_json_string(line, path);
  line += R"(,"solver":"bp","iters":5})";
  const obs::JsonValue accepted = client_->call(line);
  ASSERT_TRUE(accepted.find("ok")->as_bool());
  EXPECT_TRUE(accepted.find("key_provisional")->as_bool());
  EXPECT_NE(accepted.find("key")->as_string(), content_key(text));
  const auto job =
      static_cast<std::int64_t>(accepted.find("job")->as_number());
  ServerClient other(tmp_path("srv.sock"));
  EXPECT_TRUE(other.call(R"({"method":"ping"})").find("ok")->as_bool());
  const std::string result_line =
      R"({"method":"result","job":)" + std::to_string(job) + "}";
  for (;;) {
    const obs::JsonValue r = client_->call(result_line);
    if (r.find("ok")->as_bool()) {
      EXPECT_EQ(r.find("state")->as_string(), "done");
      break;
    }
    ASSERT_EQ(r.find("error")->find("code")->as_string(), "not_ready");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string status_line =
      R"({"method":"status","job":)" + std::to_string(job) + "}";
  const obs::JsonValue status = client_->call(status_line);
  EXPECT_EQ(status.find("key")->as_string(), content_key(text));
  ::unlink(path.c_str());
}

TEST_F(ServerSocketTest, PipelinedRequestsAnswerInOrder) {
  start();
  // One write carrying eight requests: the server must consume its input
  // buffer line by line and answer strictly in order.
  std::string burst;
  for (int i = 1; i <= 8; ++i) {
    burst += R"({"method":"ping","id":)" + std::to_string(i) + "}\n";
  }
  client_->send_raw(burst);
  for (int i = 1; i <= 8; ++i) {
    const obs::JsonValue doc = obs::parse_json(client_->read_line());
    EXPECT_TRUE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("id")->as_number(), static_cast<double>(i));
  }
}

TEST_F(ServerSocketTest, EvictedJobsAnswerExpiredNotNotFound) {
  ServerOptions options = base_options();
  options.retained_cap = 1;
  start_with(options);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const obs::JsonValue accepted =
        client_->call(submit_line(problem_text(), 5));
    ASSERT_TRUE(accepted.find("ok")->as_bool());
    ids.push_back(static_cast<std::int64_t>(accepted.find("job")->as_number()));
    const std::string result_line =
        R"({"method":"result","job":)" + std::to_string(ids.back()) + "}";
    while (!client_->call(result_line).find("ok")->as_bool()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // Retention (cap 1) evicted the first job when the second finished;
  // its id must answer `expired`, distinct from a never-issued id.
  const obs::JsonValue gone = client_->call(
      R"({"method":"result","job":)" + std::to_string(ids[0]) + "}");
  EXPECT_FALSE(gone.find("ok")->as_bool());
  EXPECT_EQ(gone.find("error")->find("code")->as_string(), "expired");
  const obs::JsonValue never =
      client_->call(R"({"method":"result","job":999})");
  EXPECT_EQ(never.find("error")->find("code")->as_string(), "not_found");
  const obs::JsonValue stats = client_->call(R"({"method":"stats"})");
  EXPECT_EQ(stats.find("retained")->as_number(), 1.0);
  EXPECT_GE(stats.find("evicted")->as_number(), 1.0);
  const obs::JsonValue* tenants = stats.find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_NE(tenants->find("default"), nullptr);
  EXPECT_EQ(tenants->find("default")->find("completed")->as_number(), 2.0);
}

TEST_F(ServerSocketTest, SecondDaemonRefusesALiveSocket) {
  start();
  // A second daemon pointed at the same path must probe, find a live
  // server, and refuse to start -- NOT unlink the socket out from under
  // the incumbent (the old behavior).
  ServerOptions second = base_options();
  second.work_dir = tmp_path("srv_jobs2");
  Server other(second);
  EXPECT_EQ(other.run(), 1);
  // The probe did not disturb the incumbent.
  EXPECT_TRUE(client_->call(R"({"method":"ping"})").find("ok")->as_bool());
}

TEST_F(ServerSocketTest, SubmitWithRequestIdIsIdempotentOverTheWire) {
  start();
  std::string line = submit_line(problem_text(), 10);
  line.back() = ',';  // re-open the object to add the request_id
  line += R"("request_id":"wire-retry-1"})";
  const obs::JsonValue first = client_->call(line);
  ASSERT_TRUE(first.find("ok")->as_bool());
  EXPECT_EQ(first.find("duplicate"), nullptr);
  const auto job = static_cast<std::int64_t>(first.find("job")->as_number());
  // The retry (same line, byte for byte -- exactly what the client's
  // reconnect path re-sends) answers with the original job id.
  const obs::JsonValue again = client_->call(line);
  ASSERT_TRUE(again.find("ok")->as_bool());
  ASSERT_NE(again.find("duplicate"), nullptr);
  EXPECT_TRUE(again.find("duplicate")->as_bool());
  EXPECT_EQ(static_cast<std::int64_t>(again.find("job")->as_number()), job);
  const obs::JsonValue stats = client_->call(R"({"method":"stats"})");
  EXPECT_EQ(stats.find("counters")
                ->find("server.jobs_deduplicated")
                ->as_number(),
            1.0);
  // Stats carry the durability fields too.
  EXPECT_EQ(stats.find("journal_enabled")->as_bool(), true);
  EXPECT_GE(stats.find("journal_appends")->as_number(), 1.0);
  EXPECT_EQ(stats.find("recovered")->as_bool(), false);
  ASSERT_NE(stats.find("recovered_terminal"), nullptr);
  ASSERT_NE(stats.find("recovered_resumed"), nullptr);
}

TEST_F(ServerSocketTest, ClientRetryPolicySurvivesADaemonRestart) {
  start();
  // A client with a retry budget, pointed at a daemon we then replace.
  ServerClient retrying(tmp_path("srv.sock"),
                        RetryPolicy{/*retries=*/40, /*max_backoff_ms=*/100});
  EXPECT_TRUE(retrying.call(R"({"method":"ping"})").find("ok")->as_bool());
  stop();  // the daemon goes away entirely...
  ServerOptions options = base_options();
  options.work_dir = tmp_path("srv_jobs_restarted");
  start_with(options);  // ...and comes back on the same socket path
  // The next call rides the reconnect loop instead of throwing.
  const obs::JsonValue pong = retrying.call(R"({"method":"ping"})");
  EXPECT_TRUE(pong.find("ok")->as_bool());
}

TEST_F(ServerSocketTest, ZeroRetryClientStillFailsFast) {
  start();
  ServerClient fragile(tmp_path("srv.sock"));
  EXPECT_TRUE(fragile.call(R"({"method":"ping"})").find("ok")->as_bool());
  stop();
  EXPECT_THROW(fragile.call(R"({"method":"ping"})"), std::runtime_error);
}

TEST_F(ServerSocketTest, ClientThatStopsReadingIsDropped) {
  ServerOptions options = base_options();
  options.max_output_bytes = 32u << 10;
  start_with(options);
  // Big echoed ids make each response ~1KB; a client that never reads
  // lets the backlog grow past the cap once the kernel buffers fill.
  const std::string line =
      R"({"method":"ping","id":")" + std::string(1024, 'x') + "\"}\n";
  try {
    for (int i = 0; i < 4000; ++i) client_->send_raw(line);
  } catch (const std::exception&) {
    // The daemon hung up on us mid-flood: that is the point.
  }
  // Watch from a fresh, polite connection: the flooder gets dropped and
  // the daemon stays responsive (its memory no longer grows with us).
  ServerClient watcher(tmp_path("srv.sock"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    const obs::JsonValue stats = watcher.call(R"({"method":"stats"})");
    if (stats.find("counters")
            ->find("server.slow_clients_dropped")
            ->as_number() >= 1.0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "slow client was never dropped";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// --- transports and network hardening --------------------------------------

TEST(Transport, EndpointGrammar) {
  Endpoint ep;
  std::string err;
  ASSERT_TRUE(parse_endpoint("unix:/tmp/x.sock", ep, err)) << err;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/x.sock");
  EXPECT_EQ(ep.str(), "unix:/tmp/x.sock");

  // A bare path is a unix socket -- back-compat with --socket.
  ASSERT_TRUE(parse_endpoint("/tmp/bare.sock", ep, err)) << err;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/bare.sock");

  ASSERT_TRUE(parse_endpoint("tcp:127.0.0.1:4455", ep, err)) << err;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, "4455");

  // Bracketed IPv6 literal; str() reproduces the brackets.
  ASSERT_TRUE(parse_endpoint("tcp:[::1]:0", ep, err)) << err;
  EXPECT_EQ(ep.host, "::1");
  EXPECT_EQ(ep.port, "0");
  EXPECT_EQ(ep.str(), "tcp:[::1]:0");

  EXPECT_FALSE(parse_endpoint("", ep, err));
  EXPECT_FALSE(parse_endpoint("unix:", ep, err));
  EXPECT_FALSE(parse_endpoint("tcp:nohost", ep, err));
  EXPECT_FALSE(parse_endpoint("tcp:host:notaport", ep, err));
  EXPECT_FALSE(parse_endpoint("tcp:host:99999", ep, err));
  EXPECT_FALSE(parse_endpoint("tcp::4455", ep, err));
  EXPECT_FALSE(parse_endpoint("tcp:[::1]4455", ep, err));
  // A scheme-looking spec that is neither unix: nor tcp: is a typo, not
  // a bare path.
  EXPECT_FALSE(parse_endpoint("udp:127.0.0.1:4455", ep, err));
  EXPECT_FALSE(parse_endpoint("localhost:4455", ep, err));
}

TEST(Transport, ConstantTimeTokenCompare) {
  EXPECT_TRUE(tokens_equal("s3cret", "s3cret"));
  EXPECT_FALSE(tokens_equal("s3cret", "s3creT"));
  EXPECT_FALSE(tokens_equal("s3cret", "s3cre"));
  EXPECT_FALSE(tokens_equal("s3cret", "s3crets"));
  EXPECT_FALSE(tokens_equal("s3cret", ""));
  EXPECT_FALSE(tokens_equal("", "guess"));
}

TEST_F(ServerSocketTest, PartialFramesAtEveryByteBoundary) {
  start();
  const std::string line = R"({"method":"ping","id":42})" "\n";
  // Worst case first: the whole frame one byte at a time, with pauses so
  // each byte is its own poll cycle server-side.
  for (const char b : line) {
    client_->send_raw(std::string_view(&b, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::JsonValue doc = obs::parse_json(client_->read_line());
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("id")->as_number(), 42.0);
  // Then every two-write split point of the same frame.
  for (std::size_t cut = 1; cut + 1 < line.size(); ++cut) {
    client_->send_raw(std::string_view(line).substr(0, cut));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    client_->send_raw(std::string_view(line).substr(cut));
    doc = obs::parse_json(client_->read_line());
    EXPECT_TRUE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("id")->as_number(), 42.0);
  }
}

TEST_F(ServerSocketTest, MidFrameResetIsSurvived) {
  ServerOptions options = base_options();
  options.listen = "tcp:127.0.0.1:0";
  options.auth_token = "reset-test-token";
  start_with(options);
  // A raw connection that dies with an RST halfway through a frame: the
  // daemon must reap the buffer and keep serving everyone else.
  Endpoint ep;
  std::string error;
  ASSERT_TRUE(parse_endpoint(target_, ep, error)) << error;
  for (int i = 0; i < 5; ++i) {
    const int fd = connect_endpoint(ep, error);
    ASSERT_GE(fd, 0) << error;
    const char partial[] = R"({"method":"submit","problem":"trunc)";
    ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);
    // linger(on, 0): close() fires an RST instead of an orderly FIN.
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  }
  // The established, authed connection is unaffected.
  EXPECT_TRUE(client_->call(R"({"method":"ping"})").find("ok")->as_bool());
}

TEST_F(ServerSocketTest, IdleTimeoutReapsStalledConnections) {
  ServerOptions options = base_options();
  options.idle_timeout_ms = 300;
  start_with(options);
  // client_ now goes silent -- a slowloris holding a connection open.
  // Watch the reap from fresh short-lived connections (each active, so
  // never reaped themselves).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    ServerClient watcher(target_);
    const obs::JsonValue stats = watcher.call(R"({"method":"stats"})");
    if (stats.find("counters")->find("server.idle_reaped")->as_number() >=
        1.0) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stalled connection was never reaped";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The reaper closed the longest-idle connection: ours. A zero-retry
  // call on it must fail.
  EXPECT_THROW(client_->call(R"({"method":"ping"})"), std::runtime_error);
}

TEST_F(ServerSocketTest, TcpEndToEndWithAuth) {
  ServerOptions options = base_options();
  options.listen = "tcp:127.0.0.1:0";
  options.auth_token = "tcp-e2e-token";
  start_with(options);
  // The fixture client authenticated in its constructor; real work runs.
  const obs::JsonValue accepted =
      client_->call(submit_line(problem_text(), 5));
  ASSERT_TRUE(accepted.find("ok")->as_bool());

  // Unauthenticated connections may ping (health checks stay tokenless)
  // but nothing else.
  ServerClient unauthed(target_);
  EXPECT_TRUE(unauthed.call(R"({"method":"ping"})").find("ok")->as_bool());
  const obs::JsonValue refused = unauthed.call(R"({"method":"stats"})");
  EXPECT_FALSE(refused.find("ok")->as_bool());
  EXPECT_EQ(refused.find("error")->find("code")->as_string(),
            "auth_required");

  // A wrong token is rejected at the handshake -- and, unlike a lost
  // connection, never retried.
  EXPECT_THROW(ServerClient(target_, RetryPolicy{}, "wrong-token"),
               std::runtime_error);
  const obs::JsonValue stats = client_->call(R"({"method":"stats"})");
  EXPECT_GE(
      stats.find("counters")->find("server.auth_failures")->as_number(),
      1.0);
  EXPECT_EQ(stats.find("auth_required")->as_bool(), true);
  EXPECT_EQ(stats.find("listen")->as_string(), target_);
}

TEST(ServerLifecycle, TcpWithoutTokenRefusesToStart) {
  ServerOptions options;
  options.listen = "tcp:127.0.0.1:0";
  options.work_dir = tmp_path("tcp_no_token_jobs");
  Server srv(options);
  // Serving a tokenless TCP port would hand the daemon to anyone who can
  // reach it; run() must refuse before binding anything.
  EXPECT_EQ(srv.run(), 2);
}

TEST_F(ServerSocketTest, MaxConnsRefusedGracefully) {
  ServerOptions options = base_options();
  options.max_conns = 2;
  start_with(options);
  // Connection 2 of 2 (client_ holds the first).
  ServerClient second(target_);
  EXPECT_TRUE(second.call(R"({"method":"ping"})").find("ok")->as_bool());
  // Connection 3 is over the cap: it gets one parseable `rejected` error
  // line, then the daemon hangs up.
  Endpoint ep;
  std::string error;
  ASSERT_TRUE(parse_endpoint(target_, ep, error)) << error;
  const int fd = connect_endpoint(ep, error);
  ASSERT_GE(fd, 0) << error;
  std::string refusal;
  char buf[512];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the server closed after the refusal line
    refusal.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  ASSERT_NE(refusal.find('\n'), std::string::npos) << refusal;
  const obs::JsonValue doc =
      obs::parse_json(refusal.substr(0, refusal.find('\n')));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->find("code")->as_string(), "rejected");
  // The in-cap connections are untouched, and the refusal is counted.
  const obs::JsonValue stats = client_->call(R"({"method":"stats"})");
  EXPECT_GE(
      stats.find("counters")->find("server.conns_rejected")->as_number(),
      1.0);
}

}  // namespace
}  // namespace netalign::server
