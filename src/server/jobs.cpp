#include "server/jobs.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "netalign/belief_prop.hpp"
#include "netalign/isorank.hpp"
#include "netalign/klau_mr.hpp"
#include "netalign/rounding.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace netalign::server {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// DRR cost of a job: its iteration budget, the best a priori proxy for
/// worker time the scheduler has before the solve runs.
std::int64_t job_cost(const SubmitParams& spec) {
  return std::max<std::int64_t>(1, spec.iters);
}

/// Unlink `paths` (missing ones are fine). Called with no lock held.
void remove_files(const std::vector<std::string>& paths) {
  std::error_code ec;
  for (const std::string& path : paths) std::filesystem::remove(path, ec);
}

JobState state_from_journal(const std::string& s) {
  if (s == "done") return JobState::kDone;
  if (s == "cancelled") return JobState::kCancelled;
  return JobState::kFailed;
}

}  // namespace

JobManager::JobManager(const JobManagerOptions& options, ProblemCache& cache,
                       obs::Counters* counters)
    : options_(options), cache_(cache), counters_(counters) {
  if (options_.workers < 1) {
    throw std::invalid_argument("JobManager: workers must be >= 1");
  }
  if (options_.work_dir.empty()) {
    throw std::invalid_argument("JobManager: work_dir is required");
  }
  if (options_.drr_quantum < 1) {
    throw std::invalid_argument("JobManager: drr_quantum must be >= 1");
  }
  if (options_.retained_cap < 1) {
    throw std::invalid_argument("JobManager: retained_cap must be >= 1");
  }
  options_.tenant_queue_cap =
      std::min(options_.tenant_queue_cap, options_.queue_cap);
  if (options_.tenant_queue_cap < 1) {
    throw std::invalid_argument("JobManager: tenant_queue_cap must be >= 1");
  }
  if (options_.checkpoint_every < 0) {
    throw std::invalid_argument("JobManager: checkpoint_every must be >= 0");
  }
  std::filesystem::create_directories(options_.work_dir);
  if (options_.journal) {
    const std::string jpath = options_.work_dir + "/journal.jsonl";
    if (options_.recover) {
      // Throws on a newer-version journal; the daemon refuses to start
      // rather than misread it.
      recover_from_journal();
    } else {
      std::error_code ec;
      std::filesystem::remove(jpath, ec);  // discard prior state on request
    }
    journal_ = std::make_unique<JobJournal>(jpath, options_.journal_fsync);
    if (recovery_.performed) {
      // Rewrite a clean snapshot immediately: drops the torn tail (if
      // any) and persists the recovered next_id so ids stay unique even
      // if this run crashes before its first natural compaction.
      std::vector<JournalJob> live;
      live.reserve(jobs_.size());
      for (const auto& [id, job] : jobs_) {
        live.push_back(to_journal_locked(*job));
      }
      journal_->compact(live, next_id_);
    }
  }
  clean_work_dir();
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

std::string JobManager::ckpt_path(std::int64_t id) const {
  return options_.work_dir + "/job-" + std::to_string(id) + ".ckpt";
}

std::string JobManager::spill_path(const std::string& file) const {
  return options_.work_dir + "/" + file;
}

std::string JobManager::spill_problem(std::int64_t id,
                                      const std::string& bytes) {
  const std::string file = "job-" + std::to_string(id) + ".nap";
  const std::string path = spill_path(file);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return {};
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return {};
  }
  return file;
}

JournalJob JobManager::to_journal_locked(const Job& job) const {
  JournalJob j;
  j.id = job.id;
  // Everything but problem_text (spilled to disk, never journaled).
  j.spec.problem_path = job.spec.problem_path;
  j.spec.solver = job.spec.solver;
  j.spec.matcher = job.spec.matcher;
  j.spec.iters = job.spec.iters;
  j.spec.batch = job.spec.batch;
  j.spec.gamma = job.spec.gamma;
  j.spec.deadline_seconds = job.spec.deadline_seconds;
  j.spec.tag = job.spec.tag;
  j.spec.tenant = job.tenant;
  j.spec.request_id = job.spec.request_id;
  j.tenant = job.tenant;
  j.key = job.key;
  j.key_provisional =
      job.problem_file.empty() && !job.spec.problem_path.empty();
  j.problem_file = job.problem_file;
  // `resume` marks a recovered formerly-running job that has not been
  // picked up again yet; snapshotting it as started keeps its
  // checkpoint-resume eligibility across a second crash.
  j.started = job.state == JobState::kRunning || job.resume;
  // A pending-terminal job (final state latched, fsync'd append in
  // flight off-lock, state not published yet) snapshots as terminal:
  // otherwise a compaction in that window would rewrite the journal
  // without the terminal record the appender just made durable, and a
  // later crash would re-run a job whose result clients already saw.
  const JobState state =
      job.terminal_pending ? job.pending_state : job.state;
  j.terminal = state == JobState::kDone || state == JobState::kFailed ||
               state == JobState::kCancelled;
  if (j.terminal) j.result = to_journal_result(job, state);
  return j;
}

JournalResult JobManager::to_journal_result(const Job& job, JobState state) {
  JournalResult r;
  r.state = to_string(state);
  r.has_result = job.has_result;
  r.error = job.error;
  r.cache_hit = job.cache_hit;
  if (job.has_result) {
    const JobResult& jr = job.result;
    r.stopped_reason = jr.stopped_reason;
    r.objective = jr.objective;
    r.weight = jr.weight;
    r.overlap = jr.overlap;
    r.cardinality = jr.cardinality;
    r.best_iteration = jr.best_iteration;
    r.iterations_completed = jr.iterations_completed;
    r.total_seconds = jr.total_seconds;
    r.problem_name = jr.problem_name;
    r.num_a = jr.num_a;
    r.num_b = jr.num_b;
    r.pairs.reserve(jr.pairs.size());
    for (const auto& [a, b] : jr.pairs) {
      r.pairs.emplace_back(static_cast<std::int64_t>(a),
                           static_cast<std::int64_t>(b));
    }
  }
  return r;
}

void JobManager::journal_terminal(const Job& job, JobState state) {
  // Called without mutex_ on purpose: the terminal fsync must not stall
  // the manager lock. Safe because a job's result fields are immutable
  // once the run finished, and only the caller publishes `state`. The
  // caller must have latched job.terminal_pending under mutex_ first, so
  // a concurrent compaction snapshots the job as terminal instead of
  // rewriting the journal without this record. (A compaction in that
  // window makes this append a duplicate terminal record -- benign:
  // replay applies the first and ignores the rest.)
  journal_->terminal(job.id, to_journal_result(job, state));
  if (counters_ != nullptr) {
    counters_->add_concurrent("server.journal.appends");
    counters_->add_concurrent("server.journal.fsyncs");
  }
}

void JobManager::maybe_compact_locked() {
  if (journal_ == nullptr) return;
  // Proportional trigger: a journal in steady state holds at most
  // retained_cap + queue_cap + workers live jobs at <= 3 records each;
  // once the append count clears that by a healthy factor, most records
  // are dead history (evicted jobs) and a rewrite shrinks the file.
  const auto threshold =
      4 * static_cast<std::int64_t>(options_.retained_cap +
                                    options_.queue_cap) +
      64;
  if (journal_->appends_since_compact() <= threshold) return;
  std::vector<JournalJob> live;
  live.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    live.push_back(to_journal_locked(*job));
  }
  journal_->compact(live, next_id_);
  if (counters_ != nullptr) {
    counters_->add_concurrent("server.journal.compactions");
  }
}

void JobManager::recover_from_journal() {
  const std::string jpath = options_.work_dir + "/journal.jsonl";
  {
    std::error_code ec;
    if (!std::filesystem::exists(jpath, ec)) return;  // nothing to replay
  }
  const JournalReplay rep = replay_journal_file(jpath);
  recovery_.performed = true;
  recovery_.ignored_events = rep.ignored_events;
  recovery_.torn_tail = rep.torn_tail;
  next_id_ = rep.next_id;

  // Pass 1: rebuild every live job's in-memory state, in submit order.
  for (const JournalJob& jj : rep.jobs) {
    auto job = std::make_shared<Job>();
    job->id = jj.id;
    job->spec = jj.spec;
    job->tenant = jj.tenant;
    job->key = jj.key;
    job->problem_file = jj.problem_file;
    if (!jj.spec.request_id.empty()) {
      request_ids_.emplace(std::make_pair(jj.tenant, jj.spec.request_id),
                           jj.id);
    }
    if (jj.terminal) {
      job->state = state_from_journal(jj.result.state);
      job->has_result = jj.result.has_result;
      job->error = jj.result.error;
      job->cache_hit = jj.result.cache_hit;
      if (jj.result.has_result) {
        JobResult jr;
        jr.state = job->state;
        jr.has_result = true;
        jr.stopped_reason = jj.result.stopped_reason;
        jr.objective = jj.result.objective;
        jr.weight = jj.result.weight;
        jr.overlap = jj.result.overlap;
        jr.cardinality = jj.result.cardinality;
        jr.best_iteration = jj.result.best_iteration;
        jr.iterations_completed = jj.result.iterations_completed;
        jr.total_seconds = jj.result.total_seconds;
        jr.cache_hit = jj.result.cache_hit;
        jr.problem_name = jj.result.problem_name;
        jr.num_a = jj.result.num_a;
        jr.num_b = jj.result.num_b;
        jr.pairs.reserve(jj.result.pairs.size());
        for (const auto& [a, b] : jj.result.pairs) {
          jr.pairs.emplace_back(static_cast<vid_t>(a),
                                static_cast<vid_t>(b));
        }
        job->result = std::move(jr);
      }
      ++tenants_[job->tenant].completed;
      retained_lru_.push_back(job->id);
      job->lru_pos = std::prev(retained_lru_.end());
      job->in_lru = true;
      ++recovery_.terminal_restored;
    } else if (jj.problem_file.empty() && jj.spec.problem_path.empty()) {
      // The submit was journaled but its problem spill never made it to
      // disk (spill I/O failure before the crash). The job cannot be
      // re-run; fail it visibly instead of dropping it.
      job->state = JobState::kFailed;
      job->error = "problem bytes were lost in a crash before the job ran";
      ++tenants_[job->tenant].completed;
      retained_lru_.push_back(job->id);
      job->lru_pos = std::prev(retained_lru_.end());
      job->in_lru = true;
      ++recovery_.terminal_restored;
    } else {
      job->state = JobState::kQueued;
      if (!jj.problem_file.empty()) {
        // Re-read the spilled bytes through the worker's existing
        // problem_path machinery; re-keying reproduces the same content
        // hash.
        job->spec.problem_path = spill_path(jj.problem_file);
        job->spec.problem_text.clear();
      }
      job->resume = jj.started;
    }
    jobs_.emplace(jj.id, std::move(job));
  }

  // Pass 2: re-enqueue non-terminal jobs -- formerly-running first, in
  // the order workers originally picked them up, then still-queued jobs
  // in submit order. Within a tenant both orders coincide with FIFO.
  std::vector<const JournalJob*> started;
  for (const JournalJob& jj : rep.jobs) {
    if (!jj.terminal && jj.started) started.push_back(&jj);
  }
  std::sort(started.begin(), started.end(),
            [](const JournalJob* a, const JournalJob* b) {
              return a->start_seq < b->start_seq;
            });
  auto enqueue = [this](std::int64_t id, const std::string& tenant) {
    Tenant& bucket = tenants_[tenant];
    if (bucket.queue.empty()) active_tenants_.push_back(tenant);
    bucket.queue.push_back(id);
    ++queued_total_;
  };
  for (const JournalJob* jj : started) {
    const auto it = jobs_.find(jj->id);
    if (it == jobs_.end() || it->second->state != JobState::kQueued) continue;
    enqueue(jj->id, jj->tenant);
    ++recovery_.rerun;
    std::error_code ec;
    if (std::filesystem::exists(ckpt_path(jj->id), ec) ||
        std::filesystem::exists(ckpt_path(jj->id) + ".prev", ec)) {
      ++recovery_.resumed;
    }
  }
  for (const JournalJob& jj : rep.jobs) {
    if (jj.terminal || jj.started) continue;
    const auto it = jobs_.find(jj.id);
    if (it == jobs_.end() || it->second->state != JobState::kQueued) continue;
    enqueue(jj.id, jj.tenant);
    ++recovery_.requeued;
  }

  // Retention may have shrunk between runs: enforce the cap on restored
  // terminal jobs the same way mark_terminal_locked does. The files of
  // anything evicted here are swept by clean_work_dir right after.
  while (retained_lru_.size() > options_.retained_cap) {
    const std::int64_t victim = retained_lru_.front();
    retained_lru_.pop_front();
    const auto it = jobs_.find(victim);
    if (it != jobs_.end()) {
      if (!it->second->spec.request_id.empty()) {
        const auto rid = request_ids_.find(
            {it->second->tenant, it->second->spec.request_id});
        if (rid != request_ids_.end() && rid->second == victim) {
          request_ids_.erase(rid);
        }
      }
      it->second->in_lru = false;
      jobs_.erase(it);
    }
    ++evicted_;
  }

  if (counters_ != nullptr) {
    counters_->add_concurrent("server.recovery.terminal_restored",
                              recovery_.terminal_restored);
    counters_->add_concurrent("server.recovery.requeued",
                              recovery_.requeued);
    counters_->add_concurrent("server.recovery.rerun", recovery_.rerun);
    counters_->add_concurrent("server.recovery.resumed", recovery_.resumed);
    counters_->add_concurrent("server.recovery.ignored_events",
                              recovery_.ignored_events);
  }
}

namespace {

/// Parse "job-<digits><suffix>" out of a work-dir filename; returns -1
/// when `name` does not have that shape.
std::int64_t job_file_id(const std::string& name, const char* suffix) {
  const std::string_view prefix = "job-";
  const std::string_view suf = suffix;
  if (name.size() <= prefix.size() + suf.size()) return -1;
  if (name.compare(0, prefix.size(), prefix) != 0) return -1;
  if (name.compare(name.size() - suf.size(), suf.size(), suf) != 0) {
    return -1;
  }
  std::int64_t id = 0;
  for (std::size_t i = prefix.size(); i < name.size() - suf.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(name[i])) == 0) return -1;
    id = id * 10 + (name[i] - '0');
    if (id > 1'000'000'000'000) return -1;
  }
  return id;
}

}  // namespace

void JobManager::clean_work_dir() {
  // Reclaim files this manager's naming scheme owns and no live job
  // references: checkpoints nothing will resume, spills of jobs that
  // reached a terminal state, half-written temporaries from an
  // interrupted atomic rename, and per-job traces older builds wrote.
  // Files outside the job-*/journal naming scheme are never touched.
  std::int64_t removed = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.work_dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    bool doomed = false;
    if (name == "journal.jsonl") {
      doomed = journal_ == nullptr;  // journal off = fresh start
    } else if (name == "journal.jsonl.tmp" ||
               job_file_id(name, ".trace.jsonl") >= 0 ||
               (name.size() > 4 && name.compare(0, 4, "job-") == 0 &&
                name.compare(name.size() - 4, 4, ".tmp") == 0)) {
      doomed = true;  // an older build's trace, or interrupted tmp -> rename
    } else if (const auto cid = job_file_id(name, ".ckpt"); cid >= 0) {
      const auto it = jobs_.find(cid);
      doomed = it == jobs_.end() || !it->second->resume;
    } else if (const auto pid = job_file_id(name, ".ckpt.prev"); pid >= 0) {
      const auto it = jobs_.find(pid);
      doomed = it == jobs_.end() || !it->second->resume;
    } else if (const auto nid = job_file_id(name, ".nap"); nid >= 0) {
      const auto it = jobs_.find(nid);
      doomed = it == jobs_.end() || it->second->state != JobState::kQueued;
    }
    if (doomed && std::filesystem::remove(entry.path(), ec)) ++removed;
  }
  recovery_.orphans_removed = removed;
  if (counters_ != nullptr) {
    counters_->add_concurrent("server.recovery.orphans_removed", removed);
  }
}

JobManager::JournalStats JobManager::journal_stats() const {
  JournalStats s;
  if (journal_ != nullptr) {
    s.enabled = true;
    s.appends = journal_->appends_total();
    s.fsyncs = journal_->fsyncs_total();
    s.compactions = journal_->compactions_total();
    s.write_errors = journal_->write_errors_total();
  }
  return s;
}

JobManager::~JobManager() { shutdown(true); }

JobManager::SubmitOutcome JobManager::submit(SubmitParams spec) {
  SubmitOutcome out;
  if (!spec.problem_path.empty()) {
    // Only *stat* the path here: submit runs on the server's single
    // I/O thread, and reading an arbitrarily large (or slow) file would
    // stall every connection. The worker reads the bytes in run_job and
    // re-keys the job from the content; until then the key is a
    // provisional path+mtime hash. The stat itself can still block on a
    // pathological mount, so docs/SERVER.md requires problem_path to
    // live on responsive local storage.
    std::error_code ec;
    const auto status = std::filesystem::status(spec.problem_path, ec);
    if (ec || !std::filesystem::exists(status)) {
      out.code = ErrorCode::kBadRequest;
      out.message = "cannot open problem_path " + spec.problem_path;
      return out;
    }
    if (!std::filesystem::is_regular_file(status)) {
      // A FIFO would block the worker at open (possibly forever, with
      // no writer); a directory or device makes no sense either.
      out.code = ErrorCode::kBadRequest;
      out.message =
          "problem_path " + spec.problem_path + " is not a regular file";
      return out;
    }
    const auto mtime = std::filesystem::last_write_time(spec.problem_path, ec);
    const auto ticks = ec ? 0 : mtime.time_since_epoch().count();
    out.key = content_key(spec.problem_path + "\n" + std::to_string(ticks));
    out.key_provisional = true;
  } else {
    out.key = content_key(spec.problem_text);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string tenant =
        spec.tenant.empty() ? kDefaultTenant : spec.tenant;
    if (!spec.request_id.empty()) {
      // Idempotent retry: the same (tenant, request_id) answers with the
      // original job instead of enqueueing a second run. Checked before
      // the drain/capacity gates on purpose -- the original was already
      // admitted, so its retry must not bounce off a now-full queue.
      // Keyed per tenant so a request_id that happens to collide across
      // tenants enqueues a fresh job instead of answering with (and
      // disclosing) another tenant's job id and content key.
      const auto it = request_ids_.find({tenant, spec.request_id});
      if (it != request_ids_.end()) {
        out.accepted = true;
        out.duplicate = true;
        out.job = it->second;
        if (const std::shared_ptr<Job> orig = find(it->second)) {
          out.key = orig->key;
          out.key_provisional =
              orig->problem_file.empty() && !orig->spec.problem_path.empty();
        }
        if (counters_ != nullptr) {
          counters_->add_concurrent("server.jobs_deduplicated");
        }
        return out;
      }
    }
    if (draining_ || stopping_) {
      out.code = ErrorCode::kShuttingDown;
      out.message = "server is shutting down";
      return out;
    }
    if (queued_total_ >= options_.queue_cap) {
      out.code = ErrorCode::kRejected;
      out.message = "job queue at capacity (" +
                    std::to_string(options_.queue_cap) + " queued)";
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.jobs_rejected");
      }
      return out;
    }
    Tenant& bucket = tenants_[tenant];
    if (bucket.queue.size() >= options_.tenant_queue_cap) {
      out.code = ErrorCode::kQuotaExceeded;
      out.message = "tenant '" + tenant + "' at its queued-jobs quota (" +
                    std::to_string(options_.tenant_queue_cap) + ")";
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.jobs_quota_exceeded");
      }
      return out;
    }
    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->spec = std::move(spec);
    job->tenant = tenant;
    job->key = out.key;
    out.accepted = true;
    out.job = job->id;
    if (!job->spec.request_id.empty()) {
      request_ids_.emplace(std::make_pair(tenant, job->spec.request_id),
                           job->id);
    }
    if (journal_ != nullptr) {
      // Durability before acknowledgement: spill inline problem bytes,
      // then append the submit record. Both reach the kernel before the
      // caller sees the job id, so a SIGKILL at any later instant cannot
      // lose this job.
      if (!job->spec.problem_text.empty()) {
        job->problem_file = spill_problem(job->id, job->spec.problem_text);
      }
      journal_->submit(to_journal_locked(*job));
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.journal.appends");
        if (options_.journal_fsync) {
          counters_->add_concurrent("server.journal.fsyncs");
        }
      }
      maybe_compact_locked();
    }
    if (bucket.queue.empty()) active_tenants_.push_back(tenant);
    bucket.queue.push_back(job->id);
    ++queued_total_;
    jobs_.emplace(job->id, std::move(job));
    if (counters_ != nullptr) {
      counters_->add_concurrent("server.jobs_accepted");
    }
  }
  work_available_.notify_one();
  return out;
}

bool JobManager::has_eligible_locked() const {
  for (const std::string& name : active_tenants_) {
    const Tenant& t = tenants_.at(name);
    if (options_.tenant_running_cap <= 0 ||
        t.running < options_.tenant_running_cap) {
      return true;
    }
  }
  return false;
}

std::int64_t JobManager::pop_next_locked() {
  // Conceptually each DRR pass grants every eligible tenant one quantum
  // and runs the first tenant whose deficit covers its head job's cost.
  // Iterating that literally would spin ceil(cost / quantum) passes
  // under mutex_ with a client-controlled cost, so compute the winning
  // pass in closed form: per tenant, the number of whole passes until
  // its deficit would cover its head job, then jump straight there.
  const std::int64_t quantum = options_.drr_quantum;
  const std::size_t none = active_tenants_.size();
  std::size_t winner = none;
  std::int64_t win_passes = 0;
  for (std::size_t i = 0; i < active_tenants_.size(); ++i) {
    const Tenant& t = tenants_.at(active_tenants_[i]);
    if (options_.tenant_running_cap > 0 &&
        t.running >= options_.tenant_running_cap) {
      continue;  // at its running cap: not part of this scheduling round
    }
    const std::int64_t cost = job_cost(jobs_.at(t.queue.front())->spec);
    // Every pass adds the quantum *before* the deficit >= cost test, so
    // even an already-covered tenant needs one pass.
    const std::int64_t need = cost - t.deficit;
    const std::int64_t passes =
        need <= 0 ? 1 : (need + quantum - 1) / quantum;
    if (winner == none || passes < win_passes) {
      winner = i;  // ties go to the earlier rotation position
      win_passes = passes;
    }
  }
  if (winner == none) return -1;
  // Replay the grants those passes imply: tenants at or before the
  // winner's rotation position saw the final pass, later ones did not.
  for (std::size_t i = 0; i < active_tenants_.size(); ++i) {
    Tenant& t = tenants_.at(active_tenants_[i]);
    if (options_.tenant_running_cap > 0 &&
        t.running >= options_.tenant_running_cap) {
      continue;
    }
    t.deficit += (i <= winner ? win_passes : win_passes - 1) * quantum;
  }
  const std::string name = active_tenants_[winner];
  Tenant& t = tenants_.at(name);
  const std::int64_t id = t.queue.front();
  t.deficit -= job_cost(jobs_.at(id)->spec);
  t.queue.pop_front();
  --queued_total_;
  ++t.running;
  active_tenants_.erase(active_tenants_.begin() +
                        static_cast<std::ptrdiff_t>(winner));
  if (t.queue.empty()) {
    t.deficit = 0;  // classic DRR: no hoarding credit while idle
  } else {
    active_tenants_.push_back(name);  // to the back of the rotation
  }
  return id;
}

void JobManager::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // During a drain shutdown (stopping_ with jobs still queued) a
      // worker keeps draining; it exits only once the queue is empty.
      work_available_.wait(lock, [this] {
        return (stopping_ && queued_total_ == 0) || has_eligible_locked();
      });
      if (stopping_ && queued_total_ == 0) return;
      const std::int64_t id = pop_next_locked();
      if (id < 0) continue;  // lost the race for the job that woke us
      job = jobs_.at(id);
      job->state = JobState::kRunning;
      ++running_;
    }
    const JobState final_state = run_job(*job);
    // The fsync'd terminal record goes to the journal *before* the
    // terminal state is published (and off the manager lock): run_job
    // filled in the result but left job->state at kRunning, so no client
    // can observe a terminal state that is not yet durable, and the job
    // cannot have been evicted yet (eviction requires the LRU entry
    // mark_terminal_locked creates below). Latching terminal_pending
    // under mutex_ first closes the compaction race: a snapshot taken
    // while the append is in flight still records the job as terminal.
    if (journal_ != nullptr) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        job->terminal_pending = true;
        job->pending_state = final_state;
      }
      journal_terminal(*job, final_state);
    }
    std::vector<std::string> doomed;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Publish the terminal state atomically with the bookkeeping, so
      // stats can never show every job terminal while running_ > 0.
      job->state = final_state;
      job->terminal_pending = false;
      if (job->has_result) job->result.state = final_state;
      --running_;
      --tenants_.at(job->tenant).running;
      doomed = mark_terminal_locked(*job);
      // The run is over and its end is durable: the checkpoint and the
      // problem spill have nothing left to recover.
      doomed.push_back(ckpt_path(job->id));
      doomed.push_back(ckpt_path(job->id) + ".prev");
      doomed.push_back(ckpt_path(job->id) + ".tmp");
      if (!job->problem_file.empty()) {
        doomed.push_back(spill_path(job->problem_file));
      }
      maybe_compact_locked();
    }
    remove_files(doomed);
    // A tenant blocked on its running cap may be runnable now.
    work_available_.notify_all();
    job_finished_.notify_all();
  }
}

namespace {

/// Run the solver named by `spec` exactly as the one-shot CLI would, so
/// server answers are bit-identical to `netalign align` (check_server.sh
/// byte-compares the two).
AlignResult run_solver(const SubmitParams& spec, const CachedProblem& cp,
                       const SolveBudget& budget, obs::TraceWriter* trace,
                       obs::Counters* counters) {
  const MatcherKind matcher = matcher_from_string(spec.matcher);
  const int iters = static_cast<int>(spec.iters);
  if (spec.solver == "bp") {
    BeliefPropOptions opt;
    opt.max_iterations = iters;
    opt.matcher = matcher;
    opt.batch_size = static_cast<int>(spec.batch);
    if (spec.gamma > 0.0) opt.gamma = spec.gamma;
    opt.trace = trace;
    opt.counters = counters;
    opt.budget = budget;
    return belief_prop_align(cp.problem, cp.squares.view(), opt);
  }
  if (spec.solver == "mr") {
    KlauMrOptions opt;
    opt.max_iterations = iters;
    opt.matcher = matcher;
    if (spec.gamma > 0.0) opt.gamma = spec.gamma;
    opt.trace = trace;
    opt.counters = counters;
    opt.budget = budget;
    return klau_mr_align(cp.problem, cp.squares.view(), opt);
  }
  if (spec.solver == "isorank") {
    IsoRankOptions opt;
    opt.max_iterations = iters;
    opt.matcher = matcher;
    if (spec.gamma > 0.0) opt.gamma = spec.gamma;
    opt.trace = trace;
    opt.counters = counters;
    opt.budget = budget;
    return isorank_align(cp.problem, cp.squares.view(), opt);
  }
  throw std::invalid_argument("unknown solver '" + spec.solver + "'");
}

}  // namespace

JobState JobManager::run_job(Job& job) {
  // Record the failure but do NOT flip job.state: worker_loop publishes
  // the returned state only after the journal append is durable.
  auto fail = [&](const std::string& why) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.error = why;
    }
    if (counters_ != nullptr) {
      counters_->add_concurrent("server.jobs_failed");
    }
    return JobState::kFailed;
  };

  // Submit validates the name too, but a job replayed from an older
  // journal can still name a retired solver: fail it before reading its
  // problem or building squares into the cache.
  if (!known_solver(job.spec.solver)) {
    return fail("unknown solver '" + job.spec.solver + "'");
  }

  if (!job.spec.problem_path.empty()) {
    // Deferred from submit: this is a worker thread, where a slow read
    // stalls nothing but this job. Re-check the file type right before
    // opening (the submit-time check races with replacement, and opening
    // a writer-less FIFO would block forever), then read in chunks so a
    // cancel interrupts a read off slow storage and the byte cap holds
    // even if the file grows underneath us.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(job.spec.problem_path, ec)) {
      return fail("problem_path " + job.spec.problem_path +
                  " is not a regular file");
    }
    std::ifstream in(job.spec.problem_path, std::ios::binary);
    if (!in) {
      return fail("cannot open problem_path " + job.spec.problem_path);
    }
    std::string bytes;
    char buf[1u << 16];
    for (;;) {
      if (job.cancel.load(std::memory_order_relaxed)) {
        if (counters_ != nullptr) {
          counters_->add_concurrent("server.jobs_cancelled");
        }
        return JobState::kCancelled;
      }
      in.read(buf, sizeof(buf));
      const auto n = static_cast<std::size_t>(in.gcount());
      if (bytes.size() + n > options_.max_problem_bytes) {
        return fail("problem_path " + job.spec.problem_path + " exceeds " +
                    std::to_string(options_.max_problem_bytes) + " bytes");
      }
      bytes.append(buf, n);
      if (in.eof()) break;
      if (!in) {
        return fail("read error on problem_path " + job.spec.problem_path);
      }
    }
    const std::string key = content_key(bytes);
    std::lock_guard<std::mutex> lock(mutex_);
    job.spec.problem_text = std::move(bytes);
    job.spec.problem_path.clear();
    job.key = key;  // re-key from bytes: path submissions dedupe with inline
  }

  if (journal_ != nullptr) {
    // Path submissions (and recovered jobs re-reading their spill) only
    // have their bytes now: persist them so the job survives a crash
    // from here on, then journal the pickup with the final content key.
    if (job.problem_file.empty()) {
      const std::string file = spill_problem(job.id, job.spec.problem_text);
      if (!file.empty()) {
        std::lock_guard<std::mutex> lock(mutex_);
        job.problem_file = file;
      }
    }
    journal_->start(job.id, job.key, job.problem_file);
    if (counters_ != nullptr) {
      counters_->add_concurrent("server.journal.appends");
      if (options_.journal_fsync) {
        counters_->add_concurrent("server.journal.fsyncs");
      }
    }
  }

  // Resolve the squares backend before cache keying: the per-job field
  // wins over the server default.
  SquaresBackendOptions squares_opts;
  squares_opts.budget_bytes = std::uint64_t{options_.squares_max_mb} << 20;
  try {
    const std::string& mode_name = job.spec.squares_mode.empty()
                                       ? options_.squares_mode
                                       : job.spec.squares_mode;
    squares_opts.mode = squares_mode_from_string(mode_name);
  } catch (const std::exception& e) {
    return fail(std::string("bad squares_mode: ") + e.what());
  }

  std::shared_ptr<const CachedProblem> cp;
  bool hit = false;
  try {
    cp = cache_.get(job.key, job.spec.problem_text, squares_opts, hit);
  } catch (const std::exception& e) {
    return fail(std::string("problem rejected: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.cache_hit = hit;
  }

  try {
    obs::TraceWriter trace(
        [&job](std::string&& line) { job.append_event(std::move(line)); });
    obs::Counters run_counters;
    trace.run_start(job.spec.solver, {{"problem", cp->problem.name},
                                      {"matcher", job.spec.matcher},
                                      {"iters", job.spec.iters},
                                      {"job", job.id},
                                      {"tenant", job.tenant},
                                      {"cache", hit ? "hit" : "miss"},
                                      {"squares_mode",
                                       cp->squares.mode_name()}});
    SolveBudget budget;
    budget.deadline_seconds = job.spec.deadline_seconds;
    budget.cancel_flag = &job.cancel;
    if (journal_ != nullptr && options_.checkpoint_every > 0) {
      // Periodic solver checkpoints (io/checkpoint.hpp: atomic
      // tmp -> rename, previous generation kept at .prev) are what let
      // recovery resume this job instead of rerunning it from scratch.
      budget.checkpoint_every = static_cast<int>(options_.checkpoint_every);
      budget.checkpoint_path = ckpt_path(job.id);
    }
    if (job.resume) {
      std::error_code ec;
      if (std::filesystem::exists(ckpt_path(job.id), ec) ||
          std::filesystem::exists(ckpt_path(job.id) + ".prev", ec)) {
        // PR 5's deterministic resume: the finished matching is
        // bit-identical to an uninterrupted run, which is what the
        // durability gate byte-compares.
        budget.resume_path = ckpt_path(job.id);
      }
    }
    const AlignResult r =
        run_solver(job.spec, *cp, budget, &trace, &run_counters);
    trace.run_end(r.total_seconds, r.value.objective, r.best_iteration,
                  &run_counters,
                  {{"stopped_reason", to_string(r.stopped_reason)},
                   {"iterations_completed", r.iterations_completed}});

    JobResult jr;
    jr.has_result = true;
    jr.stopped_reason = to_string(r.stopped_reason);
    jr.objective = r.value.objective;
    jr.weight = r.value.weight;
    jr.overlap = r.value.overlap;
    jr.cardinality = r.matching.cardinality;
    jr.best_iteration = r.best_iteration;
    jr.iterations_completed = r.iterations_completed;
    jr.total_seconds = r.total_seconds;
    jr.cache_hit = hit;
    jr.problem_name = cp->problem.name;
    jr.num_a = static_cast<std::int64_t>(r.matching.mate_a.size());
    jr.num_b = static_cast<std::int64_t>(r.matching.mate_b.size());
    jr.pairs.reserve(static_cast<std::size_t>(r.matching.cardinality));
    for (std::size_t a = 0; a < r.matching.mate_a.size(); ++a) {
      if (r.matching.mate_a[a] != kInvalidVid) {
        jr.pairs.emplace_back(static_cast<vid_t>(a), r.matching.mate_a[a]);
      }
    }

    const bool cancelled = r.stopped_reason == StopReason::kCancelled;
    const JobState final_state =
        cancelled ? JobState::kCancelled : JobState::kDone;
    jr.state = final_state;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.has_result = true;
      job.result = std::move(jr);
    }
    if (counters_ != nullptr) {
      counters_->add_concurrent(cancelled ? "server.jobs_cancelled"
                                          : "server.jobs_completed");
    }
    return final_state;
  } catch (const std::exception& e) {
    return fail(std::string("solve failed: ") + e.what());
  }
}

std::vector<std::string> JobManager::mark_terminal_locked(Job& job) {
  ++tenants_[job.tenant].completed;
  if (!job.in_lru) {
    retained_lru_.push_back(job.id);
    job.lru_pos = std::prev(retained_lru_.end());
    job.in_lru = true;
  }
  // LRU eviction beyond the retention cap: the state-map entry, the
  // buffered events and any files the victim left are reclaimed together.
  // The unlink happens after mutex_ is released (callers own that).
  std::vector<std::string> doomed;
  while (retained_lru_.size() > options_.retained_cap) {
    const std::int64_t victim = retained_lru_.front();
    retained_lru_.pop_front();
    const auto it = jobs_.find(victim);
    if (it != jobs_.end()) {
      Job& gone = *it->second;
      // Normally reclaimed at the victim's own terminal transition;
      // harmless to re-doom (remove() of a missing file is a no-op).
      doomed.push_back(ckpt_path(victim));
      doomed.push_back(ckpt_path(victim) + ".prev");
      if (!gone.problem_file.empty()) {
        doomed.push_back(spill_path(gone.problem_file));
      }
      if (!gone.spec.request_id.empty()) {
        // The dedupe window is the retention window: a retry after this
        // point enqueues a fresh run instead of resolving to the victim.
        const auto rid =
            request_ids_.find({gone.tenant, gone.spec.request_id});
        if (rid != request_ids_.end() && rid->second == victim) {
          request_ids_.erase(rid);
        }
      }
      gone.in_lru = false;
      jobs_.erase(it);
    }
    if (journal_ != nullptr) {
      journal_->evict(victim);
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.journal.appends");
        if (options_.journal_fsync) {
          counters_->add_concurrent("server.journal.fsyncs");
        }
      }
    }
    ++evicted_;
    if (counters_ != nullptr) {
      counters_->add_concurrent("server.jobs_evicted");
    }
  }
  return doomed;
}

void JobManager::touch_locked(Job& job) {
  if (!job.in_lru) return;
  retained_lru_.splice(retained_lru_.end(), retained_lru_, job.lru_pos);
  job.lru_pos = std::prev(retained_lru_.end());
}

void JobManager::Job::append_event(std::string&& line) {
  // Parsed off the lock; the line itself is kept verbatim. Every
  // TraceWriter line names its "event", and every round its "objective".
  const obs::JsonValue event = obs::parse_json(line);
  const std::string& type = event.find("event")->as_string();
  const std::lock_guard<std::mutex> guard(events_mutex);
  if (type == "iteration") ++iterations_seen;
  if (type == "round") {
    ++rounds_seen;
    const obs::JsonValue* objective = event.find("objective");
    if (objective->is_number()) last_objective = objective->as_number();
  }
  events.push_back(std::move(line));
}

std::shared_ptr<JobManager::Job> JobManager::find(std::int64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

bool JobManager::expired(std::int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return id >= 1 && id < next_id_ && jobs_.find(id) == jobs_.end();
}

std::optional<JobManager::JobStatus> JobManager::status(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<Job> job = find(id);
  if (job == nullptr) return std::nullopt;
  touch_locked(*job);
  JobStatus s;
  s.id = job->id;
  s.state = job->state;
  s.tag = job->spec.tag;
  s.tenant = job->tenant;
  s.key = job->key;
  s.solver = job->spec.solver;
  s.cache_hit = job->cache_hit;
  if (job->state == JobState::kQueued) {
    const auto it = tenants_.find(job->tenant);
    if (it != tenants_.end()) {
      const auto& queue = it->second.queue;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i] == id) {
          s.queue_position = static_cast<std::int64_t>(i);
          break;
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> guard(job->events_mutex);
    s.iterations = job->iterations_seen;
    s.rounds = job->rounds_seen;
    s.last_objective = job->last_objective;
  }
  s.error = job->error;
  return s;
}

std::optional<JobManager::JobProgress> JobManager::progress(
    std::int64_t id, std::int64_t cursor) {
  std::shared_ptr<Job> job;
  JobProgress p;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job = find(id);
    if (job == nullptr) return std::nullopt;
    touch_locked(*job);
    p.state = job->state;
  }
  std::lock_guard<std::mutex> guard(job->events_mutex);
  const auto total = static_cast<std::int64_t>(job->events.size());
  const std::int64_t from = std::min(cursor, total);
  p.events.assign(job->events.begin() + from, job->events.end());
  p.next_cursor = total;
  return p;
}

std::optional<JobManager::JobResult> JobManager::result(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::shared_ptr<Job> job = find(id);
  if (job == nullptr) return std::nullopt;
  touch_locked(*job);
  const bool terminal = job->state == JobState::kDone ||
                        job->state == JobState::kFailed ||
                        job->state == JobState::kCancelled;
  if (job->has_result && terminal) {
    // Copy; jobs are immutable once terminal. The `terminal` guard
    // matters: a worker fills job->result before the journal fsync and
    // before worker_loop publishes the terminal state, and in that
    // window the job must still look running.
    return job->result;
  }
  JobResult r;
  r.state = job->state;
  r.has_result = false;
  r.error = job->error;
  r.cache_hit = job->cache_hit;
  return r;
}

JobManager::CancelOutcome JobManager::cancel(std::int64_t id) {
  std::vector<std::string> doomed;
  CancelOutcome out;
  std::shared_ptr<Job> pulled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::shared_ptr<Job> job = find(id);
    if (job == nullptr) return {};
    out.found = true;
    if (job->state == JobState::kQueued && !job->terminal_pending) {
      // Pull the job from its queue so no worker can pick it up, and
      // latch the pending cancellation -- but do NOT publish kCancelled
      // yet: the fsync'd terminal record must land first, mirroring
      // worker_loop's durable-before-observable ordering. (Publishing
      // first would let a crash in between recover the job as
      // still-queued and run it after the client was told it was
      // cancelled.) A concurrent cancel of the same id in this window
      // sees terminal_pending and reports the still-queued state.
      pulled = job;
      Tenant& t = tenants_.at(job->tenant);
      const auto it = std::find(t.queue.begin(), t.queue.end(), id);
      if (it != t.queue.end()) {
        t.queue.erase(it);
        --queued_total_;
        if (t.queue.empty()) {
          t.deficit = 0;
          std::erase(active_tenants_, job->tenant);
        }
      }
      job->terminal_pending = true;
      job->pending_state = JobState::kCancelled;
    } else if (job->state == JobState::kRunning) {
      // Latch the budget's cancel flag; the solver stops at its next
      // iteration boundary and the job finishes as kCancelled with its
      // best-so-far matching. Until then the state honestly stays running.
      job->cancel.store(true, std::memory_order_relaxed);
    }
    out.state = job->state;
  }
  if (pulled != nullptr) {
    if (journal_ != nullptr) journal_terminal(*pulled, JobState::kCancelled);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pulled->state = JobState::kCancelled;
      pulled->terminal_pending = false;
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.jobs_cancelled");
      }
      doomed = mark_terminal_locked(*pulled);
    }
    out.state = JobState::kCancelled;
  }
  remove_files(doomed);
  return out;
}

JobManager::QueueStats JobManager::queue_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  QueueStats s;
  s.queued = static_cast<std::int64_t>(queued_total_);
  s.running = running_;
  s.total_jobs = next_id_ - 1;
  s.workers = options_.workers;
  s.queue_cap = static_cast<std::int64_t>(options_.queue_cap);
  s.tenant_queue_cap = static_cast<std::int64_t>(options_.tenant_queue_cap);
  s.tenant_running_cap = options_.tenant_running_cap;
  s.retained = static_cast<std::int64_t>(retained_lru_.size());
  s.retained_cap = static_cast<std::int64_t>(options_.retained_cap);
  s.evicted = evicted_;
  for (const auto& [name, t] : tenants_) {
    if (t.queue.empty() && t.running == 0 && t.completed == 0) continue;
    TenantStats ts;
    ts.tenant = name;
    ts.queued = static_cast<std::int64_t>(t.queue.size());
    ts.running = t.running;
    ts.completed = t.completed;
    s.tenants.push_back(std::move(ts));
  }
  return s;
}

void JobManager::begin_drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = true;
}

bool JobManager::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_ || stopping_;
}

bool JobManager::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_total_ == 0 && running_ == 0;
}

void JobManager::shutdown(bool cancel_running) {
  std::vector<std::string> doomed;
  std::vector<std::shared_ptr<Job>> cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    stopping_ = true;
    if (cancel_running) {
      for (auto& [name, t] : tenants_) {
        for (const std::int64_t id : t.queue) {
          const std::shared_ptr<Job> job = jobs_.at(id);
          // Latch, don't publish: the cancelled records are journaled
          // below (off-lock) before the state flips, mirroring
          // worker_loop's durable-before-observable ordering.
          job->terminal_pending = true;
          job->pending_state = JobState::kCancelled;
          cancelled.push_back(job);
        }
        t.queue.clear();
        t.deficit = 0;
      }
      queued_total_ = 0;
      active_tenants_.clear();
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  if (journal_ != nullptr) {
    for (const std::shared_ptr<Job>& job : cancelled) {
      // A `shutdown now` is still an orderly transition: the cancelled
      // queued jobs are journaled terminal so a restart reports them as
      // cancelled instead of re-running them.
      journal_terminal(*job, JobState::kCancelled);
    }
  }
  if (!cancelled.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::shared_ptr<Job>& job : cancelled) {
      job->state = JobState::kCancelled;
      job->terminal_pending = false;
      if (counters_ != nullptr) {
        counters_->add_concurrent("server.jobs_cancelled");
      }
      auto paths = mark_terminal_locked(*job);
      doomed.insert(doomed.end(), paths.begin(), paths.end());
    }
  }
  remove_files(doomed);
  work_available_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

}  // namespace netalign::server
