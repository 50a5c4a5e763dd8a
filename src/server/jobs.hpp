// Job queue, worker pool, and job lifecycle for the alignment server.
//
// Admission control is explicit and two-level: submit either enqueues or
// answers immediately -- `rejected` when the server-wide queue bound is
// hit, `quota_exceeded` when the submitting *tenant* is at its own
// queued-jobs quota -- so the daemon never buffers unbounded work and no
// tenant can monopolize the buffer. Queued jobs live in per-tenant FIFO
// queues drained by deficit-round-robin: each scheduling pass grants
// every eligible tenant `drr_quantum` iteration-credits and runs the
// first tenant whose accumulated deficit covers its head job's cost
// (cost = the job's iteration budget), so tenants share worker time
// proportionally regardless of how fast any one of them submits. A
// per-tenant running cap bounds how many workers one tenant may occupy
// at once.
//
// Terminal jobs (done/failed/cancelled) are retained up to
// `retained_cap` and then evicted least-recently-*accessed* first; an
// eviction reclaims the state-map entry and the buffered progress events
// together. Jobs are held by shared_ptr so a
// status/progress reader that grabbed a job just before its eviction
// still reads coherent state. Evicted ids are distinguishable from
// never-issued ids (`expired()`), so clients get `expired`, not a
// confusing `not_found`.
//
// Each accepted job runs on one of a fixed pool of worker threads under
// a per-job SolveBudget: the client's deadline maps onto
// `deadline_seconds`, and cancellation maps onto the budget's
// `cancel_flag`, so a running job stops at its next iteration boundary
// and still yields its best-so-far matching (state machine in
// docs/SERVER.md). A `problem_path` submission is *not* read at submit
// time (that would block the single-threaded I/O loop behind disk I/O);
// the worker reads it in run_job and re-keys the job from the bytes.
//
// Every job runs with its own obs::TraceWriter whose line sink appends
// each finished event line to the job in memory; status/progress queries
// serve those exact lines, so "streaming" progress is just re-serving the
// solver's existing telemetry -- the server adds no second progress
// channel to keep consistent, and writes no per-job trace file.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netalign/result.hpp"
#include "obs/counters.hpp"
#include "server/cache.hpp"
#include "server/journal.hpp"
#include "server/protocol.hpp"
#include "util/types.hpp"

namespace netalign::server {

/// Job lifecycle: queued -> running -> {done | failed | cancelled};
/// queued -> cancelled directly when cancel beats the worker to it.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

[[nodiscard]] const char* to_string(JobState s);

/// The scheduling bucket of a submit without an explicit tenant.
inline constexpr const char* kDefaultTenant = "default";

struct JobManagerOptions {
  int workers = 2;            ///< solver worker threads
  std::size_t queue_cap = 16; ///< max *queued* jobs server-wide; beyond it: rejected
  /// Max queued jobs for one tenant; beyond it: quota_exceeded. Clamped
  /// to queue_cap.
  std::size_t tenant_queue_cap = 8;
  /// Max concurrently *running* jobs for one tenant; 0 = no per-tenant
  /// cap (bounded by `workers` alone).
  int tenant_running_cap = 0;
  /// Iteration-credits granted per tenant per deficit-round-robin pass.
  std::int64_t drr_quantum = 100;
  /// Terminal jobs retained before LRU eviction reclaims them.
  std::size_t retained_cap = 256;
  /// Byte cap on a problem_path file (inline problems are already
  /// bounded by the request-line cap); the worker's chunked read fails
  /// the job once it would exceed this.
  std::size_t max_problem_bytes = 1u << 30;
  /// Journal, checkpoints and problem spills live here (required).
  std::string work_dir;
  /// Durability (docs/SERVER.md "Durability & recovery"): with the
  /// journal on, an accepted submit is appended to
  /// `work_dir/journal.jsonl` before it is acknowledged, terminal
  /// transitions are fsync'd, and running jobs checkpoint their solver
  /// state every `checkpoint_every` iterations, so a SIGKILL loses no
  /// acknowledged job.
  bool journal = true;
  /// fsync every journal append, not just terminal records: submit acks
  /// then survive a machine crash too, at a per-submit fsync cost.
  bool journal_fsync = false;
  /// Replay the journal at construction: restore terminal results,
  /// re-enqueue queued jobs, resume formerly-running jobs from their
  /// checkpoints. Off = discard any prior journal and start fresh.
  bool recover = true;
  /// Solver-iteration cadence of per-job checkpoints (job-<id>.ckpt);
  /// 0 = no periodic checkpoints. Only meaningful with the journal on,
  /// since recovery is the only reader.
  std::int64_t checkpoint_every = 25;
  /// Default squares backend for submits without a `squares_mode` field:
  /// "explicit" | "implicit" | "auto".
  std::string squares_mode = "explicit";
  /// `auto` threshold in MiB: a problem whose explicit squares structure
  /// would exceed this is built implicit instead.
  std::uint64_t squares_max_mb = 2048;
};

class JobManager {
 public:
  JobManager(const JobManagerOptions& options, ProblemCache& cache,
             obs::Counters* counters);
  ~JobManager();  ///< shutdown(true)

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  struct SubmitOutcome {
    bool accepted = false;
    std::int64_t job = -1;
    std::string key;     ///< problem content hash (provisional for paths)
    /// True for problem_path submissions: `key` is a path+mtime hash
    /// that the worker replaces with the content hash once it reads the
    /// bytes, so clients must not use it for dedupe or correlation.
    bool key_provisional = false;
    /// True when `request_id` matched a known submission: `job` is the
    /// original id and nothing new was enqueued.
    bool duplicate = false;
    ErrorCode code = ErrorCode::kInternal;  ///< when !accepted
    std::string message;                    ///< when !accepted
  };
  /// Validate and enqueue. Inline problems are hashed here; a
  /// problem_path submission is only stat'ed (regular-file check +
  /// mtime) -- the worker reads the bytes in run_job and re-keys the
  /// job, so a large or slow file never stalls the caller (the server's
  /// I/O loop).
  SubmitOutcome submit(SubmitParams spec);

  struct JobStatus {
    std::int64_t id = -1;
    JobState state = JobState::kQueued;
    std::string tag;
    std::string tenant;
    std::string key;
    std::string solver;
    bool cache_hit = false;          ///< meaningful once running
    std::int64_t queue_position = -1;  ///< 0-based within the tenant queue
    std::int64_t iterations = 0;     ///< iteration events emitted so far
    std::int64_t rounds = 0;         ///< rounding events emitted so far
    double last_objective = 0.0;     ///< 0 until the first round event
    std::string error;               ///< kFailed only
  };
  std::optional<JobStatus> status(std::int64_t id);

  struct JobProgress {
    JobState state = JobState::kQueued;
    std::int64_t next_cursor = 0;
    /// Trace event lines [cursor, next_cursor), exactly as the job's
    /// TraceWriter produced them (compact JSON, no newline).
    std::vector<std::string> events;
  };
  std::optional<JobProgress> progress(std::int64_t id, std::int64_t cursor);

  struct JobResult {
    JobState state = JobState::kQueued;
    bool has_result = false;  ///< done, or cancelled after it ran
    std::string error;
    std::string stopped_reason;
    double objective = 0.0;
    double weight = 0.0;
    double overlap = 0.0;
    std::int64_t cardinality = 0;
    std::int64_t best_iteration = -1;
    std::int64_t iterations_completed = 0;
    double total_seconds = 0.0;
    bool cache_hit = false;
    std::string problem_name;
    std::int64_t num_a = 0;  ///< |V_A|, for client-side matching rebuild
    std::int64_t num_b = 0;
    std::vector<std::pair<vid_t, vid_t>> pairs;  ///< matched (a, b)
  };
  std::optional<JobResult> result(std::int64_t id);

  /// True iff `id` was issued by this manager and its job has since been
  /// evicted by the retention cap (ids are never reused). Lets lookup
  /// misses answer `expired` instead of `not_found`.
  [[nodiscard]] bool expired(std::int64_t id) const;

  struct CancelOutcome {
    bool found = false;
    JobState state = JobState::kQueued;  ///< state after the cancel
  };
  CancelOutcome cancel(std::int64_t id);

  struct TenantStats {
    std::string tenant;
    std::int64_t queued = 0;
    std::int64_t running = 0;
    std::int64_t completed = 0;  ///< jobs that reached a terminal state
  };
  struct QueueStats {
    std::int64_t queued = 0;
    std::int64_t running = 0;
    std::int64_t total_jobs = 0;
    std::int64_t workers = 0;
    std::int64_t queue_cap = 0;
    std::int64_t tenant_queue_cap = 0;
    std::int64_t tenant_running_cap = 0;
    std::int64_t retained = 0;   ///< terminal jobs currently held
    std::int64_t retained_cap = 0;
    std::int64_t evicted = 0;    ///< terminal jobs reclaimed so far
    std::vector<TenantStats> tenants;  ///< tenants with live jobs, by name
  };
  QueueStats queue_stats() const;

  /// What the startup recovery pass did (all zero when `recover` was off
  /// or there was no journal). Immutable after construction.
  struct RecoveryStats {
    bool performed = false;        ///< a journal was replayed
    std::int64_t terminal_restored = 0;  ///< results queryable again
    std::int64_t requeued = 0;     ///< formerly-queued jobs re-enqueued
    std::int64_t rerun = 0;        ///< formerly-running jobs re-enqueued
    std::int64_t resumed = 0;      ///< of `rerun`, with a checkpoint to resume
    std::int64_t orphans_removed = 0;  ///< stale work-dir files deleted
    std::int64_t ignored_events = 0;   ///< journal records that did not apply
    bool torn_tail = false;        ///< the final record was cut mid-write
  };
  [[nodiscard]] const RecoveryStats& recovery() const { return recovery_; }

  struct JournalStats {
    bool enabled = false;
    std::int64_t appends = 0;
    std::int64_t fsyncs = 0;
    std::int64_t compactions = 0;
    /// Failed (rolled-back) appends: nonzero means some acknowledged
    /// jobs are not crash-durable (e.g. the disk filled up).
    std::int64_t write_errors = 0;
  };
  [[nodiscard]] JournalStats journal_stats() const;

  /// Reject all future submits with kShuttingDown.
  void begin_drain();
  [[nodiscard]] bool draining() const;
  /// True when no job is queued or running.
  [[nodiscard]] bool idle() const;
  /// Stop workers. `cancel_running` latches every live job's cancel flag
  /// and drops the queue; false = drain the queue first. Idempotent.
  void shutdown(bool cancel_running);

 private:
  struct Job {
    std::int64_t id = 0;
    SubmitParams spec;
    std::string tenant;  ///< resolved (never empty)
    std::string key;
    /// Basename of the job's problem spill in the work dir
    /// ("job-<id>.nap"); what recovery re-reads the bytes from. Empty
    /// for a path submission a worker has not picked up yet (recovery
    /// re-reads the original problem_path instead), or when the journal
    /// is off.
    std::string problem_file;
    /// Set by recovery on a formerly-running job: run_job points the
    /// budget's resume_path at job-<id>.ckpt (bit-identical resume).
    bool resume = false;
    std::atomic<bool> cancel{false};

    // Guarded by JobManager::mutex_.
    JobState state = JobState::kQueued;
    /// The job's final state is decided and its terminal journal record
    /// is being (or about to be) appended off-lock, but `state` is not
    /// published yet. to_journal_locked snapshots such a job as terminal
    /// so a concurrent compaction cannot rewrite the journal without the
    /// record the appender just fsync'd. Cleared when `state` flips.
    bool terminal_pending = false;
    JobState pending_state = JobState::kQueued;  ///< valid iff terminal_pending
    bool cache_hit = false;
    bool has_result = false;
    std::string error;
    JobResult result;  // filled when the run finishes
    bool in_lru = false;
    std::list<std::int64_t>::iterator lru_pos;  // valid iff in_lru

    // Progress, guarded by events_mutex: the worker's trace sink appends
    // here on every event, so it stays off the manager-wide lock.
    std::mutex events_mutex;
    std::vector<std::string> events;  ///< TraceWriter lines, no newline
    std::int64_t iterations_seen = 0;
    std::int64_t rounds_seen = 0;
    double last_objective = 0.0;

    /// The job's TraceWriter sink: buffer `line` and update the counters.
    void append_event(std::string&& line);
  };

  /// One tenant's scheduling bucket.
  struct Tenant {
    std::deque<std::int64_t> queue;  ///< queued job ids, FIFO
    std::int64_t deficit = 0;        ///< DRR credit (reset when queue empties)
    std::int64_t running = 0;
    std::int64_t completed = 0;
  };

  void worker_loop();
  /// Execute `job` and return its final state WITHOUT publishing it:
  /// worker_loop journals the terminal record first and only then flips
  /// job.state under mutex_, atomically with the running_/completed
  /// bookkeeping. No client can observe a terminal state that is not
  /// yet durable, and stats never show "all terminal but still running".
  [[nodiscard]] JobState run_job(Job& job);
  /// work_dir/job-<id>.ckpt (periodic solver checkpoints, io/checkpoint).
  [[nodiscard]] std::string ckpt_path(std::int64_t id) const;
  /// work_dir/<basename> for a problem spill file.
  [[nodiscard]] std::string spill_path(const std::string& file) const;
  /// Write `bytes` to the job's problem spill ("job-<id>.nap", tmp +
  /// atomic rename). Returns the basename, or "" on I/O failure (the
  /// job then survives only as long as the process).
  std::string spill_problem(std::int64_t id, const std::string& bytes);
  /// Snapshot `job` for a journal submit/compact record. Requires mutex_.
  [[nodiscard]] JournalJob to_journal_locked(const Job& job) const;
  /// Terminal-record payload for a job ending in `state`; the job's
  /// result fields must already be final (immutable from then on, so no
  /// lock is needed — job.state itself may not be published yet).
  [[nodiscard]] static JournalResult to_journal_result(const Job& job,
                                                      JobState state);
  /// Append the terminal record (fsync'd) and bump journal counters.
  void journal_terminal(const Job& job, JobState state);
  /// Rewrite the journal as a snapshot of live jobs when enough appends
  /// accumulated since the last compaction. Requires mutex_.
  void maybe_compact_locked();
  /// Replay work_dir/journal.jsonl into jobs_/tenants_/request_ids_.
  /// Runs in the constructor, before any worker starts. Throws on a
  /// journal with a newer version than this build.
  void recover_from_journal();
  /// Delete stale work-dir files (orphaned checkpoints/spills, trace
  /// files of older builds, half-written temporaries) that no live job
  /// owns. Requires the
  /// recovery pass (when any) to have run.
  void clean_work_dir();
  std::shared_ptr<Job> find(std::int64_t id);

  /// Deficit-round-robin pick: the next runnable job id, or -1. Pops it
  /// from its tenant queue and charges the tenant's deficit. Requires
  /// mutex_.
  std::int64_t pop_next_locked();
  [[nodiscard]] bool has_eligible_locked() const;
  /// Record a terminal transition: retention bookkeeping + counters.
  /// Requires mutex_; eviction of over-cap jobs happens here too (their
  /// checkpoint and spill files are unlinked after mutex_ is released, via
  /// the returned paths).
  [[nodiscard]] std::vector<std::string> mark_terminal_locked(Job& job);
  /// Refresh a terminal job's retention recency. Requires mutex_.
  void touch_locked(Job& job);

  JobManagerOptions options_;
  ProblemCache& cache_;
  obs::Counters* counters_;
  /// Null when options_.journal is off. Lock order: mutex_ before the
  /// journal's internal mutex, never the reverse.
  std::unique_ptr<JobJournal> journal_;
  RecoveryStats recovery_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable job_finished_;
  std::map<std::string, Tenant> tenants_;
  /// Tenants with queued jobs, in round-robin visit order.
  std::deque<std::string> active_tenants_;
  std::size_t queued_total_ = 0;
  std::map<std::int64_t, std::shared_ptr<Job>> jobs_;
  /// (tenant, request_id) -> job id for idempotent submits; entries live
  /// exactly as long as their job (erased on eviction), so the dedupe
  /// window is the retention window. Keyed per tenant: a request_id that
  /// happens to collide across tenants must enqueue a fresh job, never
  /// answer with (and thereby disclose) another tenant's job id and
  /// content key.
  std::map<std::pair<std::string, std::string>, std::int64_t> request_ids_;
  std::list<std::int64_t> retained_lru_;  ///< terminal jobs, LRU at front
  std::int64_t evicted_ = 0;
  std::int64_t next_id_ = 1;
  std::int64_t running_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace netalign::server
