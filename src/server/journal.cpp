#include "server/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.hpp"
#include "obs/jsonl_tail.hpp"
#include "server/jobs.hpp"  // kDefaultTenant

namespace netalign::server {

namespace {

void kv_string(std::string& out, const char* key, std::string_view value) {
  out.push_back(',');
  out.push_back('"');
  out += key;
  out += "\":";
  obs::append_json_string(out, value);
}

void kv_int(std::string& out, const char* key, std::int64_t value) {
  out.push_back(',');
  out.push_back('"');
  out += key;
  out += "\":";
  obs::append_json_number(out, value);
}

void kv_double(std::string& out, const char* key, double value) {
  out.push_back(',');
  out.push_back('"');
  out += key;
  out += "\":";
  obs::append_json_number(out, value);
}

void kv_bool(std::string& out, const char* key, bool value) {
  out.push_back(',');
  out.push_back('"');
  out += key;
  out += value ? "\":true" : "\":false";
}

std::string header_record(std::int64_t next_id) {
  std::string s = "{\"event\":\"journal\"";
  kv_int(s, "version", kJournalVersion);
  kv_int(s, "proto", kProtocolVersion);
  kv_int(s, "next_id", next_id);
  s.push_back('}');
  return s;
}

std::string submit_record(const JournalJob& j) {
  std::string s = "{\"event\":\"submit\"";
  kv_int(s, "job", j.id);
  kv_string(s, "tenant", j.tenant);
  kv_string(s, "key", j.key);
  kv_bool(s, "key_provisional", j.key_provisional);
  kv_string(s, "request_id", j.spec.request_id);
  kv_string(s, "solver", j.spec.solver);
  kv_string(s, "matcher", j.spec.matcher);
  kv_int(s, "iters", j.spec.iters);
  kv_int(s, "batch", j.spec.batch);
  kv_double(s, "gamma", j.spec.gamma);
  kv_double(s, "deadline_seconds", j.spec.deadline_seconds);
  kv_string(s, "tag", j.spec.tag);
  kv_string(s, "squares_mode", j.spec.squares_mode);
  kv_string(s, "problem_path", j.spec.problem_path);
  kv_string(s, "problem_file", j.problem_file);
  s.push_back('}');
  return s;
}

std::string start_record(std::int64_t job, const std::string& key,
                         const std::string& problem_file) {
  std::string s = "{\"event\":\"start\"";
  kv_int(s, "job", job);
  kv_string(s, "key", key);
  kv_string(s, "problem_file", problem_file);
  s.push_back('}');
  return s;
}

std::string terminal_record(std::int64_t job, const JournalResult& r) {
  std::string s = "{\"event\":\"terminal\"";
  kv_int(s, "job", job);
  kv_string(s, "state", r.state);
  kv_bool(s, "has_result", r.has_result);
  kv_string(s, "error", r.error);
  kv_string(s, "stopped_reason", r.stopped_reason);
  kv_double(s, "objective", r.objective);
  kv_double(s, "weight", r.weight);
  kv_double(s, "overlap", r.overlap);
  kv_int(s, "cardinality", r.cardinality);
  kv_int(s, "best_iteration", r.best_iteration);
  kv_int(s, "iterations_completed", r.iterations_completed);
  kv_double(s, "total_seconds", r.total_seconds);
  kv_bool(s, "cache_hit", r.cache_hit);
  kv_string(s, "problem", r.problem_name);
  kv_int(s, "num_a", r.num_a);
  kv_int(s, "num_b", r.num_b);
  s += ",\"pairs\":[";
  for (std::size_t i = 0; i < r.pairs.size(); ++i) {
    if (i > 0) s.push_back(',');
    s.push_back('[');
    obs::append_json_number(s, r.pairs[i].first);
    s.push_back(',');
    obs::append_json_number(s, r.pairs[i].second);
    s.push_back(']');
  }
  s += "]}";
  return s;
}

std::string evict_record(std::int64_t job) {
  std::string s = "{\"event\":\"evict\"";
  kv_int(s, "job", job);
  s.push_back('}');
  return s;
}

// Tolerant typed readers for replay: a missing or mistyped field keeps
// the default instead of aborting recovery -- replay must degrade, not
// crash, on anything short of a newer schema version.
std::string rep_string(const obs::JsonValue& doc, std::string_view key,
                       std::string fallback = {}) {
  const obs::JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string()
                                        : std::move(fallback);
}

std::int64_t rep_int(const obs::JsonValue& doc, std::string_view key,
                     std::int64_t fallback = 0) {
  const obs::JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number()
             ? static_cast<std::int64_t>(v->as_number())
             : fallback;
}

double rep_double(const obs::JsonValue& doc, std::string_view key,
                  double fallback = 0.0) {
  const obs::JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

bool rep_bool(const obs::JsonValue& doc, std::string_view key,
              bool fallback = false) {
  const obs::JsonValue* v = doc.find(key);
  return v != nullptr && v->type() == obs::JsonValue::Type::kBool
             ? v->as_bool()
             : fallback;
}

}  // namespace

JournalReplay replay_journal_file(const std::string& path) {
  JournalReplay out;
  obs::JsonlTailReader reader(path);
  // Index into out.jobs by id; evicted ids stay in `seen` so a stale
  // record for them is recognized as a re-apply, not a new job.
  std::unordered_map<std::int64_t, std::size_t> index;
  std::unordered_set<std::int64_t> seen;
  std::int64_t start_seq = 0;
  std::int64_t max_id = 0;
  obs::JsonValue event;
  for (;;) {
    const auto status = reader.next(event);
    if (status == obs::JsonlTailReader::Status::kPending) {
      // Clean EOF, or an unterminated final line a dying writer left.
      out.torn_tail = reader.has_partial_tail();
      break;
    }
    if (status == obs::JsonlTailReader::Status::kTruncatedTail) {
      out.torn_tail = true;  // terminated-but-unparseable final line
      break;
    }
    if (status == obs::JsonlTailReader::Status::kMalformed) {
      out.malformed = true;  // damage mid-stream; keep the clean prefix
      break;
    }
    const std::string type = rep_string(event, "event");
    if (type == "journal") {
      const std::int64_t version = rep_int(event, "version", 1);
      if (version > kJournalVersion) {
        throw std::runtime_error(
            "journal " + path + " has version " + std::to_string(version) +
            ", newer than this build supports (" +
            std::to_string(kJournalVersion) +
            "); refusing to recover from it");
      }
      out.version = version;
      out.next_id = std::max(out.next_id, rep_int(event, "next_id", 1));
      ++out.records_applied;
      continue;
    }
    const std::int64_t id = rep_int(event, "job", -1);
    if (id < 1) {
      ++out.ignored_events;  // record without a usable job id
      continue;
    }
    max_id = std::max(max_id, id);
    if (type == "submit") {
      if (!seen.insert(id).second) {
        ++out.ignored_events;  // ids are never reused: a re-apply
        continue;
      }
      JournalJob j;
      j.id = id;
      j.tenant = rep_string(event, "tenant", kDefaultTenant);
      j.key = rep_string(event, "key");
      j.key_provisional = rep_bool(event, "key_provisional");
      j.spec.request_id = rep_string(event, "request_id");
      j.spec.solver = rep_string(event, "solver", "bp");
      j.spec.matcher = rep_string(event, "matcher", "approx");
      j.spec.iters = rep_int(event, "iters", 100);
      j.spec.batch = rep_int(event, "batch", 1);
      j.spec.gamma = rep_double(event, "gamma");
      j.spec.deadline_seconds = rep_double(event, "deadline_seconds");
      j.spec.tag = rep_string(event, "tag");
      j.spec.squares_mode = rep_string(event, "squares_mode");
      j.spec.tenant = j.tenant;
      j.spec.problem_path = rep_string(event, "problem_path");
      j.problem_file = rep_string(event, "problem_file");
      index.emplace(id, out.jobs.size());
      out.jobs.push_back(std::move(j));
      ++out.records_applied;
    } else if (type == "start") {
      const auto it = index.find(id);
      if (it == index.end() || out.jobs[it->second].started ||
          out.jobs[it->second].terminal) {
        ++out.ignored_events;
        continue;
      }
      JournalJob& j = out.jobs[it->second];
      j.started = true;
      j.start_seq = start_seq++;
      const std::string key = rep_string(event, "key");
      if (!key.empty()) {
        j.key = key;
        j.key_provisional = false;
      }
      const std::string file = rep_string(event, "problem_file");
      if (!file.empty()) j.problem_file = file;
      ++out.records_applied;
    } else if (type == "terminal") {
      const auto it = index.find(id);
      if (it == index.end() || out.jobs[it->second].terminal) {
        ++out.ignored_events;  // double terminal: first one wins
        continue;
      }
      JournalJob& j = out.jobs[it->second];
      j.terminal = true;
      JournalResult& r = j.result;
      r.state = rep_string(event, "state", "failed");
      r.has_result = rep_bool(event, "has_result");
      r.error = rep_string(event, "error");
      r.stopped_reason = rep_string(event, "stopped_reason");
      r.objective = rep_double(event, "objective");
      r.weight = rep_double(event, "weight");
      r.overlap = rep_double(event, "overlap");
      r.cardinality = rep_int(event, "cardinality");
      r.best_iteration = rep_int(event, "best_iteration", -1);
      r.iterations_completed = rep_int(event, "iterations_completed");
      r.total_seconds = rep_double(event, "total_seconds");
      r.cache_hit = rep_bool(event, "cache_hit");
      r.problem_name = rep_string(event, "problem");
      r.num_a = rep_int(event, "num_a");
      r.num_b = rep_int(event, "num_b");
      if (const obs::JsonValue* pairs = event.find("pairs");
          pairs != nullptr && pairs->is_array()) {
        r.pairs.reserve(pairs->items().size());
        for (const obs::JsonValue& pair : pairs->items()) {
          if (!pair.is_array() || pair.items().size() != 2 ||
              !pair.items()[0].is_number() || !pair.items()[1].is_number()) {
            continue;
          }
          r.pairs.emplace_back(
              static_cast<std::int64_t>(pair.items()[0].as_number()),
              static_cast<std::int64_t>(pair.items()[1].as_number()));
        }
      }
      ++out.records_applied;
    } else if (type == "evict") {
      const auto it = index.find(id);
      if (it == index.end()) {
        ++out.ignored_events;
        continue;
      }
      // Drop the job but keep the id in `seen`: evicted ids answer
      // `expired`, and a stale record for one must not resurrect it.
      const std::size_t pos = it->second;
      index.erase(it);
      out.jobs.erase(out.jobs.begin() + static_cast<std::ptrdiff_t>(pos));
      for (auto& [jid, jpos] : index) {
        if (jpos > pos) --jpos;
      }
      ++out.records_applied;
    } else {
      ++out.ignored_events;  // unknown record type: the schema may grow
    }
  }
  out.next_id = std::max(out.next_id, max_id + 1);
  return out;
}

JobJournal::JobJournal(std::string path, bool fsync_all)
    : path_(std::move(path)), fsync_all_(fsync_all) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open journal " + path_ + ": " +
                             std::strerror(errno));
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size == 0) {
    append_line(header_record(1), /*fsync_now=*/true);
  }
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void JobJournal::append_line(const std::string& line, bool fsync_now) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tail_torn_) {
    // A prior append died mid-record and the trim failed; retry it
    // before writing anything, so replay never meets the damage
    // mid-stream (which would drop every record journaled after it).
    if (::ftruncate(fd_, static_cast<off_t>(torn_offset_)) != 0) {
      ++write_errors_;
      return;
    }
    tail_torn_ = false;
  }
  const off_t pre = ::lseek(fd_, 0, SEEK_END);
  if (pre < 0) {
    ++write_errors_;
    std::fprintf(stderr, "netalign_server: journal seek failed: %s\n",
                 std::strerror(errno));
    return;
  }
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::write(fd_, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A full disk must not take the daemon down with it; the job
      // simply will not survive a crash. But a *partially written*
      // record with no newline would stop replay at the damage, so trim
      // the file back to where this append started: losing exactly one
      // record, never the records appended after it.
      std::fprintf(stderr, "netalign_server: journal write failed: %s\n",
                   std::strerror(errno));
      ++write_errors_;
      if (off > 0 && ::ftruncate(fd_, pre) != 0) {
        tail_torn_ = true;
        torn_offset_ = static_cast<std::int64_t>(pre);
        std::fprintf(stderr,
                     "netalign_server: journal tail could not be trimmed; "
                     "suspending appends until the trim succeeds\n");
      }
      return;
    }
    off += static_cast<std::size_t>(n);
  }
  ++appends_since_compact_;
  ++appends_total_;
  if (fsync_now || fsync_all_) {
    if (::fsync(fd_) == 0) ++fsyncs_total_;
  }
}

void JobJournal::submit(const JournalJob& job) {
  append_line(submit_record(job), /*fsync_now=*/false);
}

void JobJournal::start(std::int64_t job, const std::string& key,
                       const std::string& problem_file) {
  append_line(start_record(job, key, problem_file), /*fsync_now=*/false);
}

void JobJournal::terminal(std::int64_t job, const JournalResult& result) {
  // The one transition a client pays for: fsync'd regardless of mode.
  append_line(terminal_record(job, result), /*fsync_now=*/true);
}

void JobJournal::evict(std::int64_t job) {
  append_line(evict_record(job), /*fsync_now=*/false);
}

void JobJournal::compact(const std::vector<JournalJob>& live,
                         std::int64_t next_id) {
  std::string snapshot = header_record(next_id);
  snapshot.push_back('\n');
  for (const JournalJob& j : live) {
    snapshot += submit_record(j);
    snapshot.push_back('\n');
    if (j.started) {
      snapshot += start_record(j.id, j.key, j.problem_file);
      snapshot.push_back('\n');
    }
    if (j.terminal) {
      snapshot += terminal_record(j.id, j.result);
      snapshot.push_back('\n');
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const std::string tmp = path_ + ".tmp";
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tfd < 0) {
    std::fprintf(stderr, "netalign_server: journal compact failed: %s\n",
                 std::strerror(errno));
    return;
  }
  std::size_t off = 0;
  bool ok = true;
  while (off < snapshot.size()) {
    const ssize_t n =
        ::write(tfd, snapshot.data() + off, snapshot.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(tfd) == 0) ++fsyncs_total_;
  ::close(tfd);
  if (!ok) {
    std::fprintf(stderr, "netalign_server: journal compact failed: %s\n",
                 std::strerror(errno));
    ::unlink(tmp.c_str());
    return;  // the old journal is intact; appends continue into it
  }
  // Open the replacement append fd on the tmp file *before* the rename:
  // if this open fails the compaction is abandoned with the old journal
  // (and fd_) fully usable, instead of discovering after the rename that
  // fd_ points at an unlinked inode and silently appending to a deleted
  // file.
  const int nfd = ::open(tmp.c_str(), O_WRONLY | O_APPEND);
  if (nfd < 0) {
    std::fprintf(stderr,
                 "netalign_server: journal compact failed: cannot reopen "
                 "%s: %s\n",
                 tmp.c_str(), std::strerror(errno));
    ::unlink(tmp.c_str());
    return;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::fprintf(stderr, "netalign_server: journal compact failed: %s\n",
                 std::strerror(errno));
    ::close(nfd);
    ::unlink(tmp.c_str());
    return;
  }
  // Swap the append fd to the new file so an append that was blocked on
  // mutex_ during the rewrite lands in the snapshot, not the old inode.
  ::close(fd_);
  fd_ = nfd;
  tail_torn_ = false;  // the rewrite replaced any damaged tail
  appends_since_compact_ = 0;
  ++compactions_total_;
}

std::int64_t JobJournal::appends_since_compact() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_since_compact_;
}

std::int64_t JobJournal::appends_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appends_total_;
}

std::int64_t JobJournal::fsyncs_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fsyncs_total_;
}

std::int64_t JobJournal::compactions_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return compactions_total_;
}

std::int64_t JobJournal::write_errors_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_errors_;
}

}  // namespace netalign::server
