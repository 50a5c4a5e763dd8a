// A netalign_server child process for the benchmark: launched with its own
// socket and work directory, ready once it answers `ping`, stopped with a
// drain `shutdown` and reaped (SIGKILL if it does not exit in time).
#pragma once

#include <sys/types.h>

#include <string>

#include "layers.hpp"
#include "obs/json.hpp"
#include "server/client.hpp"

namespace perfbench {

/// Launch options; a count left at 0 is not passed, so the daemon uses its
/// own default.
struct DaemonOptions {
  std::string server_bin;
  std::string dir;  ///< socket, log and journal live here (created fresh)
  int workers = 0;
  int threads = 0;  ///< OpenMP threads of each solve
  int queue_cap = 0;
  int tenant_queue_cap = 0;
};

class Daemon {
 public:
  /// Spawn and wait until `ping` is answered; throws on failure.
  explicit Daemon(const DaemonOptions& options);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Launch to first answered `ping`, in seconds.
  [[nodiscard]] double ready_seconds() const { return ready_seconds_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// One `stats` snapshot.
  [[nodiscard]] netalign::obs::JsonValue stats();
  /// Requests this object sent itself (the launch `ping`, `stats` calls),
  /// so callers can tell the daemon's `server.requests` apart from them.
  [[nodiscard]] int own_requests() const { return own_requests_; }
  /// Drain shutdown and reap; returns true on a clean exit 0.
  bool stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double ready_seconds_ = 0.0;
  int own_requests_ = 0;
};

/// A `submit` request line for `spec`; `field` is "problem_path" or
/// "problem" (inline text).
std::string submit_request(const SolveSpec& spec, const std::string& field,
                           const std::string& value, const std::string& tenant);

/// A job's answer: its terminal state and, when done, the result fields.
struct JobOutcome {
  std::string state;          ///< "done", "failed", "cancelled" or "refused"
  double total_seconds = 0;   ///< the server's solve time
  double objective = 0;
  std::string pairs;          ///< the result's `pairs`, re-serialized
};

/// Read a terminal job's outcome (`result` for done jobs).
JobOutcome fetch_outcome(netalign::server::ServerClient& client,
                         std::int64_t job, const std::string& state);

/// `stats.counters[name]` as a number (0 when absent).
double stats_counter(const netalign::obs::JsonValue& stats,
                     const std::string& name);

}  // namespace perfbench
