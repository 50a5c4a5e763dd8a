// The alignment daemon's front end: an AF_UNIX or TCP stream listener
// (server/transport.*) speaking the newline-delimited JSON protocol of
// docs/SERVER.md, one request per line, one response line per request.
//
// The socket loop is single-threaded (poll over listener + connections);
// all heavy work happens on the JobManager's worker pool, so a request is
// never blocked behind a solve. Connections are independent: any client
// may poll any job id, which is what lets `netalign client submit` and a
// later `netalign client result` be separate processes.
//
// Network hardening (docs/SERVER.md "Transports & network hardening"):
// TCP listeners require an auth token (connection-level `auth` method,
// constant-time compare); `idle_timeout_ms` reaps connections stalled
// mid-frame; `max_conns` refuses the overflow with a `rejected` error
// line instead of letting accept backlog grow unbounded.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>

#include "obs/counters.hpp"
#include "server/cache.hpp"
#include "server/jobs.hpp"

namespace netalign::server {

struct ServerOptions {
  /// Endpoint spec: `unix:<path>` or `tcp:<host>:<port>` (a TCP port of
  /// 0 binds an ephemeral port; `bound_address()` reports the real one).
  /// Empty falls back to `unix:` + socket_path.
  std::string listen;
  std::string socket_path;            ///< legacy --socket AF_UNIX path
  /// Required for TCP listeners (a TCP daemon without one refuses to
  /// start); unix connections are pre-authenticated by filesystem
  /// permissions. Compared constant-time against the `auth` method.
  std::string auth_token;
  /// Reap a connection with no socket activity for this long -- the
  /// slowloris defense (a peer parked mid-frame holds buffer memory
  /// forever otherwise). 0 = never reap.
  std::int64_t idle_timeout_ms = 0;
  /// Max simultaneous connections; the overflow connection is answered
  /// with a `rejected` error line and closed (server.conns_rejected).
  /// 0 = unlimited.
  std::size_t max_conns = 0;
  int workers = 2;                    ///< solver worker threads
  std::size_t queue_cap = 16;         ///< admission-control bound
  std::size_t tenant_queue_cap = 8;   ///< per-tenant queued-jobs quota
  int tenant_running_cap = 0;         ///< per-tenant running cap (0 = none)
  std::int64_t drr_quantum = 100;     ///< DRR iteration-credits per pass
  std::size_t retained_cap = 256;     ///< terminal jobs kept before eviction
  std::size_t cache_cap = 8;          ///< LRU problem/squares entries
  std::size_t max_request_bytes = kDefaultMaxRequestBytes;
  /// Cap on one connection's unread response backlog; a client that
  /// stops reading past it is dropped (server.slow_clients_dropped).
  std::size_t max_output_bytes = 16u << 20;
  /// Byte cap on a problem_path file read by a worker.
  std::size_t max_problem_bytes = 1u << 30;
  std::string work_dir;               ///< journal + job files (required)
  bool journal = true;                ///< write-ahead job journal in work_dir
  bool journal_fsync = false;         ///< fsync every append, not just terminals
  bool recover = true;                ///< replay the journal at startup
  std::int64_t checkpoint_every = 25; ///< solver-checkpoint cadence (0 = off)
  /// Default squares backend for submits without a `squares_mode` field:
  /// "explicit" | "implicit" | "auto" (docs/SERVER.md "Memory model").
  std::string squares_mode = "explicit";
  /// `auto` threshold in MiB on the explicit squares-structure estimate.
  std::uint64_t squares_max_mb = 2048;
  /// External stop latch (SIGTERM/SIGINT); treated as `shutdown now=false`
  /// (drain) when it fires. Nullable.
  const std::atomic<bool>* stop_flag = nullptr;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and serve until a shutdown request (or the stop
  /// latch) and, for drain shutdowns, until queued/running jobs finish.
  /// Returns 0 on clean exit, nonzero on a socket-layer error.
  int run();

  [[nodiscard]] const obs::Counters& counters() const { return counters_; }

  /// The endpoint spec actually bound ("tcp:127.0.0.1:45123"), or empty
  /// before the listener is up. Safe to call from other threads while
  /// run() is executing -- tests and in-process daemons use it to learn
  /// the kernel-assigned port after `tcp:host:0`.
  [[nodiscard]] std::string bound_address() const;

 private:
  /// One response line (no trailing newline) for one request line.
  /// `authed` is the connection's auth state (an `auth` line with the
  /// right token flips it; unauthenticated requests other than ping/auth
  /// are refused); `close_conn` asks the loop to hang up after flushing
  /// (wrong token).
  std::string handle_line(std::string_view line, bool& authed,
                          bool& close_conn);

  /// `expired` for an evicted id, `not_found` for a never-issued one.
  std::string not_found_response(const std::string& id_json,
                                 std::int64_t job);

  std::string handle(const Request& req);
  std::string handle_submit(const Request& req);
  std::string handle_status(const Request& req);
  std::string handle_progress(const Request& req);
  std::string handle_result(const Request& req);
  std::string handle_cancel(const Request& req);
  std::string handle_stats(const Request& req);
  std::string handle_shutdown(const Request& req);

  ServerOptions options_;
  obs::Counters counters_;
  ProblemCache cache_;
  JobManager jobs_;
  bool shutdown_requested_ = false;
  bool shutdown_now_ = false;
  mutable std::mutex bound_mu_;
  std::string bound_;  ///< set once the listener is up (bound_address())
};

}  // namespace netalign::server
