// netalign_server: the alignment-as-a-service daemon.
//
// Listens on an AF_UNIX socket or a TCP port for newline-delimited JSON
// requests (protocol spec: docs/SERVER.md), runs alignment jobs on a
// bounded worker pool with an LRU cache of parsed problems + squares
// matrices, and streams solver progress by re-serving each job's trace
// events, buffered in memory. TCP listeners require --auth-token-file;
// see docs/SERVER.md "Transports & network hardening".
//
// Examples:
//   netalign_server --socket /tmp/netalign.sock --workers 2
//       --work-dir /tmp/netalign-jobs &
//   netalign client ping --socket /tmp/netalign.sock
//
//   netalign_server --listen tcp:127.0.0.1:4455 --auth-token-file tok
//       --idle-timeout-ms 30000 --max-conns 256 --work-dir /tmp/jobs &
//   netalign client ping --connect tcp:127.0.0.1:4455 --auth-token-file tok
//
// SIGTERM/SIGINT trigger a drain shutdown: no new submits, queued and
// running jobs finish, then the daemon exits and removes the socket.
#include <cstdio>
#include <exception>
#include <string>

#include "server/server.hpp"
#include "server/transport.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/stop.hpp"

using namespace netalign;

int main(int argc, char** argv) try {
  CliParser cli(
      "netalign_server: serve alignment jobs over a local socket.\n"
      "Wire protocol: newline-delimited JSON, documented in docs/SERVER.md.");
  auto& socket_path = cli.add_string(
      "socket", "", "AF_UNIX socket path (shorthand for --listen unix:<path>)");
  auto& listen = cli.add_string(
      "listen", "",
      "endpoint to serve on: unix:<path> or tcp:<host>:<port> (port 0 = "
      "ephemeral; the bound port is printed on startup)");
  auto& auth_token_file = cli.add_string(
      "auth-token-file", "",
      "file whose first line is the shared auth token (required for tcp: "
      "listeners; clients authenticate per connection)");
  auto& idle_timeout_ms = cli.add_int(
      "idle-timeout-ms", 0,
      "drop connections with no socket activity for this long (0 = never)");
  auto& max_conns = cli.add_int(
      "max-conns", 0,
      "max simultaneous connections; overflow is refused with a rejected "
      "error (0 = unlimited)");
  auto& workers = cli.add_int("workers", 2, "solver worker threads");
  auto& queue_cap = cli.add_int(
      "queue-cap", 16, "max queued jobs before submits are rejected");
  auto& tenant_queue_cap = cli.add_int(
      "tenant-queue-cap", 8,
      "max queued jobs per tenant before quota_exceeded");
  auto& tenant_running_cap = cli.add_int(
      "tenant-running-cap", 0,
      "max concurrently running jobs per tenant (0 = no cap)");
  auto& drr_quantum = cli.add_int(
      "drr-quantum", 100,
      "iteration-credits per tenant per fair-scheduling pass");
  auto& retained_cap = cli.add_int(
      "retained-cap", 256,
      "finished jobs kept before LRU eviction (then: expired)");
  auto& cache_cap = cli.add_int(
      "cache-cap", 8, "LRU capacity: parsed problems + squares matrices");
  auto& max_request = cli.add_int(
      "max-request-bytes", static_cast<int64_t>(server::kDefaultMaxRequestBytes),
      "largest accepted request line");
  auto& max_output = cli.add_int(
      "max-output-bytes", 16 << 20,
      "per-connection unread response backlog before the client is dropped");
  auto& max_problem = cli.add_int(
      "max-problem-bytes", 1 << 30,
      "largest problem_path file a worker will read");
  auto& work_dir = cli.add_string(
      "work-dir", "",
      "directory for the journal, checkpoints and problem spills (required)");
  auto& journal = cli.add_bool(
      "journal", true,
      "write-ahead job journal in --work-dir (--no-journal = volatile jobs)");
  auto& journal_fsync = cli.add_bool(
      "journal-fsync", false,
      "fsync every journal append, not just terminal records");
  auto& recover = cli.add_bool(
      "recover", true,
      "replay the journal at startup (--no-recover discards prior jobs)");
  auto& checkpoint_every = cli.add_int(
      "checkpoint-every", 25,
      "solver-checkpoint cadence for running jobs, in iterations (0 = off)");
  auto& squares_mode = cli.add_string(
      "squares-mode", "explicit",
      "default squares backend for submits without one: explicit | implicit "
      "| auto");
  auto& squares_max_mb = cli.add_int(
      "squares-max-mb", 2048,
      "auto-mode threshold: explicit squares estimate (MiB) beyond which "
      "jobs build the implicit backend, if that is smaller");
  auto& threads = cli.add_int("threads", 0, "OpenMP threads (0 = default)");
  if (!cli.parse(argc, argv)) return 0;
  if ((socket_path.empty() == listen.empty()) || work_dir.empty()) {
    std::fprintf(stderr,
                 "netalign_server: --work-dir and exactly one of --socket / "
                 "--listen are required\n");
    return 2;
  }
  if (workers < 1 || queue_cap < 1 || tenant_queue_cap < 1 ||
      tenant_running_cap < 0 || drr_quantum < 1 || retained_cap < 1 ||
      cache_cap < 1 || max_request < 1 || max_output < 1 ||
      max_problem < 1 || checkpoint_every < 0 || squares_max_mb < 1 ||
      idle_timeout_ms < 0 || max_conns < 0) {
    std::fprintf(stderr, "netalign_server: flag out of range\n");
    return 2;
  }
  if (squares_mode != "explicit" && squares_mode != "implicit" &&
      squares_mode != "auto") {
    std::fprintf(stderr,
                 "netalign_server: --squares-mode must be explicit | "
                 "implicit | auto\n");
    return 2;
  }
  if (threads > 0) set_threads(static_cast<int>(threads));

  const std::string spec =
      listen.empty() ? "unix:" + std::string(socket_path) : std::string(listen);
  server::Endpoint endpoint;
  std::string endpoint_error;
  if (!server::parse_endpoint(spec, endpoint, endpoint_error)) {
    std::fprintf(stderr, "netalign_server: %s\n", endpoint_error.c_str());
    return 2;
  }
  std::string auth_token;
  if (!auth_token_file.empty()) {
    auth_token = server::load_auth_token(auth_token_file);
  }
  if (endpoint.kind == server::Endpoint::Kind::kTcp && auth_token.empty()) {
    std::fprintf(stderr,
                 "netalign_server: tcp listeners require --auth-token-file "
                 "(unix sockets are guarded by filesystem permissions; a TCP "
                 "port is not)\n");
    return 2;
  }

  server::ServerOptions options;
  options.listen = spec;
  options.auth_token = auth_token;
  options.idle_timeout_ms = idle_timeout_ms;
  options.max_conns = static_cast<std::size_t>(max_conns);
  options.workers = static_cast<int>(workers);
  options.queue_cap = static_cast<std::size_t>(queue_cap);
  options.tenant_queue_cap = static_cast<std::size_t>(tenant_queue_cap);
  options.tenant_running_cap = static_cast<int>(tenant_running_cap);
  options.drr_quantum = drr_quantum;
  options.retained_cap = static_cast<std::size_t>(retained_cap);
  options.cache_cap = static_cast<std::size_t>(cache_cap);
  options.max_request_bytes = static_cast<std::size_t>(max_request);
  options.max_output_bytes = static_cast<std::size_t>(max_output);
  options.max_problem_bytes = static_cast<std::size_t>(max_problem);
  options.work_dir = work_dir;
  options.journal = journal;
  options.journal_fsync = journal_fsync;
  options.recover = recover;
  options.checkpoint_every = checkpoint_every;
  options.squares_mode = squares_mode;
  options.squares_max_mb = static_cast<std::uint64_t>(squares_max_mb);
  options.stop_flag = install_stop_signal_handlers();

  server::Server srv(options);
  // run() prints the authoritative "serving on <spec>" line once the
  // listener is bound (the kernel picks the port for tcp:...:0).
  std::printf("netalign_server: starting (%lld workers, queue %lld, "
              "cache %lld)\n",
              static_cast<long long>(workers),
              static_cast<long long>(queue_cap),
              static_cast<long long>(cache_cap));
  std::fflush(stdout);
  const int rc = srv.run();
  std::printf("netalign_server: exiting (rc=%d)\n", rc);
  return rc;
} catch (const std::exception& e) {
  std::fprintf(stderr, "netalign_server: error: %s\n", e.what());
  return 1;
}
