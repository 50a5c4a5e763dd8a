#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "util/timer.hpp"

extern char** environ;

namespace perfbench {

namespace {

// Wait up to `timeout_s` for the child to exit; true when reaped.
bool wait_exit(pid_t pid, double timeout_s, int* status) {
  netalign::WallTimer t;
  while (t.seconds() < timeout_s) {
    const pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0) return true;  // already reaped
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace

Daemon::Daemon(const DaemonOptions& options) {
  std::filesystem::remove_all(options.dir);
  std::filesystem::create_directories(options.dir);
  // A unix socket path is limited to about 100 bytes; the relative form
  // keeps it short however deep the checkout sits.
  socket_ = std::filesystem::relative(options.dir).string() + "/na.sock";
  const std::string log = options.dir + "/server.log";
  std::vector<std::string> args = {
      options.server_bin,
      "--socket", socket_,
      "--work-dir", options.dir};
  const std::pair<const char*, int> counts[] = {
      {"--workers", options.workers},
      {"--threads", options.threads},
      {"--queue-cap", options.queue_cap},
      {"--tenant-queue-cap", options.tenant_queue_cap}};
  for (const auto& [flag, value] : counts) {
    if (value > 0) {
      args.push_back(flag);
      args.push_back(std::to_string(value));
    }
  }
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  netalign::WallTimer launch;
  const int rc = posix_spawn(&pid_, options.server_bin.c_str(), &actions,
                             nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + options.server_bin);
  }
  while (true) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("netalign_server exited during startup; see " +
                               log);
    }
    try {
      netalign::server::ServerClient client(socket_);
      const auto pong = client.call("{\"method\":\"ping\"}");
      ++own_requests_;
      const auto* ok = pong.find("ok");
      if (ok != nullptr && ok->as_bool()) break;
    } catch (const std::exception&) {
      // not listening yet
    }
    if (launch.seconds() > 30.0) {
      kill(pid_, SIGKILL);
      wait_exit(pid_, 5.0, &status);
      pid_ = -1;
      throw std::runtime_error("netalign_server did not answer ping");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ready_seconds_ = launch.seconds();
}

Daemon::~Daemon() { stop(); }

netalign::obs::JsonValue Daemon::stats() {
  netalign::server::ServerClient client(socket_);
  ++own_requests_;
  return client.call("{\"method\":\"stats\"}");
}

bool Daemon::stop() {
  if (pid_ < 0) return true;
  try {
    netalign::server::ServerClient client(socket_);
    client.call("{\"method\":\"shutdown\"}");
  } catch (const std::exception&) {
    // fall through to the kill below if it does not exit
  }
  int status = 0;
  bool clean = wait_exit(pid_, 60.0, &status);
  if (!clean) {
    kill(pid_, SIGKILL);
    wait_exit(pid_, 10.0, &status);
  }
  pid_ = -1;
  return clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string submit_request(const SolveSpec& spec, const std::string& field,
                           const std::string& value, const std::string& tenant) {
  std::string s = "{\"method\":\"submit\",\"" + field + "\":";
  netalign::obs::append_json_string(s, value);
  s += ",\"solver\":\"" + spec.solver + "\",\"matcher\":\"" + spec.matcher +
       "\",\"iters\":" + std::to_string(spec.iters) +
       ",\"batch\":" + std::to_string(spec.batch) + ",\"tenant\":";
  netalign::obs::append_json_string(s, tenant);
  return s + "}";
}

JobOutcome fetch_outcome(netalign::server::ServerClient& client,
                         std::int64_t job, const std::string& state) {
  JobOutcome out;
  out.state = state;
  if (state != "done") return out;
  const auto res = client.call("{\"method\":\"result\",\"job\":" +
                               std::to_string(job) + "}");
  const auto* pairs = res.find("pairs");
  const auto* total = res.find("total_seconds");
  const auto* objective = res.find("objective");
  if (pairs == nullptr || total == nullptr || objective == nullptr) {
    out.state = "failed";
    return out;
  }
  netalign::obs::write_json(out.pairs, *pairs);
  out.total_seconds = total->as_number();
  out.objective = objective->as_number();
  return out;
}

double stats_counter(const netalign::obs::JsonValue& stats,
                     const std::string& name) {
  const auto* counters = stats.find("counters");
  if (counters == nullptr) return 0.0;
  const auto* v = counters->find(name);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace perfbench
