// netalign command-line driver.
//
// Subcommands:
//   generate   make a synthetic instance / dataset stand-in, save it
//   stats      report a problem file's statistics (Table-II style)
//   align      run MR / BP / IsoRank on a problem file, optionally save
//              the matching
//   match      max-weight matching of L alone with any matcher
//   client     talk to a running netalign_server (docs/SERVER.md)
//
// Examples:
//   netalign generate --type powerlaw --n 400 --dbar 8 --out p.nap
//   netalign generate --type standin --dataset lcsh-wiki --scale 0.05
//       --out wiki.nap
//   netalign stats --problem p.nap
//   netalign align --problem p.nap --method bp --matcher approx
//       --iters 200 --save-matching out.match
//   netalign match --problem p.nap --matcher exact
//   netalign client submit --socket /tmp/na.sock --problem p.nap --wait
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "graph/algorithms.hpp"
#include "io/matching_io.hpp"
#include "io/problem_io.hpp"
#include "netalign/belief_prop.hpp"
#include "netalign/isorank.hpp"
#include "netalign/klau_mr.hpp"
#include "netalign/synthetic.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/stop.hpp"
#include "util/table.hpp"

using namespace netalign;

namespace {

int cmd_generate(int argc, char** argv) {
  CliParser cli("netalign generate: create an alignment problem file.");
  auto& type = cli.add_string(
      "type", "powerlaw", "instance family: powerlaw | ontology | standin");
  auto& n = cli.add_int("n", 400, "vertices (powerlaw/ontology)");
  auto& dbar = cli.add_double("dbar", 4.0, "expected random L-degree");
  auto& dataset = cli.add_string("dataset", "dmela-scere",
                                 "standin dataset (Table II name)");
  auto& scale = cli.add_double("scale", 1.0, "standin scale (0, 1]");
  auto& seed = cli.add_int("seed", 42, "random seed");
  auto& alpha = cli.add_double("alpha", 1.0, "objective alpha");
  auto& beta = cli.add_double("beta", 2.0, "objective beta");
  auto& out = cli.add_string("out", "problem.nap", "output path");
  if (!cli.parse(argc, argv)) return 0;

  NetAlignProblem problem;
  if (type == "powerlaw") {
    PowerLawInstanceOptions opt;
    opt.n = static_cast<vid_t>(n);
    opt.expected_degree = dbar;
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.alpha = alpha;
    opt.beta = beta;
    problem = make_power_law_instance(opt).problem;
  } else if (type == "ontology") {
    OntologyInstanceOptions opt;
    opt.n = static_cast<vid_t>(n);
    opt.expected_degree = dbar;
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.alpha = alpha;
    opt.beta = beta;
    problem = make_ontology_instance(opt).problem;
  } else if (type == "standin") {
    StandInSpec spec;
    bool found = false;
    for (const auto& s : paper_table2_specs()) {
      if (s.name == dataset) {
        spec = s;
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown dataset '%s'\n", dataset.c_str());
      return 1;
    }
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.alpha = alpha;
    spec.beta = beta;
    problem = make_standin_problem(spec, scale);
  } else {
    std::fprintf(stderr, "unknown --type '%s'\n", type.c_str());
    return 1;
  }
  write_problem_file(out, problem);
  std::printf("wrote %s: |V_A|=%d |V_B|=%d |E_L|=%lld\n", out.c_str(),
              problem.A.num_vertices(), problem.B.num_vertices(),
              static_cast<long long>(problem.L.num_edges()));
  return 0;
}

int cmd_stats(int argc, char** argv) {
  CliParser cli("netalign stats: summarize a problem file.");
  auto& path = cli.add_string("problem", "", "problem file (required)");
  auto& with_squares =
      cli.add_bool("squares", true, "also build S and report nnz(S)");
  if (!cli.parse(argc, argv)) return 0;
  const NetAlignProblem p = read_problem_file(path);

  TextTable table({"quantity", "value"});
  table.add_row({"name", p.name});
  table.add_row({"alpha", TextTable::fixed(p.alpha, 3)});
  table.add_row({"beta", TextTable::fixed(p.beta, 3)});
  table.add_row({"|V_A|", TextTable::num(p.A.num_vertices())});
  table.add_row({"|V_B|", TextTable::num(p.B.num_vertices())});
  table.add_row({"|E_A|", TextTable::num(p.A.num_edges())});
  table.add_row({"|E_B|", TextTable::num(p.B.num_edges())});
  table.add_row({"|E_L|", TextTable::num(p.L.num_edges())});
  const auto da = degree_stats(p.A);
  const auto db = degree_stats(p.B);
  table.add_row({"A mean degree", TextTable::fixed(da.mean, 2)});
  table.add_row({"B mean degree", TextTable::fixed(db.mean, 2)});
  table.add_row({"A max degree", TextTable::num(da.max)});
  table.add_row({"B max degree", TextTable::num(db.max)});
  table.add_row(
      {"A components", TextTable::num(connected_components(p.A).count)});
  table.add_row(
      {"B components", TextTable::num(connected_components(p.B).count)});
  if (with_squares) {
    const auto S = SquaresMatrix::build(p);
    table.add_row({"nnz(S)", TextTable::num(S.num_nonzeros())});
    table.add_row({"squares", TextTable::num(S.num_squares())});
  }
  table.print();
  return 0;
}

int cmd_align(int argc, char** argv) {
  CliParser cli("netalign align: run an alignment method on a problem.");
  auto& path = cli.add_string("problem", "", "problem file (required)");
  auto& method = cli.add_string(
      "method", "bp", "alignment method: bp | mr | isorank");
  auto& matcher_name = cli.add_string(
      "matcher", "approx", "exact | approx | greedy | suitor | auction | pga");
  auto& iters = cli.add_int("iters", 200, "iterations");
  auto& batch = cli.add_int("batch", 1, "BP rounding batch size");
  auto& gamma = cli.add_double("gamma", 0.0,
                               "damping / step size (0 = method default)");
  auto& threads = cli.add_int("threads", 0, "OpenMP threads (0 = default)");
  auto& squares_mode_name = cli.add_string(
      "squares-mode", "explicit",
      "squares backend: explicit | implicit | auto "
      "(docs/ARCHITECTURE.md \"Memory model & implicit squares\")");
  auto& squares_max_mb = cli.add_int(
      "squares-max-mb", 2048,
      "auto squares mode: switch to implicit when the explicit S estimate "
      "exceeds this many MiB and the implicit estimate is smaller");
  auto& save = cli.add_string("save-matching", "", "write the matching here");
  auto& verbose = cli.add_bool("steps", false, "print per-step timings");
  auto& history = cli.add_string(
      "history", "", "write the objective history to this CSV");
  auto& ckpt_out = cli.add_string(
      "checkpoint-out", "",
      "write checkpoints here (atomic; previous generation kept at .prev)");
  auto& ckpt_every = cli.add_int(
      "checkpoint-every", 1, "checkpoint every N iterations");
  auto& resume = cli.add_string(
      "resume", "", "resume from this checkpoint (bit-identical continuation)");
  auto& deadline = cli.add_double(
      "deadline-seconds", 0.0,
      "stop after this many seconds with the best-so-far matching (0 = off)");
  const ObsFlags obs_flags = add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  if (threads > 0) set_threads(static_cast<int>(threads));

  SolveBudget budget;
  budget.checkpoint_path = ckpt_out;
  budget.checkpoint_every =
      ckpt_out.empty() ? 0 : static_cast<int>(ckpt_every);
  budget.resume_path = resume;
  budget.deadline_seconds = deadline;
  // SIGTERM/SIGINT latch a stop flag the solvers poll once per iteration:
  // the run then ends like a deadline -- final checkpoint, best-so-far
  // result, clean exit -- instead of dying mid-iteration.
  budget.stop_flag = install_stop_signal_handlers();

  const NetAlignProblem p = read_problem_file(path);
  const SquaresMode squares_mode = squares_mode_from_string(squares_mode_name);
  SquaresBackendOptions squares_opts;
  squares_opts.mode = squares_mode;
  squares_opts.budget_bytes = static_cast<std::uint64_t>(squares_max_mb) << 20;
  // IsoRank never reads S transposed; skip the counting-cursor tables.
  squares_opts.transpose_support = method != "isorank";
  const SquaresBackend backend = build_squares_backend(p, squares_opts);
  const SquaresView S = backend.view();
  if (squares_mode != SquaresMode::kExplicit) {
    std::printf("squares: mode=%s (requested %s), nnz=%lld, "
                "explicit estimate %.1f MiB, resident structure %.1f MiB\n",
                backend.mode_name().c_str(), squares_mode_name.c_str(),
                static_cast<long long>(backend.nnz),
                static_cast<double>(backend.explicit_bytes) / (1 << 20),
                static_cast<double>(backend.structure_bytes()) / (1 << 20));
  }
  const MatcherKind matcher = matcher_from_string(matcher_name);

  std::unique_ptr<obs::TraceWriter> trace;
  if (!obs_flags.trace_out.empty()) {
    trace = std::make_unique<obs::TraceWriter>(obs_flags.trace_out);
  }
  obs::Counters counters;
  obs::Counters* const counters_ptr = obs_flags.counters ? &counters : nullptr;
  if (trace) {
    trace->run_start(method, {{"problem", p.name},
                              {"matcher", matcher_name},
                              {"iters", iters},
                              {"squares_mode", backend.mode_name()}});
  }

  AlignResult r;
  if (method == "bp") {
    BeliefPropOptions opt;
    opt.max_iterations = static_cast<int>(iters);
    opt.matcher = matcher;
    opt.batch_size = static_cast<int>(batch);
    if (gamma > 0.0) opt.gamma = gamma;
    opt.trace = trace.get();
    opt.counters = counters_ptr;
    opt.budget = budget;
    r = belief_prop_align(p, S, opt);
  } else if (method == "mr") {
    KlauMrOptions opt;
    opt.max_iterations = static_cast<int>(iters);
    opt.matcher = matcher;
    if (gamma > 0.0) opt.gamma = gamma;
    opt.trace = trace.get();
    opt.counters = counters_ptr;
    opt.budget = budget;
    r = klau_mr_align(p, S, opt);
  } else if (method == "isorank") {
    IsoRankOptions opt;
    opt.max_iterations = static_cast<int>(iters);
    opt.matcher = matcher;
    if (gamma > 0.0) opt.gamma = gamma;
    opt.trace = trace.get();
    opt.counters = counters_ptr;
    opt.budget = budget;
    r = isorank_align(p, S, opt);
  } else {
    std::fprintf(stderr, "unknown --method '%s'\n", method.c_str());
    return 1;
  }

  if (obs_flags.counters && backend.is_implicit()) {
    // Enumeration volume for this process's whole run (build + solve);
    // docs/OBSERVABILITY.md "squares.implicit_*". Published before
    // run_end so the counters land in the trace too.
    backend.implicit->publish_counters(counters_ptr);
  }
  if (trace) {
    obs::TraceWriter::Fields extra{
        {"stopped_reason", to_string(r.stopped_reason)},
        {"iterations_completed", r.iterations_completed}};
    if (r.resumed_from > 0) extra.emplace_back("resumed_from", r.resumed_from);
    trace->run_end(r.total_seconds, r.value.objective, r.best_iteration,
                   counters_ptr, extra);
  }

  std::printf("%s on %s: objective=%.3f (weight=%.3f, overlap=%.0f), "
              "%lld matches, best at iteration %d, %d iterations (%s), "
              "%.2fs\n",
              method.c_str(), p.name.c_str(), r.value.objective,
              r.value.weight, r.value.overlap,
              static_cast<long long>(r.matching.cardinality),
              r.best_iteration, r.iterations_completed,
              to_string(r.stopped_reason), r.total_seconds);
  if (obs_flags.counters) {
    TextTable ctable({"counter", "value"});
    for (const auto& name : counters.names()) {
      ctable.add_row({name, TextTable::num(counters.total(name))});
    }
    ctable.print();
  }
  if (verbose) {
    TextTable table({"step", "seconds", "fraction"});
    for (const auto& step : r.timers.names()) {
      table.add_row({step, TextTable::fixed(r.timers.total(step), 3),
                     TextTable::pct(r.timers.fraction(step))});
    }
    table.print();
  }
  if (!history.empty()) {
    TextTable h(r.upper_history.empty()
                    ? std::vector<std::string>{"event", "objective"}
                    : std::vector<std::string>{"event", "objective",
                                               "upper_bound"});
    for (std::size_t i = 0; i < r.objective_history.size(); ++i) {
      if (r.upper_history.empty()) {
        h.add_row({TextTable::num(static_cast<int64_t>(i)),
                   TextTable::fixed(r.objective_history[i], 6)});
      } else {
        h.add_row({TextTable::num(static_cast<int64_t>(i)),
                   TextTable::fixed(r.objective_history[i], 6),
                   TextTable::fixed(r.upper_history[i], 6)});
      }
    }
    h.write_csv(history);
    std::printf("history written to %s\n", history.c_str());
  }
  if (!save.empty()) {
    write_matching_file(save, r.matching);
    std::printf("matching written to %s\n", save.c_str());
  }
  return 0;
}

int cmd_match(int argc, char** argv) {
  CliParser cli("netalign match: max-weight matching of L alone.");
  auto& path = cli.add_string("problem", "", "problem file (required)");
  auto& matcher_name = cli.add_string(
      "matcher", "approx", "exact | approx | greedy | suitor | auction | pga");
  auto& save = cli.add_string("save-matching", "", "write the matching here");
  auto& want_counters =
      cli.add_bool("counters", false, "print the matcher's counter registry");
  if (!cli.parse(argc, argv)) return 0;
  const NetAlignProblem p = read_problem_file(path);
  const std::vector<weight_t> w(p.L.weights().begin(), p.L.weights().end());
  WallTimer t;
  obs::Counters counters;
  const auto m = run_matcher(p.L, w, matcher_from_string(matcher_name),
                             want_counters ? &counters : nullptr);
  std::printf("%s matching: weight=%.3f cardinality=%lld in %.3fs\n",
              matcher_name.c_str(), m.weight,
              static_cast<long long>(m.cardinality), t.seconds());
  if (want_counters) {
    for (const auto& name : counters.names()) {
      std::printf("  %-36s %lld\n", name.c_str(),
                  static_cast<long long>(counters.total(name)));
    }
  }
  if (!save.empty()) {
    write_matching_file(save, m);
    std::printf("matching written to %s\n", save.c_str());
  }
  return 0;
}

/// Compact JSON object builder for client requests (the server side uses
/// server::ResponseBuilder; requests are plain objects without the
/// ok/id envelope, hence this little sibling).
struct JsonObj {
  std::string buf = "{";
  bool first = true;
  void key(std::string_view k) {
    if (!first) buf.push_back(',');
    first = false;
    obs::append_json_string(buf, k);
    buf.push_back(':');
  }
  JsonObj& add(std::string_view k, std::string_view v) {
    key(k);
    obs::append_json_string(buf, v);
    return *this;
  }
  // String literals must not fall into the bool overload (pointer -> bool
  // is a standard conversion and would beat string_view).
  JsonObj& add(std::string_view k, const char* v) {
    return add(k, std::string_view(v));
  }
  JsonObj& add(std::string_view k, std::int64_t v) {
    key(k);
    obs::append_json_number(buf, v);
    return *this;
  }
  JsonObj& add(std::string_view k, double v) {
    key(k);
    obs::append_json_number(buf, v);
    return *this;
  }
  JsonObj& add(std::string_view k, bool v) {
    key(k);
    buf += v ? "true" : "false";
    return *this;
  }
  std::string str() && {
    buf.push_back('}');
    return std::move(buf);
  }
};

/// Rebuild the matching from a `result` response and save it with the
/// same writer the one-shot CLI uses, so the file is byte-identical to a
/// local `netalign align --save-matching` of the same job.
void save_matching_from_result(const obs::JsonValue& doc,
                               const std::string& path) {
  const obs::JsonValue* num_a = doc.find("num_a");
  const obs::JsonValue* num_b = doc.find("num_b");
  const obs::JsonValue* pairs = doc.find("pairs");
  if (num_a == nullptr || num_b == nullptr || pairs == nullptr ||
      !pairs->is_array()) {
    throw std::runtime_error("result response lacks num_a/num_b/pairs");
  }
  BipartiteMatching m;
  m.mate_a.assign(static_cast<std::size_t>(num_a->as_number()), kInvalidVid);
  m.mate_b.assign(static_cast<std::size_t>(num_b->as_number()), kInvalidVid);
  for (const obs::JsonValue& pair : pairs->items()) {
    if (!pair.is_array() || pair.items().size() != 2) {
      throw std::runtime_error("malformed pair in result response");
    }
    const auto a = static_cast<vid_t>(pair.items()[0].as_number());
    const auto b = static_cast<vid_t>(pair.items()[1].as_number());
    m.mate_a[static_cast<std::size_t>(a)] = b;
    m.mate_b[static_cast<std::size_t>(b)] = a;
    m.cardinality += 1;
  }
  write_matching_file(path, m);
  std::printf("matching written to %s\n", path.c_str());
}

/// A fresh idempotency token for `submit --retry`: unique across
/// processes and invocations is all that matters, not unpredictability.
std::string make_request_id() {
  std::random_device rd;
  const std::uint64_t hi =
      (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  const std::uint64_t lo = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "cli-%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

bool response_ok(const obs::JsonValue& doc) {
  const obs::JsonValue* ok = doc.find("ok");
  return ok != nullptr && ok->type() == obs::JsonValue::Type::kBool &&
         ok->as_bool();
}

std::string response_state(const obs::JsonValue& doc) {
  const obs::JsonValue* state = doc.find("state");
  return state != nullptr && state->is_string() ? state->as_string() : "";
}

int cmd_client(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(
        "usage: netalign client "
        "<ping|submit|status|progress|result|cancel|stats|shutdown> "
        "--socket PATH | --connect tcp:HOST:PORT [flags...]\n",
        stderr);
    return 1;
  }
  const std::string action = argv[1];
  CliParser cli("netalign client " + action +
                ": talk to a running netalign_server (docs/SERVER.md).");
  auto& socket = cli.add_string(
      "socket", "", "server AF_UNIX socket path (or use --connect)");
  auto& connect = cli.add_string(
      "connect", "",
      "server endpoint: unix:<path> or tcp:<host>:<port> (overrides "
      "--socket)");
  auto& auth_token_file = cli.add_string(
      "auth-token-file", "",
      "file whose first line is the auth token (required for tcp: servers)");
  auto& problem = cli.add_string(
      "problem", "", "problem file, sent inline (submit)");
  auto& solver = cli.add_string(
      "solver", "bp", "bp | mr | isorank (submit)");
  auto& matcher = cli.add_string(
      "matcher", "approx",
      "exact | approx | greedy | suitor | auction | pga (submit)");
  auto& iters = cli.add_int("iters", 100, "iterations (submit)");
  auto& batch = cli.add_int("batch", 1, "BP rounding batch size (submit)");
  auto& gamma = cli.add_double(
      "gamma", 0.0, "damping / step size, 0 = method default (submit)");
  auto& squares_mode_name = cli.add_string(
      "squares-mode", "",
      "squares backend: explicit | implicit | auto; empty = server default "
      "(submit)");
  auto& deadline = cli.add_double(
      "deadline-seconds", 0.0, "server-side deadline, 0 = none (submit)");
  auto& tag = cli.add_string("tag", "", "free-form job label (submit)");
  auto& tenant = cli.add_string(
      "tenant", "", "fair-scheduling tenant bucket (submit; default tenant)");
  auto& wait = cli.add_bool(
      "wait", false, "submit: poll until the job finishes, print the result");
  auto& job = cli.add_int(
      "job", -1, "job id (status/progress/result/cancel)");
  auto& cursor = cli.add_int("cursor", 0, "event cursor (progress)");
  auto& save = cli.add_string(
      "save-matching", "", "result/--wait: write the matching here");
  auto& now = cli.add_bool(
      "now", false, "shutdown: cancel running jobs instead of draining");
  auto& retry = cli.add_int(
      "retry", 0,
      "reconnect attempts after a lost connection (daemon restarting)");
  auto& retry_max_ms = cli.add_int(
      "retry-max-ms", 2000, "cap on the reconnect backoff step");
  auto& request_id = cli.add_string(
      "request-id", "",
      "submit: idempotency token; a replayed submit returns the original "
      "job id (auto-generated when --retry > 0)");
  if (!cli.parse(argc - 1, argv + 1)) return 0;
  if (socket.empty() && connect.empty()) {
    std::fputs("netalign client: --socket or --connect is required\n", stderr);
    return 1;
  }
  if (retry < 0 || retry_max_ms < 1) {
    std::fputs("netalign client: --retry/--retry-max-ms out of range\n",
               stderr);
    return 1;
  }
  const std::string target =
      connect.empty() ? std::string(socket) : std::string(connect);
  std::string auth_token;
  if (!auth_token_file.empty()) {
    auth_token = server::load_auth_token(auth_token_file);
  }

  server::RetryPolicy policy;
  policy.retries = static_cast<int>(retry);
  policy.max_backoff_ms = static_cast<int>(retry_max_ms);
  server::ServerClient client(target, policy, auth_token);
  std::string request;
  if (action == "ping" || action == "stats") {
    request = std::move(JsonObj{}.add("method", action)).str();
  } else if (action == "submit") {
    if (problem.empty()) {
      std::fputs("netalign client submit: --problem is required\n", stderr);
      return 1;
    }
    std::ifstream in(problem, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "netalign client: cannot open %s\n",
                   problem.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    JsonObj req;
    req.add("method", "submit")
        .add("problem", text.str())
        .add("solver", solver)
        .add("matcher", matcher)
        .add("iters", iters)
        .add("batch", batch);
    if (gamma > 0.0) req.add("gamma", gamma);
    if (!squares_mode_name.empty()) req.add("squares_mode", squares_mode_name);
    if (deadline > 0.0) req.add("deadline_seconds", deadline);
    if (!tag.empty()) req.add("tag", tag);
    if (!tenant.empty()) req.add("tenant", tenant);
    std::string rid = request_id;
    if (rid.empty() && retry > 0) {
      // Retries re-send the submit line verbatim; without an idempotency
      // token a retry after a lost ack would enqueue the job twice.
      rid = make_request_id();
    }
    if (!rid.empty()) req.add("request_id", rid);
    request = std::move(req).str();
  } else if (action == "status" || action == "result" || action == "cancel") {
    request = std::move(JsonObj{}.add("method", action).add("job", job)).str();
  } else if (action == "progress") {
    request = std::move(JsonObj{}
                            .add("method", action)
                            .add("job", job)
                            .add("cursor", cursor))
                  .str();
  } else if (action == "shutdown") {
    request =
        std::move(JsonObj{}.add("method", action).add("now", bool(now))).str();
  } else {
    std::fprintf(stderr, "netalign client: unknown action '%s'\n",
                 action.c_str());
    return 1;
  }

  obs::JsonValue doc = client.call(request);
  std::string line;
  obs::write_json(line, doc);
  std::printf("%s\n", line.c_str());
  if (!response_ok(doc)) return 1;

  if (action == "submit" && wait) {
    const obs::JsonValue* id = doc.find("job");
    if (id == nullptr || !id->is_number()) return 1;
    const auto job_id = static_cast<std::int64_t>(id->as_number());
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const obs::JsonValue status = client.call(
          std::move(JsonObj{}.add("method", "status").add("job", job_id))
              .str());
      if (!response_ok(status)) return 1;
      const std::string state = response_state(status);
      if (state != "queued" && state != "running") break;
    }
    doc = client.call(
        std::move(JsonObj{}.add("method", "result").add("job", job_id))
            .str());
    line.clear();
    obs::write_json(line, doc);
    std::printf("%s\n", line.c_str());
    if (!response_ok(doc)) return 1;
  }
  if (!save.empty() && (action == "result" || (action == "submit" && wait))) {
    save_matching_from_result(doc, save);
  }
  return 0;
}

void usage() {
  std::fputs(
      "usage: netalign <generate|stats|align|match|client> [flags...]\n"
      "       netalign <subcommand> --help for details\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // Shift argv so each subcommand parses its own flags.
  if (cmd == "generate") return cmd_generate(argc - 1, argv + 1);
  if (cmd == "stats") return cmd_stats(argc - 1, argv + 1);
  if (cmd == "align") return cmd_align(argc - 1, argv + 1);
  if (cmd == "match") return cmd_match(argc - 1, argv + 1);
  if (cmd == "client") return cmd_client(argc - 1, argv + 1);
  usage();
  return 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
