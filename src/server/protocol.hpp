// Wire protocol of the netalign alignment server (docs/SERVER.md).
//
// Newline-delimited JSON: each request and each response is exactly one
// JSON object on one LF-terminated line. This module is the single place
// that knows the request schema -- parsing, validation, the error-code
// taxonomy, and the builder responses are serialized with -- so the
// server loop, the client, and the protocol tests all share one
// definition and cannot drift apart.
//
// Compatibility rules (tested in tests/test_server.cpp):
//   - unknown *fields* in a request are ignored (the schema may grow);
//   - unknown *methods* are rejected with error code "unknown_method";
//   - a field with the wrong JSON type is "bad_request", never a crash;
//   - a request line at or above the server's size cap is "too_large".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace netalign::server {

/// Bumped when a change would break an existing client; echoed by `ping`.
inline constexpr std::int64_t kProtocolVersion = 1;

/// Default cap on one request line (daemon flag --max-request-bytes).
/// Inline problems ride inside the submit request, so this bounds the
/// largest submittable instance as well as the damage a garbage client
/// can do to server memory.
inline constexpr std::size_t kDefaultMaxRequestBytes = 8u << 20;

/// Upper bound on submit's iters/batch. Both feed solver `int` options,
/// and iters doubles as the job's DRR scheduling cost, so an absurd value
/// must die as bad_request at parse time -- not as an int overflow in the
/// solver or a scheduler stall under the job lock.
inline constexpr std::int64_t kMaxSubmitInt = 1'000'000'000;

/// Error taxonomy (the `error.code` field of a failure response).
enum class ErrorCode {
  kTooLarge,       ///< request line exceeded the server's byte cap
  kBadRequest,     ///< malformed JSON, missing field, or wrong type
  kUnknownMethod,  ///< well-formed request naming no known method
  kRejected,       ///< admission control: job queue at capacity
  kQuotaExceeded,  ///< this tenant's queued/running quota is full
  kShuttingDown,   ///< submit after shutdown began
  kNotFound,       ///< no job with the given id
  kExpired,        ///< job existed but was evicted by the retention cap
  kNotReady,       ///< result requested before the job reached a result
  kNoResult,       ///< job was cancelled before it ever ran
  kJobFailed,      ///< job ran and failed; message carries the cause
  kInternal,       ///< unexpected server-side exception
  kAuthRequired,   ///< TCP connection not yet authenticated (send `auth`)
  kAuthFailed,     ///< `auth` carried a wrong token; connection closes
};

[[nodiscard]] const char* to_string(ErrorCode code);

/// True when `code` is one of the taxonomy strings above -- what the
/// wire fuzzer asserts about every error response.
[[nodiscard]] bool known_error_code(std::string_view code);

enum class Method {
  kPing,
  kAuth,  ///< TCP connection handshake: {"method":"auth","token":"..."}
  kSubmit,
  kStatus,
  kProgress,
  kResult,
  kCancel,
  kStats,
  kShutdown,
};

[[nodiscard]] const char* to_string(Method m);

/// Everything `submit` accepts. Defaults mirror `netalign align`.
struct SubmitParams {
  std::string problem_text;  ///< inline .nap content (`problem` field)
  std::string problem_path;  ///< server-local path (`problem_path` field)
  std::string solver = "bp";  ///< bp | mr | isorank
  std::string matcher = "approx";
  std::int64_t iters = 100;
  std::int64_t batch = 1;      ///< BP rounding batch size
  double gamma = 0.0;          ///< 0 = solver default
  double deadline_seconds = 0.0;
  std::string tag;             ///< client label echoed by status/result
  /// Fair-scheduling bucket: jobs queue per tenant and are drained by
  /// deficit-round-robin, with per-tenant quotas (docs/SERVER.md).
  /// Empty = the "default" tenant.
  std::string tenant;
  /// Client-chosen idempotency token. While the original job is
  /// retained, a re-submit carrying the same request_id returns that
  /// job's id (flagged `duplicate`) instead of enqueueing a second run,
  /// which is what makes blind client retries across a daemon restart
  /// safe. Empty = no dedupe.
  std::string request_id;
  /// Squares backend: "explicit" | "implicit" | "auto", or empty for the
  /// server-wide default (ServerOptions::squares_mode). Not part of the
  /// job's content key; the cache keys (problem, resolved mode) pairs.
  std::string squares_mode;
};

/// One parsed request. `id` is the client's correlation value echoed
/// verbatim into the response (any scalar; stored re-serialized).
struct Request {
  Method method = Method::kPing;
  std::string id_json;        ///< empty = no id field
  std::int64_t job = -1;      ///< status / progress / result / cancel
  std::int64_t cursor = 0;    ///< progress: events already consumed
  bool shutdown_now = false;  ///< shutdown: cancel instead of drain
  std::string auth_token;     ///< auth: the presented token
  SubmitParams submit;
};

/// True for the solver names a submit may carry: bp | mr | isorank.
[[nodiscard]] bool known_solver(std::string_view name);

/// Parse and validate one request line. Returns true and fills `out`;
/// on failure returns false with `code`/`message` describing the error
/// (the id, when recoverable from the line, is still echoed via
/// `out.id_json`).
bool parse_request(std::string_view line, Request& out, ErrorCode& code,
                   std::string& message);

/// Incremental builder for one response object; keeps serialization in
/// one style (compact, key order = insertion order, obs/json escaping).
class ResponseBuilder {
 public:
  /// Start a success or failure envelope: {"ok":true,...} /
  /// {"ok":false,...}. `id_json` (when non-empty) is echoed as `id`.
  ResponseBuilder(bool ok, const std::string& id_json);

  ResponseBuilder& field(std::string_view key, std::string_view value);
  /// Without this overload a string literal would prefer the bool
  /// conversion (pointer -> bool is a standard conversion; pointer ->
  /// string_view is user-defined) and serialize as `true`.
  ResponseBuilder& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  ResponseBuilder& field(std::string_view key, std::int64_t value);
  ResponseBuilder& field(std::string_view key, double value);
  ResponseBuilder& field(std::string_view key, bool value);
  /// Append `key` with pre-serialized JSON (an object/array built by the
  /// caller, e.g. the progress event list).
  ResponseBuilder& raw(std::string_view key, std::string_view json);

  /// Finish and return the line (no trailing newline).
  [[nodiscard]] std::string str() &&;

 private:
  std::string buf_;
};

/// The standard failure response for `code`/`message`.
[[nodiscard]] std::string error_response(const std::string& id_json,
                                         ErrorCode code,
                                         std::string_view message);

}  // namespace netalign::server
