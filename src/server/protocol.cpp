#include "server/protocol.hpp"

#include <cmath>
#include <stdexcept>

namespace netalign::server {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kTooLarge:
      return "too_large";
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kUnknownMethod:
      return "unknown_method";
    case ErrorCode::kRejected:
      return "rejected";
    case ErrorCode::kQuotaExceeded:
      return "quota_exceeded";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kNotFound:
      return "not_found";
    case ErrorCode::kExpired:
      return "expired";
    case ErrorCode::kNotReady:
      return "not_ready";
    case ErrorCode::kNoResult:
      return "no_result";
    case ErrorCode::kJobFailed:
      return "job_failed";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kAuthRequired:
      return "auth_required";
    case ErrorCode::kAuthFailed:
      return "auth_failed";
  }
  return "?";
}

bool known_error_code(std::string_view code) {
  for (const ErrorCode c :
       {ErrorCode::kTooLarge, ErrorCode::kBadRequest,
        ErrorCode::kUnknownMethod, ErrorCode::kRejected,
        ErrorCode::kQuotaExceeded, ErrorCode::kShuttingDown,
        ErrorCode::kNotFound, ErrorCode::kExpired, ErrorCode::kNotReady,
        ErrorCode::kNoResult, ErrorCode::kJobFailed, ErrorCode::kInternal,
        ErrorCode::kAuthRequired, ErrorCode::kAuthFailed}) {
    if (code == to_string(c)) return true;
  }
  return false;
}

const char* to_string(Method m) {
  switch (m) {
    case Method::kPing:
      return "ping";
    case Method::kAuth:
      return "auth";
    case Method::kSubmit:
      return "submit";
    case Method::kStatus:
      return "status";
    case Method::kProgress:
      return "progress";
    case Method::kResult:
      return "result";
    case Method::kCancel:
      return "cancel";
    case Method::kStats:
      return "stats";
    case Method::kShutdown:
      return "shutdown";
  }
  return "?";
}

namespace {

/// Validation failure inside the field getters; caught by parse_request
/// and turned into a bad_request response.
struct FieldError {
  std::string message;
};

/// Typed member access with unknown-field tolerance: absent fields keep
/// the caller's default, present fields must have the right JSON type.
std::string get_string(const obs::JsonValue& doc, std::string_view key,
                       std::string fallback) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    throw FieldError{std::string(key) + " must be a string"};
  }
  return v->as_string();
}

std::int64_t get_int(const obs::JsonValue& doc, std::string_view key,
                     std::int64_t fallback) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw FieldError{std::string(key) + " must be a number"};
  }
  const double d = v->as_number();
  if (d != std::floor(d)) {
    throw FieldError{std::string(key) + " must be an integer"};
  }
  return static_cast<std::int64_t>(d);
}

double get_double(const obs::JsonValue& doc, std::string_view key,
                  double fallback) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw FieldError{std::string(key) + " must be a number"};
  }
  return v->as_number();
}

bool get_bool(const obs::JsonValue& doc, std::string_view key,
              bool fallback) {
  const obs::JsonValue* v = doc.find(key);
  if (v == nullptr) return fallback;
  if (v->type() != obs::JsonValue::Type::kBool) {
    throw FieldError{std::string(key) + " must be a bool"};
  }
  return v->as_bool();
}

std::int64_t require_job(const obs::JsonValue& doc) {
  const std::int64_t job = get_int(doc, "job", -1);
  if (job < 0) throw FieldError{"job (a nonnegative integer) is required"};
  return job;
}

bool known_matcher(const std::string& s) {
  return s == "exact" || s == "approx" || s == "greedy" || s == "suitor" ||
         s == "auction" || s == "pga";
}

}  // namespace

bool known_solver(std::string_view name) {
  return name == "bp" || name == "mr" || name == "isorank";
}

bool parse_request(std::string_view line, Request& out, ErrorCode& code,
                   std::string& message) {
  obs::JsonValue doc;
  if (!obs::try_parse_json(line, doc)) {
    code = ErrorCode::kBadRequest;
    message = "request is not valid JSON";
    return false;
  }
  if (!doc.is_object()) {
    code = ErrorCode::kBadRequest;
    message = "request must be a JSON object";
    return false;
  }
  // Echo the client's correlation id even on failure paths below.
  if (const obs::JsonValue* id = doc.find("id")) {
    out.id_json.clear();
    obs::write_json(out.id_json, *id);
  }
  try {
    const obs::JsonValue* method = doc.find("method");
    if (method == nullptr || !method->is_string()) {
      throw FieldError{"method (a string) is required"};
    }
    const std::string& name = method->as_string();
    if (name == "ping") {
      out.method = Method::kPing;
    } else if (name == "auth") {
      out.method = Method::kAuth;
      out.auth_token = get_string(doc, "token", "");
      if (out.auth_token.empty()) {
        throw FieldError{"auth needs a token (a nonempty string)"};
      }
      if (out.auth_token.size() > 4096) {
        // The compare walks the whole candidate; bound the work a
        // garbage client can demand per line.
        throw FieldError{"token must be at most 4096 bytes"};
      }
    } else if (name == "submit") {
      out.method = Method::kSubmit;
      SubmitParams& p = out.submit;
      p.problem_text = get_string(doc, "problem", "");
      p.problem_path = get_string(doc, "problem_path", "");
      if (p.problem_text.empty() == p.problem_path.empty()) {
        throw FieldError{
            "submit needs exactly one of problem (inline text) or "
            "problem_path (server-local file)"};
      }
      p.solver = get_string(doc, "solver", p.solver);
      if (!known_solver(p.solver)) {
        throw FieldError{"unknown solver '" + p.solver +
                         "' (bp | mr | isorank)"};
      }
      p.matcher = get_string(doc, "matcher", p.matcher);
      if (!known_matcher(p.matcher)) {
        throw FieldError{"unknown matcher '" + p.matcher +
                         "' (exact | approx | greedy | suitor | auction | "
                         "pga)"};
      }
      p.iters = get_int(doc, "iters", p.iters);
      p.batch = get_int(doc, "batch", p.batch);
      p.gamma = get_double(doc, "gamma", p.gamma);
      p.deadline_seconds = get_double(doc, "deadline_seconds", 0.0);
      p.tag = get_string(doc, "tag", "");
      p.tenant = get_string(doc, "tenant", "");
      p.squares_mode = get_string(doc, "squares_mode", "");
      if (!p.squares_mode.empty() && p.squares_mode != "explicit" &&
          p.squares_mode != "implicit" && p.squares_mode != "auto") {
        throw FieldError{"unknown squares_mode '" + p.squares_mode +
                         "' (explicit | implicit | auto)"};
      }
      p.request_id = get_string(doc, "request_id", "");
      if (p.request_id.size() > 200) {
        // The token is journaled with every submit and indexed forever
        // while the job is retained; an unbounded one is a memory lever.
        throw FieldError{"request_id must be at most 200 bytes"};
      }
      if (p.iters < 0 || p.iters > kMaxSubmitInt || p.batch < 1 ||
          p.batch > kMaxSubmitInt || p.gamma < 0.0 ||
          p.deadline_seconds < 0.0 || !std::isfinite(p.gamma) ||
          !std::isfinite(p.deadline_seconds)) {
        throw FieldError{"submit parameter out of range"};
      }
    } else if (name == "status") {
      out.method = Method::kStatus;
      out.job = require_job(doc);
    } else if (name == "progress") {
      out.method = Method::kProgress;
      out.job = require_job(doc);
      out.cursor = get_int(doc, "cursor", 0);
      if (out.cursor < 0) throw FieldError{"cursor must be >= 0"};
    } else if (name == "result") {
      out.method = Method::kResult;
      out.job = require_job(doc);
    } else if (name == "cancel") {
      out.method = Method::kCancel;
      out.job = require_job(doc);
    } else if (name == "stats") {
      out.method = Method::kStats;
    } else if (name == "shutdown") {
      out.method = Method::kShutdown;
      out.shutdown_now = get_bool(doc, "now", false);
    } else {
      code = ErrorCode::kUnknownMethod;
      message = "unknown method '" + name + "'";
      return false;
    }
  } catch (const FieldError& e) {
    code = ErrorCode::kBadRequest;
    message = e.message;
    return false;
  }
  return true;
}

ResponseBuilder::ResponseBuilder(bool ok, const std::string& id_json) {
  buf_ = ok ? R"({"ok":true)" : R"({"ok":false)";
  if (!id_json.empty()) {
    buf_ += ",\"id\":";
    buf_ += id_json;
  }
}

ResponseBuilder& ResponseBuilder::field(std::string_view key,
                                        std::string_view value) {
  buf_.push_back(',');
  obs::append_json_string(buf_, key);
  buf_.push_back(':');
  obs::append_json_string(buf_, value);
  return *this;
}

ResponseBuilder& ResponseBuilder::field(std::string_view key,
                                        std::int64_t value) {
  buf_.push_back(',');
  obs::append_json_string(buf_, key);
  buf_.push_back(':');
  obs::append_json_number(buf_, value);
  return *this;
}

ResponseBuilder& ResponseBuilder::field(std::string_view key, double value) {
  buf_.push_back(',');
  obs::append_json_string(buf_, key);
  buf_.push_back(':');
  obs::append_json_number(buf_, value);
  return *this;
}

ResponseBuilder& ResponseBuilder::field(std::string_view key, bool value) {
  buf_.push_back(',');
  obs::append_json_string(buf_, key);
  buf_ += value ? ":true" : ":false";
  return *this;
}

ResponseBuilder& ResponseBuilder::raw(std::string_view key,
                                      std::string_view json) {
  buf_.push_back(',');
  obs::append_json_string(buf_, key);
  buf_.push_back(':');
  buf_ += json;
  return *this;
}

std::string ResponseBuilder::str() && {
  buf_.push_back('}');
  return std::move(buf_);
}

std::string error_response(const std::string& id_json, ErrorCode code,
                           std::string_view message) {
  ResponseBuilder r(false, id_json);
  std::string error = "{\"code\":";
  obs::append_json_string(error, to_string(code));
  error += ",\"message\":";
  obs::append_json_string(error, message);
  error.push_back('}');
  r.raw("error", error);
  return std::move(r).str();
}

}  // namespace netalign::server
