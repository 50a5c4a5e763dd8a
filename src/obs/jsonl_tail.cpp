#include "obs/jsonl_tail.hpp"

#include <utility>

namespace netalign::obs {

JsonlTailReader::JsonlTailReader(std::string path) : path_(std::move(path)) {}

void JsonlTailReader::fill() {
  if (!open_) {
    in_.clear();
    in_.open(path_, std::ios::binary);
    if (!in_) return;  // not created yet; stay pending
    open_ = true;
  }
  // The stream sticks at EOF between polls; clear and read whatever the
  // writer appended since.
  in_.clear();
  char chunk[4096];
  for (;;) {
    in_.read(chunk, sizeof chunk);
    const std::streamsize n = in_.gcount();
    if (n > 0) buffer_.append(chunk, static_cast<std::size_t>(n));
    if (n < static_cast<std::streamsize>(sizeof chunk)) break;
  }
}

JsonlTailReader::Status JsonlTailReader::next(JsonValue& out) {
  if (dead_) return Status::kMalformed;
  for (;;) {
    fill();
    const std::size_t nl = buffer_.find('\n');
    if (nl == std::string::npos) return Status::kPending;
    const std::string candidate = buffer_.substr(0, nl);
    if (!held_bad_line_) ++lineno_;
    if (candidate.empty()) {
      buffer_.erase(0, nl + 1);
      continue;
    }
    if (try_parse_json(candidate, out)) {
      buffer_.erase(0, nl + 1);
      held_bad_line_ = false;
      return Status::kEvent;
    }
    // Terminated but unparseable. With bytes after it, the stream is
    // provably corrupt mid-file; with nothing after it (yet), treat it as
    // the cut-off final line of a dead writer -- but keep it buffered so
    // later appends upgrade the verdict to kMalformed.
    if (buffer_.size() > nl + 1) {
      dead_ = true;
      return Status::kMalformed;
    }
    held_bad_line_ = true;
    return Status::kTruncatedTail;
  }
}

}  // namespace netalign::obs
