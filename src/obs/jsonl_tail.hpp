// Tail-tolerant incremental reader for JSONL event streams.
//
// Two consumers read JSONL files whose writer may have died mid-line:
// tools/trace_summary (a solver trace) and the server's journal replay
// (src/server/journal.cpp). Both need the same guarantee, so it lives
// here once:
//
//   - only '\n'-terminated lines are ever surfaced; an unterminated tail
//     is held buffered until the writer finishes it (kPending);
//   - a terminated line that fails to parse is kTruncatedTail while
//     nothing follows it (a crashed writer's final line), and becomes a
//     hard kMalformed the moment later bytes prove it was mid-stream;
//   - consequently a consumer never sees a partial or damaged event, and
//     loses at most the one line the dying writer was emitting.
//
// The reader keeps the file open and resumes where it left off, so
// polling a file that is still growing is O(new bytes);
// docs/OBSERVABILITY.md states the guarantee.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "obs/json.hpp"

namespace netalign::obs {

class JsonlTailReader {
 public:
  enum class Status {
    kEvent,          ///< `out` holds the next parsed event
    kPending,        ///< no complete line available yet; poll again later
    kTruncatedTail,  ///< terminated-but-unparseable line with nothing after
    kMalformed,      ///< unparseable line with later data: corrupt stream
  };

  /// Tail `path`. The file may not exist yet; next() reports kPending
  /// until it appears.
  explicit JsonlTailReader(std::string path);

  /// Advance to the next complete event (filled into `out` on kEvent).
  /// kPending and kTruncatedTail are retryable: a later call re-examines
  /// the stream after the writer appended more.
  Status next(JsonValue& out);

  /// 1-based line number of the last line examined (parsed or not).
  [[nodiscard]] std::int64_t lineno() const { return lineno_; }

  /// True when the buffer holds an unterminated partial line. Meaningful
  /// after next() returned kPending: a live consumer polls again, while a
  /// post-mortem consumer (the writer is known dead) reports the tail as
  /// the writer's cut-off final event.
  [[nodiscard]] bool has_partial_tail() const { return !buffer_.empty(); }

 private:
  /// Pull whatever the file has beyond our offset into buffer_.
  void fill();

  std::string path_;
  std::ifstream in_;
  bool open_ = false;
  std::string buffer_;   // bytes read but not yet delivered
  std::int64_t lineno_ = 0;
  bool held_bad_line_ = false;  // buffer_ starts with a terminated bad line
  bool dead_ = false;           // kMalformed was returned; reader stopped
};

}  // namespace netalign::obs
