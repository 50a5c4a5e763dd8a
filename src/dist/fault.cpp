#include "dist/fault.hpp"

#include <stdexcept>
#include <string>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace netalign::dist {

namespace {

void check_rate(double rate, const char* name) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument(std::string("FaultPlan: ") + name +
                                " must be in [0, 1]");
  }
}

}  // namespace

void FaultPlan::validate() const {
  check_rate(drop_rate, "drop_rate");
  check_rate(duplicate_rate, "duplicate_rate");
  check_rate(delay_rate, "delay_rate");
  check_rate(reorder_rate, "reorder_rate");
  check_rate(stall_rate, "stall_rate");
  if (delay_rate > 0.0 && max_delay < 1) {
    throw std::invalid_argument("FaultPlan: max_delay must be >= 1");
  }
  if (stall_rate > 0.0 && max_stall < 1) {
    throw std::invalid_argument("FaultPlan: max_stall must be >= 1");
  }
}

FaultInjector::FaultInjector(const FaultPlan& plan, obs::Counters* counters,
                             obs::TraceWriter* trace)
    : plan_(plan), rng_(plan.seed), counters_(counters), trace_(trace) {
  plan_.validate();
}

void FaultInjector::record(const char* kind, int from, int to,
                           std::int64_t amount) {
  if (counters_ != nullptr) {
    counters_->add(std::string("fault.") + kind, 1);
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->event("fault", {{"kind", kind},
                            {"from", from},
                            {"to", to},
                            {"amount", amount}});
  }
}

bool FaultInjector::roll_drop(int from, int to) {
  if (plan_.drop_rate <= 0.0) return false;
  if (!rng_.bernoulli(plan_.drop_rate)) return false;
  stats_.dropped += 1;
  record("drop", from, to, 1);
  return true;
}

bool FaultInjector::roll_duplicate(int from, int to) {
  if (plan_.duplicate_rate <= 0.0) return false;
  if (!rng_.bernoulli(plan_.duplicate_rate)) return false;
  stats_.duplicated += 1;
  record("duplicate", from, to, 1);
  return true;
}

int FaultInjector::roll_delay(int from, int to) {
  if (plan_.delay_rate <= 0.0) return 0;
  if (!rng_.bernoulli(plan_.delay_rate)) return 0;
  const int k = 1 + static_cast<int>(rng_.uniform_int(
                        static_cast<std::uint64_t>(plan_.max_delay)));
  stats_.delayed += 1;
  record("delay", from, to, k);
  return k;
}

bool FaultInjector::roll_reorder(int rank, std::size_t inbox_size) {
  if (plan_.reorder_rate <= 0.0 || inbox_size < 2) return false;
  if (!rng_.bernoulli(plan_.reorder_rate)) return false;
  stats_.reordered += 1;
  record("reorder", rank, rank, static_cast<std::int64_t>(inbox_size));
  return true;
}

int FaultInjector::roll_stall(int rank) {
  if (plan_.stall_rate <= 0.0) return 0;
  if (!rng_.bernoulli(plan_.stall_rate)) return 0;
  const int k = 1 + static_cast<int>(rng_.uniform_int(
                        static_cast<std::uint64_t>(plan_.max_stall)));
  stats_.stalls += 1;
  record("stall", rank, rank, k);
  return k;
}

void FaultInjector::note_retransmit() {
  stats_.retransmits += 1;
  if (counters_ != nullptr) counters_->add("rel.retransmits", 1);
}

void FaultInjector::note_duplicate_suppressed() {
  stats_.duplicates_suppressed += 1;
  if (counters_ != nullptr) counters_->add("rel.duplicates_suppressed", 1);
}

void FaultInjector::note_out_of_order_buffered() {
  stats_.out_of_order_buffered += 1;
  if (counters_ != nullptr) counters_->add("rel.out_of_order_buffered", 1);
}

void FaultInjector::note_ack() {
  stats_.acks += 1;
  if (counters_ != nullptr) counters_->add("rel.acks", 1);
}

}  // namespace netalign::dist
