#include "util/budget.h"

#include <cstdlib>

namespace semap {

namespace {
// Reading the monotonic clock on every charged step would dominate tight
// loops; with work items costing at least a queue operation each, a
// deadline resolution of a few dozen steps is indistinguishable from
// exact. The first charge always checks so an already-expired deadline
// trips immediately.
constexpr uint64_t kDeadlineCheckInterval = 16;
}  // namespace

std::optional<int64_t> ResourceGovernor::FaultAfterFromEnv() {
  const char* raw = std::getenv("SEMAP_FAULT_AFTER");
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  char* end = nullptr;
  long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 0) return std::nullopt;
  return static_cast<int64_t>(value);
}

Status ResourceGovernor::Trip(Status status) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!tripped_.load(std::memory_order_relaxed)) {
      terminal_ = std::move(status);
      tripped_.store(true, std::memory_order_release);
    }
  }
  return terminal_;
}

bool ResourceGovernor::CancelRequested() const {
  if (cancel_flag_ == nullptr ||
      !cancel_flag_->load(std::memory_order_relaxed)) {
    return false;
  }
  Trip(Status::DeadlineExceeded("run interrupted (shutdown requested)"));
  return true;
}

void ResourceGovernor::Cancel(Status status) {
  if (status.ok()) return;
  Trip(std::move(status));
}

Status ResourceGovernor::Charge(int64_t steps) {
  if (exhausted()) return terminal_;
  if (parent_ != nullptr) {
    Status parent_status = parent_->Charge(steps);
    if (!parent_status.ok()) return Trip(std::move(parent_status));
  }
  const int64_t used =
      steps_used_.fetch_add(steps, std::memory_order_relaxed) + steps;
  if (fault_after_.has_value() && used > *fault_after_) {
    return Trip(Status::ResourceExhausted(
        "injected fault after " + std::to_string(*fault_after_) + " steps"));
  }
  if (max_steps_.has_value() && used > *max_steps_) {
    return Trip(Status::ResourceExhausted(
        "step budget of " + std::to_string(*max_steps_) + " exhausted"));
  }
  if (deadline_.has_value() &&
      (deadline_check_counter_.fetch_add(1, std::memory_order_relaxed) %
       kDeadlineCheckInterval) == 0 &&
      Clock::now() > *deadline_) {
    return Trip(Status::DeadlineExceeded(
        "deadline exceeded after " + std::to_string(used) + " steps"));
  }
  return Status::OK();
}

Status ResourceGovernor::ChargeMemory(int64_t bytes) {
  if (exhausted()) return terminal_;
  if (parent_ != nullptr) {
    Status parent_status = parent_->ChargeMemory(bytes);
    if (!parent_status.ok()) return Trip(std::move(parent_status));
  }
  const int64_t used =
      memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (max_memory_bytes_.has_value() && used > *max_memory_bytes_) {
    return Trip(Status::ResourceExhausted(
        "memory estimate exceeds budget of " +
        std::to_string(*max_memory_bytes_) + " bytes"));
  }
  return Status::OK();
}

std::string ResourceGovernor::ToString() const {
  std::string out = "governor{steps=" + std::to_string(steps_used());
  if (max_steps_.has_value()) out += "/" + std::to_string(*max_steps_);
  if (memory_used() > 0 || max_memory_bytes_.has_value()) {
    out += ", mem=" + std::to_string(memory_used());
    if (max_memory_bytes_.has_value()) {
      out += "/" + std::to_string(*max_memory_bytes_);
    }
  }
  out += ", status=" + status().ToString();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!truncations_.empty()) {
      out += ", truncated=" + std::to_string(truncations_.size());
    }
  }
  out += "}";
  return out;
}

}  // namespace semap
