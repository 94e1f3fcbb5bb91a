#include "parallel/shared_join_build.h"

#include <exception>
#include <string>

namespace bufferdb::parallel {

void SharedJoinBuild::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cursor_->Reset();
  table_.Clear();
  runs_.clear();
  registered_ = 0;
  handed_in_ = 0;
  complete_ = false;
  error_ = Status::OK();
}

bool SharedJoinBuild::Register() {
  std::lock_guard<std::mutex> lock(mu_);
  if (complete_) return false;
  ++registered_;
  return true;
}

void SharedJoinBuild::HandIn(std::vector<JoinHashTable::Entry> run,
                             Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error_.ok()) error_ = std::move(status);
  const bool last = ++handed_in_ == registered_;
  try {
    if (error_.ok()) runs_.push_back(std::move(run));
    // Every builder that handed in without an error drained the cursor to
    // its end, so the last one finds every morsel in the runs. Linking
    // under the lock makes a late Register wait and then skip.
    if (last && error_.ok()) table_.Link(runs_);
  } catch (const std::exception& e) {
    error_ = Status::Internal(std::string("hash join link failed: ") +
                              e.what());
  }
  if (!last) return;
  runs_.clear();
  complete_ = true;
  complete_cv_.notify_all();
}

Status SharedJoinBuild::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  complete_cv_.wait(lock, [this] { return complete_; });
  return error_;
}

}  // namespace bufferdb::parallel
