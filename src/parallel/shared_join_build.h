#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "exec/hash_join.h"
#include "parallel/morsel.h"

namespace bufferdb::parallel {

/// The build side of one hash join in a parallel plan, shared by the join's
/// clones in every fragment: one MorselCursor over the build table and one
/// JoinHashTable (morsel-driven build, Leis et al.).
///
/// A clone that Registers drains its own morsels of the build scan into a
/// private run of entries and hands the run in. The last registered builder
/// to hand in links the table; from then on every clone probes it
/// read-only. A clone that starts after the table is complete skips its
/// build (Register returns false).
///
/// Deadlock-free by construction: Wait only waits for builders that have
/// registered, and a builder registers from inside its running task, so it
/// is never a task still queued behind the waiter. No barrier counts
/// fragments, so a pool with fewer threads than fragments, or shared with
/// other queries, cannot stall it.
///
/// The ExchangeOperator owning the build calls Reset in Open, before any
/// worker starts, so a plan can run again.
class SharedJoinBuild {
 public:
  /// `cursor` ranges over the build table's rows.
  explicit SharedJoinBuild(std::unique_ptr<MorselCursor> cursor)
      : cursor_(std::move(cursor)) {}

  SharedJoinBuild(const SharedJoinBuild&) = delete;
  SharedJoinBuild& operator=(const SharedJoinBuild&) = delete;

  /// The cursor every clone's build scan is bound to.
  MorselCursor* cursor() { return cursor_.get(); }
  /// Complete once Wait has returned OK.
  const JoinHashTable& table() const { return table_; }

  /// Rewinds the cursor and empties the table. No builder may be running.
  void Reset();

  /// Joins as a builder. False when the table is already complete.
  bool Register();
  /// Hands in a registered builder's run, or its error. Every registered
  /// builder must hand in exactly once, on every exit path.
  void HandIn(std::vector<JoinHashTable::Entry> run, Status status);
  /// Blocks until every registered builder has handed in and the table is
  /// linked; returns the first error handed in.
  [[nodiscard]] Status Wait();

 private:
  std::unique_ptr<MorselCursor> cursor_;
  JoinHashTable table_;

  std::mutex mu_;
  std::condition_variable complete_cv_;
  size_t registered_ = 0;
  size_t handed_in_ = 0;
  bool complete_ = false;
  Status error_ = Status::OK();
  std::vector<std::vector<JoinHashTable::Entry>> runs_;
};

}  // namespace bufferdb::parallel
