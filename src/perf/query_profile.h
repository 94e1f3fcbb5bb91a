#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "perf/perf_counters.h"

namespace bufferdb {
struct RefinementReport;  // core/plan_refiner.h
}

namespace bufferdb::perf {

/// Per-operator measurement record. Costs are *inclusive*: a node's region
/// brackets its children's work on the same thread (Volcano pull). Exclusive
/// costs are derived by QueryProfile (inclusive minus same-fragment
/// children's inclusive).
///
/// Thread-safety: every node is written by exactly one thread (the thread
/// driving its operator — the consumer thread, or one Exchange worker), and
/// only read after the query drained and workers joined. No atomics needed.
struct OperatorStats {
  int id = -1;
  int parent = -1;  // -1 = plan root.
  /// Exchange worker index executing this subtree; -1 = consumer thread.
  /// Per-worker aggregation falls out of this: nodes sharing a fragment id
  /// ran on the same pool worker.
  int fragment = -1;
  std::string label;
  std::string module;
  std::vector<int> children;

  uint64_t opens = 0;
  uint64_t next_calls = 0;
  uint64_t batch_calls = 0;
  uint64_t rows = 0;

  uint64_t wall_ns = 0;  // Inclusive, always populated.
  HwCounters hw;         // Inclusive; all-zero when the PMU backend is a no-op.
};

/// Per-execution-group rollup (the refiner's §6.1 groups mapped onto the
/// measured plan): which buffered/unbuffered group each operator landed in
/// and what it cost on real hardware.
struct GroupStats {
  std::string name;
  bool buffered = false;
  uint64_t wall_ns = 0;  // Sum of member exclusive wall time.
  HwCounters hw;         // Sum of member exclusive counters.
};

/// Result of profiling one query execution: the operator tree annotated
/// with call counts, row counts, wall time and hardware counters, plus the
/// PMU backend's availability so consumers can tell "zero misses" from
/// "counters off". Rendered as an EXPLAIN ANALYZE-style text tree or as a
/// single JSON object for tooling (tools/validate_sim.py, bench baselines).
class QueryProfile {
 public:
  QueryProfile();

  QueryProfile(QueryProfile&&) = default;
  QueryProfile& operator=(QueryProfile&&) = default;

  /// Registers a node; the returned pointer stays valid for the profile's
  /// lifetime (deque storage). Called during plan wrapping, before
  /// execution, single-threaded.
  OperatorStats* AddNode(const std::string& label, const std::string& module,
                         int parent, int fragment);

  const std::deque<OperatorStats>& nodes() const { return nodes_; }
  bool empty() const { return nodes_.empty(); }

  /// Whether the wrapping thread's PMU backend had any live hardware event.
  bool hw_available() const { return hw_available_; }
  /// Degradation reason (empty only when every event opened).
  const std::string& unavailable_reason() const { return unavailable_reason_; }

  /// Exclusive cost of node `id`: inclusive minus the inclusive costs of
  /// its same-fragment children (children running as Exchange workers are
  /// concurrent, measured by their own thread's counters, and excluded).
  uint64_t ExclusiveWallNs(int id) const;
  HwCounters ExclusiveHw(int id) const;

  /// Inclusive cost of the plan root as seen by the consumer thread.
  uint64_t RootWallNs() const;
  HwCounters RootHw() const;

  /// Sum of exclusive costs over every node, including worker fragments —
  /// total work attributed across all threads. For a serial plan this
  /// telescopes back to exactly RootWallNs()/RootHw().
  uint64_t TotalAttributedWallNs() const;
  HwCounters TotalAttributedHw() const;

  /// Maps the refiner's execution groups onto measured nodes by operator
  /// label (greedy, each node consumed once) and stores the rollup for
  /// ToText()/ToJson(). Nodes not named by any group (Buffer operators, the
  /// plan root, Exchange plumbing) are left out of group rollups.
  void AttributeGroups(const RefinementReport& report);
  const std::vector<GroupStats>& groups() const { return groups_; }

  /// EXPLAIN ANALYZE-style indented tree, one line per operator.
  std::string ToText() const;
  /// One JSON object (no trailing newline) with nodes, totals, group
  /// rollups and PMU availability.
  std::string ToJson() const;

 private:
  std::deque<OperatorStats> nodes_;
  std::vector<GroupStats> groups_;
  bool hw_available_ = false;
  std::string unavailable_reason_;
};

}  // namespace bufferdb::perf
