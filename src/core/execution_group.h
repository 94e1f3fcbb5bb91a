#pragma once

#include <bitset>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/code_layout.h"

namespace bufferdb {

/// Set of simulated-binary functions with shared-function-aware byte
/// accounting: TotalBytes counts every function exactly once, which is the
/// paper's rule for combining module footprints ("we make sure to count
/// common functions only once", §6.1).
class FuncSet {
 public:
  FuncSet() = default;

  void Add(sim::FuncId f) { bits_.set(static_cast<size_t>(f)); }
  void AddAll(std::span<const sim::FuncId> funcs) {
    for (sim::FuncId f : funcs) Add(f);
  }
  void UnionWith(const FuncSet& other) { bits_ |= other.bits_; }

  bool Contains(sim::FuncId f) const {
    return bits_.test(static_cast<size_t>(f));
  }
  bool empty() const { return bits_.none(); }
  size_t count() const { return bits_.count(); }

  /// Combined instruction footprint in bytes (each function counted once).
  uint64_t TotalBytes() const;

  std::vector<sim::FuncId> ToVector() const;

 private:
  std::bitset<sim::kNumFuncIds> bits_;
};

/// A candidate unit of buffering: one or more consecutive pipeline operators
/// whose combined footprint (plus a buffer operator's) fits in L1-I.
/// Operators are recorded by label so reports outlive the plan.
struct ExecutionGroup {
  std::vector<std::string> op_labels;
  FuncSet funcs;
  bool buffered = false;  // Whether a Buffer was inserted above this group.

  std::string ToString() const;
};

}  // namespace bufferdb

