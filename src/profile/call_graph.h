#pragma once

#include <array>
#include <cstdint>

#include "core/execution_group.h"
#include "sim/sim_cpu.h"

namespace bufferdb::profile {

/// Records runtime module->function call edges while queries execute on a
/// SimCpu — our stand-in for the paper's VTune runtime call graphs (§7.1):
/// "A runtime call graph ... provides a group of functions that are invoked
/// within the module."
class CallGraphRecorder final : public sim::CallGraphSink {
 public:
  CallGraphRecorder() = default;

  void OnModuleCall(sim::ModuleId module,
                    std::span<const sim::FuncId> funcs) override {
    auto& entry = modules_[static_cast<size_t>(module)];
    entry.funcs.AddAll(funcs);
    ++entry.calls;
  }

  /// Functions observed executing within `module`.
  const FuncSet& funcs(sim::ModuleId module) const {
    return modules_[static_cast<size_t>(module)].funcs;
  }
  uint64_t calls(sim::ModuleId module) const {
    return modules_[static_cast<size_t>(module)].calls;
  }
  bool observed(sim::ModuleId module) const {
    return modules_[static_cast<size_t>(module)].calls > 0;
  }

  void Reset() {
    for (auto& e : modules_) e = Entry();
  }

 private:
  struct Entry {
    FuncSet funcs;
    uint64_t calls = 0;
  };
  std::array<Entry, sim::kNumModuleIds> modules_;
};

}  // namespace bufferdb::profile

