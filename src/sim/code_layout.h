#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace bufferdb::sim {

/// Synthetic "functions" of the simulated database binary.
///
/// The simulator models operator code as sets of functions laid out in a
/// synthetic address space. Some functions are shared between operator
/// modules (executor dispatch, expression arithmetic, comparisons) — exactly
/// the sharing the paper's footprint analysis must account for ("we make sure
/// to count common functions only once", §6.1). Sizes are calibrated so the
/// per-module footprints measured by our profiler reproduce Table 2 of the
/// paper.
enum class FuncId : uint8_t {
  kExecCommon = 0,   // Executor dispatch, tuple-slot access. Shared by all.
  kExprArith,        // Expression arithmetic/projection evaluation.
  kExprCmp,          // Comparison / qualifier evaluation.
  kScanCore,         // Sequential scan.
  kIndexCore,        // B+-tree descent and leaf scan.
  kSortCore,         // Sort (quicksort + run handling).
  kNestLoopCore,     // Nested-loop join driver.
  kMergeJoinCore,    // Merge join.
  kHashBuildCore,    // Hash join: build phase.
  kHashProbeCore,    // Hash join: probe phase.
  kAggCore,          // Aggregation driver (advance/transition logic).
  kAggCount,
  kAggSum,
  kAggAvgExtra,      // AVG on top of SUM (running count + final divide).
  kAggMin,
  kAggMax,
  kHashAggCore,      // Grouped aggregation hash table handling.
  kBufferCore,       // The paper's light-weight buffer operator (<1KB).
  kMaterializeCore,
  kProjectCore,
  kLimitCore,
  kFilterCore,       // Standalone selection.
  kStreamAggCore,    // Sorted (streaming) grouped aggregation.
  kDistinctCore,     // Hash-based duplicate elimination.
  kTopNCore,         // Bounded-heap ORDER BY ... LIMIT n.
  // Cold functions: reachable in the static call graph of many modules but
  // never executed on the common path (error handling, recovery, rare type
  // coercions). They exist so the naive static footprint estimate of §6.1
  // overestimates, as the paper observes; the dynamic call graph never
  // records them.
  kColdErrorPaths,
  kColdRecovery,
  kColdTypeCoercion,
  // Appended after the cold block (late additions stay at the end so the
  // synthetic addresses of earlier functions never shift).
  kVectorEvalCore,   // Compiled column-at-a-time expression kernels: flat
                     // dispatch loop + tight per-opcode loops, much smaller
                     // per-tuple working set than kExprArith + kExprCmp.
  kColumnScanCore,   // Columnar scan: segment aliasing, zone-map block
                     // pruning, dictionary-code widening. No per-row decode
                     // loops, so smaller than kScanCore + decoder.
  kNumFuncs,
};

constexpr int kNumFuncIds = static_cast<int>(FuncId::kNumFuncs);

struct FuncInfo {
  FuncId id;
  const char* name;
  uint64_t base_addr;
  uint32_t size_bytes;
  /// Number of 64-byte instruction lines (ceil(size_bytes / 64)).
  uint32_t lines;
  /// Number of conditional-branch sites exercised per invocation.
  uint32_t branch_sites;
};

/// Immutable description of the simulated binary's code layout.
///
/// A function's instruction lines are *strided* through the address space
/// (kLineStrideBytes apart) rather than contiguous. This mimics the page
/// spread of a real multi-megabyte DBMS binary, where the hot lines of the
/// executor are interleaved with cold code: a module's working set covers
/// many more pages than its byte footprint suggests, which is what gives
/// the paper its ITLB-miss results. The stride is 29 cache lines, coprime
/// with the 32 L1-I sets, so lines still map uniformly across sets.
class CodeLayout {
 public:
  /// The current layout: hand-calibrated against the paper's Table 2 until
  /// LoadCalibration installs measured footprints.
  static const CodeLayout& Default();

  /// Loads a measured-footprint calibration (the format emitted by
  /// `tools/footprint_audit.py --emit-calibration`) and installs it as the
  /// layout returned by Default(). The file is line-oriented:
  ///
  ///   # comment
  ///   func <func_name> <size_bytes>      pin one synthetic function's size
  ///   module <ModuleName> <size_bytes>   target a module's shared-once total
  ///
  /// Names feed the ModuleIdFromName / FuncIdFromName reverse lookups below;
  /// an unknown name, a malformed line or a non-positive size fails the load
  /// (returns false, `*error` says why, the installed layout is unchanged).
  /// `module` targets are met by iterative proportional scaling of the
  /// module's un-pinned base functions, so functions shared between modules
  /// settle on a compromise size. Not thread-safe: call before any SimCpu
  /// executes (the benches apply `--calibration=PATH` during argv parsing).
  static bool LoadCalibration(const std::string& path, std::string* error);

  /// LoadCalibration on in-memory text (testing / embedding).
  static bool LoadCalibrationText(const std::string& text, std::string* error);

  /// Drops any installed calibration, restoring the Table-2 layout.
  static void ResetCalibration();

  const FuncInfo& info(FuncId id) const {
    return funcs_[static_cast<int>(id)];
  }
  uint64_t total_code_bytes() const { return total_code_bytes_; }

  /// Address of the k-th instruction line of `func`.
  static uint64_t LineAddress(const FuncInfo& func, uint32_t k) {
    return func.base_addr + static_cast<uint64_t>(k) * kLineStrideBytes;
  }

  static constexpr uint64_t kCodeBase = 0x0000000001000000ULL;
  static constexpr uint64_t kLineStrideBytes = 29 * 64;  // 1856

 private:
  CodeLayout();
  /// Lays out `size_bytes[kNumFuncIds]` (names and ids from the default
  /// table) into the strided synthetic address space.
  void Build(const uint32_t* size_bytes);

  FuncInfo funcs_[kNumFuncIds];
  uint64_t total_code_bytes_ = 0;
};

/// Operator modules, mirroring the paper's Table 2 row set. A module is the
/// unit whose instruction footprint the profiler measures.
enum class ModuleId : uint8_t {
  kSeqScan = 0,       // "Scan without predicates"
  kSeqScanFiltered,   // "Scan with predicates"
  kIndexScan,
  kSort,
  kNestLoopJoin,
  kMergeJoin,
  kHashJoinBuild,
  kHashJoinProbe,
  kAggregation,       // Base footprint; aggregate functions add their own.
  kHashAggregation,
  kBuffer,
  kMaterialize,
  kProject,
  kLimit,
  kFilter,
  kStreamAggregation,
  kDistinct,
  kTopN,
  kColumnScan,        // Columnar scan over segment storage (DESIGN.md §12).
  kNumModules,
};

constexpr int kNumModuleIds = static_cast<int>(ModuleId::kNumModules);

/// Base function set of a module (excludes per-query additions such as
/// aggregate functions or predicate evaluation).
std::span<const FuncId> ModuleBaseFuncs(ModuleId module);

/// The cold functions a *static* call-graph analysis would additionally
/// attribute to every operator module (§6.1: "not all the branches in the
/// source code are taken, and some functions in static call graphs are
/// never called"). Dynamic profiling never observes them.
std::span<const FuncId> StaticOnlyFuncs();

const char* ModuleName(ModuleId module);
const char* FuncName(FuncId id);

/// Reverse lookups (for loading saved calibrations); return false when the
/// name is unknown to this build.
bool ModuleIdFromName(const std::string& name, ModuleId* out);
bool FuncIdFromName(const std::string& name, FuncId* out);

}  // namespace bufferdb::sim

