#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/plan_refiner.h"
#include "perf/query_profile.h"
#include "plan/physical_planner.h"
#include "sim/cost_model.h"
#include "sim/sim_cpu.h"

namespace bufferdb::bench {

/// Paper queries (§4, §7.2, §7.5) against the TPC-H schema.
extern const char kQuery1[];  // SUM/AVG/COUNT over filtered lineitem scan.
extern const char kQuery2[];  // COUNT over filtered lineitem scan.
extern const char kQuery3[];  // lineitem x orders aggregate join.

/// Default scale factor used by the benches; override with argv[1].
constexpr double kDefaultScaleFactor = 0.02;

/// Scale factor cap applied in smoke mode (see `--smoke` below).
constexpr double kSmokeScaleFactor = 0.002;

/// Loads (once per process) and returns the shared TPC-H catalog.
Catalog& SharedTpch(double scale_factor);

/// Parses the bench command line: a positional scale factor (argv[1]) plus
/// the flags below. Must be the first bench_util call in main().
///
///   --smoke        CI mode: caps the scale factor at kSmokeScaleFactor and
///                  tells benches (via SmokeMode) to cut iteration counts.
///   --batch=N      NextBatch width for batch-aware consumers (default 1).
///   --buffer=N     Buffer operator capacity in tuples.
///   --calibration=PATH
///                  Loads a measured code-layout calibration (the file
///                  `tools/footprint_audit.py --emit-calibration` writes)
///                  via sim::CodeLayout::LoadCalibration before anything
///                  executes, so the simulator runs with the *audited*
///                  per-module instruction footprints of the real binary
///                  instead of the hand-calibrated Table-2 layout. Exits 2
///                  with the parse error on a bad file.
///   --hw           Collect real hardware counters (perf_event_open) per
///                  operator: RunQuery re-executes each plan wrapped in the
///                  perf profiler with the CPU simulator detached, so the
///                  `hw` blocks in the JSON output measure the engine, not
///                  the simulator. Degrades to zeros + a reason string where
///                  the PMU is unavailable (containers, perf_event_paranoid).
///   --json-strict  Self-check for CI: stdout is redirected to a capture
///                  file and only bench_util's JSON emitter writes to the
///                  real stream; any stray stdout bytes (a debug printf, a
///                  library banner) fail the bench at exit with the captured
///                  text on stderr.
///
/// Contract: benches write JSON lines to stdout via EmitJsonLine()/the
/// helpers below, and everything human-readable to stderr (Note()).
double ScaleFactorFromArgs(int argc, char** argv);

/// True once ScaleFactorFromArgs has seen `--smoke`.
bool SmokeMode();

/// Batch width selected by `--batch=N` (1 when absent).
size_t BatchSizeArg();

/// Buffer capacity selected by `--buffer=N` (kDefaultBufferSize when absent).
size_t BufferSizeArg();

/// Calibration file selected by `--calibration=PATH` (empty when absent).
const std::string& CalibrationArg();

/// True once ScaleFactorFromArgs has seen `--hw`.
bool HwMode();

/// True once ScaleFactorFromArgs has seen `--json-strict`.
bool JsonStrictMode();

/// Human-readable commentary (figure text, plan dumps, progress): printf to
/// stderr, never stdout — stdout carries only JSON lines.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Writes one pre-formatted JSON line to the bench's JSON stream (the real
/// stdout, even under --json-strict) and flushes.
void EmitJsonLine(const std::string& line);

/// Emits the one-line JSON run header every bench starts with: bench name,
/// scale factor, smoke/hw flags and the selected batch and buffer sizes, so
/// archived bench output is self-describing. Also records the bench name
/// used by EmitComparisonJson.
void PrintJsonHeader(const char* bench_name, double scale_factor);

/// `normal` iterations usually, `smoke` in smoke mode.
inline int SmokeIters(int normal, int smoke = 1) {
  return SmokeMode() ? smoke : normal;
}

struct QueryRun {
  std::vector<std::vector<Value>> rows;
  sim::CycleBreakdown breakdown;
  std::string plan_text;
  RefinementReport report;
  /// Wall time of the (simulator-free) hardware pass when hw profiling ran,
  /// else of the simulated pass.
  double wall_seconds = 0;
  /// Per-operator hardware attribution; empty() unless hw profiling ran.
  perf::QueryProfile profile;
};

struct RunOptions {
  bool refine = false;
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  size_t buffer_size = 1000;
  /// NextBatch width for batch-aware consumers (PlannerOptions::batch_size).
  /// 0 — the default — defers to the `--batch=N` command-line knob.
  size_t batch_size = 0;
  /// Drive the plan through the CPU simulator (breakdown/counters). Off for
  /// pure hardware-measurement runs.
  bool simulate = true;
  /// Collect per-operator hardware counters. Defaults to the `--hw` flag.
  /// When both simulate and hw profiling are on, RunQuery executes the plan
  /// twice — simulated first, then profiled with the simulator detached —
  /// so neither measurement observes the other's overhead.
  bool hw_profile = false;
  /// How many times to execute the plan (Open -> drain -> Close), modeling a
  /// re-executed prepared statement. Counters accumulate across executions
  /// and `rows` holds the last execution's output.
  int executions = 1;
  sim::SimConfig sim_config;
  RefinementOptions refinement;  // cardinality/l1i defaults; buffer_size and
                                 // merge flags applied from above.
};

/// Plans and executes `sql` on the simulated CPU (and/or the real one, see
/// RunOptions); dies on error.
QueryRun RunQuery(Catalog& catalog, const std::string& sql,
                  const RunOptions& options = RunOptions());

/// Simulates a hand-built operator tree — for bench scenarios the SQL
/// planner never emits (e.g. the naive rescan nested-loop join, which the
/// planner always replaces with a hash/merge/index join). `build` constructs
/// a fresh tree, which then runs `options.executions` times on one simulated
/// CPU exactly like RunQuery's simulated pass; only the simulate path is
/// supported (refine/hw_profile/buffer_size are the builder's business).
QueryRun RunPlan(const std::function<OperatorPtr()>& build,
                 const RunOptions& options = RunOptions());

/// Prints (stderr) an original-vs-buffered comparison in the paper's figure
/// format, and emits (stdout) one JSON line with both runs' sim counters,
/// simulated seconds, and — when hw profiling ran — the hardware counter
/// block and profiler wall time next to them.
void PrintComparison(const std::string& title, const QueryRun& original,
                     const QueryRun& buffered);

/// The JSON-emitting half of PrintComparison, usable standalone.
void EmitComparisonJson(const std::string& title, const QueryRun& original,
                        const QueryRun& buffered);

}  // namespace bufferdb::bench
