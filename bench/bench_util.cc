#include "bench_util.h"

#include <unistd.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "perf/profiled_operator.h"
#include "plan/plan_printer.h"
#include "sql/binder.h"
#include "tpch/tpch_gen.h"

namespace bufferdb::bench {

const char kQuery1[] =
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
    "AS sum_charge, AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'";

const char kQuery2[] =
    "SELECT COUNT(*) AS count_order FROM lineitem "
    "WHERE l_shipdate <= DATE '1998-09-02'";

const char kQuery3[] =
    "SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount) "
    "FROM lineitem, orders "
    "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'";

namespace {
bool g_smoke_mode = false;
bool g_hw_mode = false;
bool g_json_strict = false;
size_t g_batch_size = 1;
size_t g_buffer_size = BufferOperator::kDefaultBufferSize;
std::string g_calibration_path;
std::string g_bench_name = "bench";
// Under --json-strict, the real stdout lives here and fd 1 points at a
// capture file that must stay empty (see SetupJsonStrict).
std::FILE* g_json_stream = nullptr;
std::string g_capture_path;

std::FILE* JsonOut() { return g_json_stream != nullptr ? g_json_stream : stdout; }

void CheckJsonStrictAtExit() {
  std::fflush(stdout);
  std::FILE* f = std::fopen(g_capture_path.c_str(), "rb");
  if (f == nullptr) return;
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(g_capture_path.c_str());
  if (n == 0) return;
  buf[n] = '\0';
  std::fprintf(stderr,
               "json-strict violation: %zu stray byte(s) written to stdout "
               "outside the JSON emitter; first capture:\n%s\n",
               n, buf);
  // atexit context: normal unwinding is over, fail the process hard.
  std::_Exit(1);
}

void SetupJsonStrict() {
  std::fflush(stdout);
  int saved = dup(STDOUT_FILENO);
  if (saved < 0) return;
  g_json_stream = fdopen(saved, "w");
  char tmpl[] = "/tmp/bench_stdout_capture_XXXXXX";
  int capture_fd = mkstemp(tmpl);
  if (capture_fd < 0) return;
  g_capture_path = tmpl;
  dup2(capture_fd, STDOUT_FILENO);
  close(capture_fd);
  std::atexit(CheckJsonStrictAtExit);
}
}  // namespace

Catalog& SharedTpch(double scale_factor) {
  static std::map<long, std::unique_ptr<Catalog>>* catalogs =
      new std::map<long, std::unique_ptr<Catalog>>();
  long key = static_cast<long>(scale_factor * 1e6);
  auto it = catalogs->find(key);
  if (it == catalogs->end()) {
    auto catalog = std::make_unique<Catalog>();
    tpch::TpchConfig config;
    config.scale_factor = scale_factor;
    Status st = tpch::LoadTpch(config, catalog.get());
    if (!st.ok()) {
      std::fprintf(stderr, "TPC-H load failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    Note("# TPC-H scale factor %.3f (%zu lineitem rows)\n", scale_factor,
         catalog->GetTable("lineitem")->num_rows());
    it = catalogs->emplace(key, std::move(catalog)).first;
  }
  return *it->second;
}

bool SmokeMode() { return g_smoke_mode; }

bool HwMode() { return g_hw_mode; }

bool JsonStrictMode() { return g_json_strict; }

size_t BatchSizeArg() { return g_batch_size; }

size_t BufferSizeArg() { return g_buffer_size; }

const std::string& CalibrationArg() { return g_calibration_path; }

void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
}

void EmitJsonLine(const std::string& line) {
  std::fprintf(JsonOut(), "%s\n", line.c_str());
  std::fflush(JsonOut());
}

double ScaleFactorFromArgs(int argc, char** argv) {
  double sf = kDefaultScaleFactor;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      g_smoke_mode = true;
      continue;
    }
    if (arg == "--hw") {
      g_hw_mode = true;
      continue;
    }
    if (arg == "--json-strict") {
      if (!g_json_strict) SetupJsonStrict();
      g_json_strict = true;
      continue;
    }
    if (arg.rfind("--batch=", 0) == 0) {
      long v = std::atol(arg.c_str() + 8);
      g_batch_size = v > 0 ? static_cast<size_t>(v) : 1;
      continue;
    }
    if (arg.rfind("--buffer=", 0) == 0) {
      long v = std::atol(arg.c_str() + 9);
      g_buffer_size = v > 0 ? static_cast<size_t>(v)
                            : BufferOperator::kDefaultBufferSize;
      continue;
    }
    if (arg.rfind("--calibration=", 0) == 0) {
      g_calibration_path = arg.substr(std::strlen("--calibration="));
      std::string error;
      if (!sim::CodeLayout::LoadCalibration(g_calibration_path, &error)) {
        std::fprintf(stderr, "--calibration failed: %s\n", error.c_str());
        std::exit(2);
      }
      Note("# code layout calibrated from %s (total %llu bytes)\n",
           g_calibration_path.c_str(),
           static_cast<unsigned long long>(
               sim::CodeLayout::Default().total_code_bytes()));
      continue;
    }
    double v = std::atof(arg.c_str());
    if (v > 0) sf = v;
  }
  if (g_smoke_mode && sf > kSmokeScaleFactor) sf = kSmokeScaleFactor;
  return sf;
}

void PrintJsonHeader(const char* bench_name, double scale_factor) {
  g_bench_name = bench_name;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"bench\": \"%s\", \"scale_factor\": %.6g, \"smoke\": %s, "
      "\"hw\": %s, \"batch_size\": %zu, \"buffer_size\": %zu, "
      "\"calibrated\": %s}",
      bench_name, scale_factor, g_smoke_mode ? "true" : "false",
      g_hw_mode ? "true" : "false", g_batch_size, g_buffer_size,
      g_calibration_path.empty() ? "false" : "true");
  EmitJsonLine(buf);
}

QueryRun RunQuery(Catalog& catalog, const std::string& sql,
                  const RunOptions& options) {
  sql::Binder binder(&catalog);
  auto query = binder.BindSql(sql);
  if (!query.ok()) {
    std::fprintf(stderr, "bind failed: %s\n  %s\n",
                 query.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  PlannerOptions planner_options;
  planner_options.refine = options.refine;
  planner_options.join_strategy = options.join_strategy;
  planner_options.batch_size =
      options.batch_size > 0 ? options.batch_size : BatchSizeArg();
  planner_options.refinement = options.refinement;
  planner_options.refinement.buffer_size = options.buffer_size;
  PhysicalPlanner planner(&catalog, planner_options);

  QueryRun run;
  auto plan = planner.CreatePlan(*query, &run.report);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n", plan.status().ToString().c_str());
    std::exit(1);
  }
  run.plan_text = PrintPlan(**plan);
  OperatorPtr root = std::move(*plan);

  bool hw = options.hw_profile || g_hw_mode;
  size_t sim_rows = 0;
  if (options.simulate) {
    sim::SimCpu cpu(options.sim_config);
    ExecContext ctx;
    ctx.cpu = &cpu;
    auto t0 = std::chrono::steady_clock::now();
    auto rows = ExecutePlanRows(root.get(), &ctx);
    for (int e = 1; e < options.executions && rows.ok(); ++e) {
      rows = ExecutePlanRows(root.get(), &ctx);
    }
    run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!rows.ok()) {
      std::fprintf(stderr, "exec failed: %s\n",
                   rows.status().ToString().c_str());
      std::exit(1);
    }
    run.rows = std::move(*rows);
    sim_rows = run.rows.size();
    run.breakdown = cpu.Breakdown();
  }

  if (hw) {
    // Separate pass with the simulator detached: the hardware counters must
    // measure the engine's instruction stream, not the cache simulator's.
    root = perf::ProfilePlan(std::move(root), &run.profile);
    ExecContext ctx;
    auto t0 = std::chrono::steady_clock::now();
    auto rows = ExecutePlanRows(root.get(), &ctx);
    for (int e = 1; e < options.executions && rows.ok(); ++e) {
      rows = ExecutePlanRows(root.get(), &ctx);
    }
    run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!rows.ok()) {
      std::fprintf(stderr, "hw-profiled exec failed: %s\n",
                   rows.status().ToString().c_str());
      std::exit(1);
    }
    if (options.simulate && rows->size() != sim_rows) {
      std::fprintf(stderr,
                   "hw-profiled run produced %zu rows, simulated run %zu\n",
                   rows->size(), sim_rows);
      std::exit(1);
    }
    if (!options.simulate) run.rows = std::move(*rows);
    run.profile.AttributeGroups(run.report);
  }
  return run;
}

QueryRun RunPlan(const std::function<OperatorPtr()>& build,
                 const RunOptions& options) {
  QueryRun run;
  OperatorPtr root = build();
  run.plan_text = PrintPlan(*root);
  sim::SimCpu cpu(options.sim_config);
  ExecContext ctx;
  ctx.cpu = &cpu;
  auto t0 = std::chrono::steady_clock::now();
  auto rows = ExecutePlanRows(root.get(), &ctx);
  for (int e = 1; e < options.executions && rows.ok(); ++e) {
    rows = ExecutePlanRows(root.get(), &ctx);
  }
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!rows.ok()) {
    std::fprintf(stderr, "exec failed: %s\n", rows.status().ToString().c_str());
    std::exit(1);
  }
  run.rows = std::move(*rows);
  run.breakdown = cpu.Breakdown();
  return run;
}

namespace {

/// {"sim": {...}, "sim_seconds": s[, "hw": {...}, "hw_wall_ns": n]}
std::string RunJson(const QueryRun& run) {
  std::string out = "{\"sim\": " + run.breakdown.counters.ToJson();
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"sim_seconds\": %.6f",
                run.breakdown.seconds());
  out += buf;
  std::snprintf(buf, sizeof(buf), ", \"wall_seconds\": %.6f",
                run.wall_seconds);
  out += buf;
  if (!run.profile.empty()) {
    out += ", \"hw\": " + run.profile.RootHw().ToJson();
    std::snprintf(buf, sizeof(buf), ", \"hw_wall_ns\": %llu",
                  static_cast<unsigned long long>(run.profile.RootWallNs()));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace

void EmitComparisonJson(const std::string& title, const QueryRun& original,
                        const QueryRun& buffered) {
  const sim::SimCounters& a = original.breakdown.counters;
  const sim::SimCounters& b = buffered.breakdown.counters;
  auto reduction = [](uint64_t orig, uint64_t buf) {
    return orig == 0 ? 0.0
                     : 100.0 * (1.0 - static_cast<double>(buf) /
                                          static_cast<double>(orig));
  };
  std::string out = "{\"bench\": \"" + g_bench_name + "\", \"comparison\": \"" +
                    title + "\"";
  out += ", \"original\": " + RunJson(original);
  out += ", \"buffered\": " + RunJson(buffered);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"sim_l1i_reduction_pct\": %.2f, "
                "\"sim_mispredict_reduction_pct\": %.2f, "
                "\"sim_improvement_pct\": %.2f",
                reduction(a.l1i_misses, b.l1i_misses),
                reduction(a.mispredicts, b.mispredicts),
                original.breakdown.seconds() > 0
                    ? 100.0 * (1.0 - buffered.breakdown.seconds() /
                                         original.breakdown.seconds())
                    : 0.0);
  out += buf;
  bool hw = !original.profile.empty() && !buffered.profile.empty();
  out += ", \"hw_available\": ";
  out += hw && original.profile.hw_available() ? "true" : "false";
  if (hw && !original.profile.hw_available()) {
    out += ", \"hw_unavailable_reason\": \"" +
           original.profile.unavailable_reason() + "\"";
  }
  if (hw && original.profile.hw_available()) {
    perf::HwCounters ha = original.profile.RootHw();
    perf::HwCounters hb = buffered.profile.RootHw();
    std::snprintf(buf, sizeof(buf),
                  ", \"hw_l1i_reduction_pct\": %.2f, "
                  "\"hw_branch_miss_reduction_pct\": %.2f",
                  reduction(ha.l1i_misses, hb.l1i_misses),
                  reduction(ha.branch_misses, hb.branch_misses));
    out += buf;
  }
  out += "}";
  EmitJsonLine(out);
}

void PrintComparison(const std::string& title, const QueryRun& original,
                     const QueryRun& buffered) {
  Note("== %s ==\n", title.c_str());
  Note("original plan:\n%s", original.plan_text.c_str());
  Note("buffered plan:\n%s", buffered.plan_text.c_str());
  Note("%s", original.breakdown.ToString("original").c_str());
  Note("%s", buffered.breakdown.ToString("buffered").c_str());

  const sim::SimCounters& a = original.breakdown.counters;
  const sim::SimCounters& b = buffered.breakdown.counters;
  auto reduction = [](uint64_t orig, uint64_t buf) {
    return orig == 0 ? 0.0
                     : 100.0 * (1.0 - static_cast<double>(buf) /
                                          static_cast<double>(orig));
  };
  Note(
      "trace-cache misses  %12llu -> %12llu  (%.1f%% reduction)\n"
      "branch mispredicts  %12llu -> %12llu  (%.1f%% reduction)\n"
      "ITLB misses         %12llu -> %12llu  (%.1f%% reduction)\n"
      "L2 misses           %12llu -> %12llu\n"
      "instructions        %12llu -> %12llu\n"
      "elapsed (sim)       %12.4f -> %12.4f s  (%.1f%% improvement)\n\n",
      static_cast<unsigned long long>(a.l1i_misses),
      static_cast<unsigned long long>(b.l1i_misses),
      reduction(a.l1i_misses, b.l1i_misses),
      static_cast<unsigned long long>(a.mispredicts),
      static_cast<unsigned long long>(b.mispredicts),
      reduction(a.mispredicts, b.mispredicts),
      static_cast<unsigned long long>(a.itlb_misses),
      static_cast<unsigned long long>(b.itlb_misses),
      reduction(a.itlb_misses, b.itlb_misses),
      static_cast<unsigned long long>(a.l2_misses),
      static_cast<unsigned long long>(b.l2_misses),
      static_cast<unsigned long long>(a.instructions),
      static_cast<unsigned long long>(b.instructions),
      original.breakdown.seconds(), buffered.breakdown.seconds(),
      100.0 * (1.0 - buffered.breakdown.seconds() /
                         original.breakdown.seconds()));
  if (!original.profile.empty()) {
    Note("original hw profile:\n%s", original.profile.ToText().c_str());
  }
  if (!buffered.profile.empty()) {
    Note("buffered hw profile:\n%s", buffered.profile.ToText().c_str());
  }
  EmitComparisonJson(title, original, buffered);
}

}  // namespace bufferdb::bench
