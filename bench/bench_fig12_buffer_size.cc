// Figure 12: buffered Query 1 performance as a function of the buffer
// size. The paper: small buffers pay overhead; beyond ~1000 entries there is
// no further benefit.
//
// Three sweep configs. Besides the paper's curve, two gate the static
// Buffer's simulated counters where its capacity matters most:
//   "default"         — Query 1 on the Table-1 machine (the paper's figure).
//   "low-cardinality" — a tiny stream: Query 1 with an equality ship-date
//                       predicate leaves a post-scan stream of a handful of
//                       rows, which the refiner buffers anyway
//                       (cardinality_threshold forced to 0, modeling an
//                       estimation error). The plan runs several times like
//                       a prepared statement, so every execution pays the
//                       buffering overhead on a sub-threshold stream.
//   "rescan-replay"   — a rescanned inner: a naive nested-loop join
//                       (hand-built — the SQL planner always upgrades to
//                       hash/merge/index joins) rescans a buffered inner
//                       stream once per outer row. A buffer that holds the
//                       whole stream replays rescans from its array; one
//                       sized under the stream re-executes the inner scan
//                       every time.
// Each config emits the unbuffered "original" run, one "static" record per
// capacity, and a "fixed_default" record at the default capacity (1000).
// The bench exits nonzero if any buffered run returns other rows than the
// config's original run.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/buffer_operator.h"
#include "exec/aggregation.h"
#include "exec/nested_loop_join.h"
#include "exec/seq_scan.h"
#include "expr/expression.h"
#include "profile/calibration_queries.h"
#include "storage/table.h"

using namespace bufferdb::bench;  // NOLINT

namespace {

// Rescan-replay scenario shape. Synthetic tables, so the config is
// scale-factor-invariant (the sweep's story is the rescan count, not the
// data volume). The inner stream (1500 rows) straddles the sweep: static
// capacities under it re-execute the scan per outer row, capacities over it
// replay from the array.
constexpr size_t kRescanOuterRows = 128;
constexpr size_t kRescanInnerRows = 1500;
constexpr int64_t kRescanKeyRange = 64;

bufferdb::ExprPtr ColAt(int column, bufferdb::DataType type,
                        const char* name) {
  return bufferdb::MakeColumnRefUnchecked(column, type, name);
}

bufferdb::ExprPtr Bin(bufferdb::BinaryOp op, bufferdb::ExprPtr l,
                      bufferdb::ExprPtr r) {
  auto res = bufferdb::MakeBinary(op, std::move(l), std::move(r));
  if (!res.ok()) {
    std::fprintf(stderr, "expr build failed: %s\n",
                 res.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*res);
}

// Agg(SUM(outer.quantity * inner.price), COUNT(*)) over
// NestLoop(Scan(outer), [Buffer(]Scan(inner)[)]) on outer.key == inner.key.
// The SUM makes the result fingerprint sensitive to exactly which pairs
// matched, so a replay that served wrong tuples would show up.
bufferdb::OperatorPtr BuildRescanPlan(bufferdb::Table* outer_table,
                                      bufferdb::Table* inner_table,
                                      bool buffered, size_t buffer_size) {
  using bufferdb::AggFunc;
  using bufferdb::AggSpec;
  using bufferdb::BinaryOp;
  using bufferdb::DataType;
  using bufferdb::OperatorPtr;
  OperatorPtr inner =
      std::make_unique<bufferdb::SeqScanOperator>(inner_table, nullptr);
  if (buffered) {
    inner = std::make_unique<bufferdb::BufferOperator>(std::move(inner),
                                                       buffer_size);
  }
  OperatorPtr outer =
      std::make_unique<bufferdb::SeqScanOperator>(outer_table, nullptr);
  // Both synthetic tables share column names, so the inner half of the
  // concatenated join row is addressed by index.
  const int w = static_cast<int>(outer_table->schema().num_columns());
  OperatorPtr join = std::make_unique<bufferdb::NestLoopJoinOperator>(
      std::move(outer), std::move(inner),
      Bin(BinaryOp::kEq, ColAt(1, DataType::kInt64, "key"),
          ColAt(w + 1, DataType::kInt64, "key")));
  std::vector<AggSpec> specs;
  specs.push_back(
      AggSpec{AggFunc::kSum,
              Bin(BinaryOp::kMul, ColAt(5, DataType::kDouble, "quantity"),
                  ColAt(w + 2, DataType::kDouble, "price")),
              "sum_qty_price"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "count_pairs"});
  return std::make_unique<bufferdb::AggregationOperator>(std::move(join),
                                                         std::move(specs));
}

std::string RowsFingerprint(const QueryRun& run) {
  std::string out;
  for (const auto& row : run.rows) {
    for (const auto& v : row) {
      out += v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = ScaleFactorFromArgs(argc, argv);
  PrintJsonHeader("fig12_buffer_size", sf);
  bufferdb::Catalog& catalog = SharedTpch(sf);

  // Query 1 with an equality ship-date predicate: the scan's work is
  // unchanged but the buffered (post-predicate) stream is a handful of rows
  // — the same shape CalibrateCardinalityThreshold measures the §7.3
  // crossover on, and far under it at smoke and default scale factors.
  const char kSelectiveQuery[] =
      "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
      "AS sum_charge, AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
      "FROM lineitem WHERE l_shipdate = DATE '1992-01-03'";

  struct SweepConfig {
    const char* name;
    const char* sql;
    bufferdb::sim::SimConfig sim;
    int executions = 1;
    // Refinement overrides; negative keeps the RefinementOptions default.
    double cardinality_threshold = -1.0;
    // Hand-built rescan nested-loop plan instead of planning `sql`.
    bool rescan = false;
    // Per-config static sweep points; empty uses the full default list.
    std::vector<size_t> sizes;
  };
  std::vector<SweepConfig> configs;
  {
    SweepConfig def;
    def.name = "default";
    def.sql = kQuery1;
    configs.push_back(def);
  }
  {
    SweepConfig low;
    low.name = "low-cardinality";
    low.sql = kSelectiveQuery;
    // Force the refiner to buffer the sub-threshold stream (a cardinality
    // mis-estimate).
    low.cardinality_threshold = 0.0;
    low.executions = 8;
    configs.push_back(low);
  }
  {
    SweepConfig rescan;
    rescan.name = "rescan-replay";
    rescan.sql = "";
    rescan.rescan = true;
    // Trimmed sweep: the sub-stream capacities all cost the same (a full
    // inner re-scan per outer row) and each such run is ~128x the scan work.
    rescan.sizes = {256, 512, 1024, 2048, 4096, 8192};
    configs.push_back(rescan);
  }

  // Tables for the rescan-replay config (fixed size: see kRescan* above).
  std::unique_ptr<bufferdb::Table> rescan_outer =
      bufferdb::profile::BuildSyntheticItems(kRescanOuterRows, /*seed=*/101,
                                             kRescanKeyRange);
  std::unique_ptr<bufferdb::Table> rescan_inner =
      bufferdb::profile::BuildSyntheticItems(kRescanInnerRows, /*seed=*/202,
                                             kRescanKeyRange);

  const std::vector<size_t> kSizes = {1,    2,    4,    8,    16,   32,
                                      64,   128,  256,  512,  1024, 2048,
                                      4096, 8192, 16384, 32768};
  const size_t kDefault = bufferdb::BufferOperator::kDefaultBufferSize;

  int failures = 0;
  for (const SweepConfig& config : configs) {
    RunOptions base;
    base.sim_config = config.sim;
    base.executions = config.executions;
    if (config.cardinality_threshold >= 0.0) {
      base.refinement.cardinality_threshold = config.cardinality_threshold;
    }
    // One runner for every series of this config: SQL configs plan `sql`
    // with/without refinement; the rescan config builds its tree by hand.
    auto run_one = [&](bool buffered, size_t size) {
      if (config.rescan) {
        return RunPlan(
            [&] {
              return BuildRescanPlan(rescan_outer.get(), rescan_inner.get(),
                                     buffered, size);
            },
            base);
      }
      RunOptions options = base;
      options.refine = buffered;
      options.buffer_size = size;
      return RunQuery(catalog, config.sql, options);
    };
    QueryRun original = run_one(false, kDefault);
    const std::string original_rows = RowsFingerprint(original);
    auto check_rows = [&](const QueryRun& run, size_t size) {
      if (RowsFingerprint(run) == original_rows) return;
      Note("FAIL [%s]: buffer size %zu returned other rows than the "
           "unbuffered run\n",
           config.name, size);
      ++failures;
    };
    Note("Figure 12 [%s]: varied buffer sizes (%d execution%s)\n\n",
         config.name, config.executions, config.executions == 1 ? "" : "s");
    Note("%-12s %14s\n", "buffer size", "elapsed (sim s)");
    Note("%-12s %14.4f\n", "original", original.breakdown.seconds());
    // Records embed the full SimCounters JSON, so build them append-form on a
    // std::string; a fixed char buffer holds only the bounded scalar prefix.
    char prefix[512];
    std::string line;
    std::snprintf(prefix, sizeof(prefix),
                  "{\"bench\": \"fig12_buffer_size\", \"config\": \"%s\", "
                  "\"series\": \"original\", \"sim_seconds\": %.6f, "
                  "\"sim\": ",
                  config.name, original.breakdown.seconds());
    line = prefix;
    line += original.breakdown.counters.ToJson();
    line += "}";
    EmitJsonLine(line);

    bool swept_default = false;
    const std::vector<size_t>& sizes =
        config.sizes.empty() ? kSizes : config.sizes;
    for (size_t size : sizes) {
      QueryRun run = run_one(true, size);
      check_rows(run, size);
      double seconds = run.breakdown.seconds();
      Note("%-12zu %14.4f\n", size, seconds);
      std::snprintf(prefix, sizeof(prefix),
                    "{\"bench\": \"fig12_buffer_size\", \"config\": \"%s\", "
                    "\"series\": \"static\", \"buffer_size\": %zu, "
                    "\"sim_seconds\": %.6f, \"sim\": ",
                    config.name, size, seconds);
      line = prefix;
      line += run.breakdown.counters.ToJson();
      line += "}";
      EmitJsonLine(line);
      swept_default = swept_default || size == kDefault;
    }
    if (!swept_default) {
      // kDefault (1000) is not one of the power-of-two sweep points; run it
      // explicitly — it is the capacity the refiner inserts.
      QueryRun run = run_one(true, kDefault);
      check_rows(run, kDefault);
      Note("%-12zu %14.4f  (fixed default)\n\n", kDefault,
           run.breakdown.seconds());
      std::snprintf(prefix, sizeof(prefix),
                    "{\"bench\": \"fig12_buffer_size\", \"config\": \"%s\", "
                    "\"series\": \"fixed_default\", \"buffer_size\": %zu, "
                    "\"sim_seconds\": %.6f, \"sim\": ",
                    config.name, kDefault, run.breakdown.seconds());
      line = prefix;
      line += run.breakdown.counters.ToJson();
      line += "}";
      EmitJsonLine(line);
    }
  }
  return failures == 0 ? 0 : 1;
}
