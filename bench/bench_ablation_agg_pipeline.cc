// Ablation: grouped-aggregation pipeline shape under buffering. Compares
// TPC-H Q1's grouping executed as (a) HashAggregation directly over the
// scan (one pipeline) vs (b) Sort + StreamAggregation (the sort breaks the
// pipeline: the scan is buffered below it, the streaming aggregation runs
// above it). Both benefit from refinement; the hash variant keeps a single
// long pipeline, which is where buffering pays most.

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/date.h"
#include "core/plan_refiner.h"
#include "exec/hash_aggregation.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "exec/stream_aggregation.h"
#include "plan/cardinality.h"
#include "plan/plan_printer.h"
#include "sim/sim_cpu.h"

using namespace bufferdb;         // NOLINT
using namespace bufferdb::bench;  // NOLINT

namespace {

ExprPtr Col(const Schema& s, const char* name) {
  auto r = MakeColumnRef(s, name);
  return std::move(*r);
}

std::vector<GroupKeyExpr> Groups(const Schema& s) {
  std::vector<GroupKeyExpr> groups;
  groups.push_back(GroupKeyExpr{Col(s, "l_returnflag"), "l_returnflag"});
  groups.push_back(GroupKeyExpr{Col(s, "l_linestatus"), "l_linestatus"});
  return groups;
}

std::vector<AggSpec> Specs(const Schema& s) {
  std::vector<AggSpec> specs;
  specs.push_back(AggSpec{AggFunc::kSum, Col(s, "l_quantity"), "sum_qty"});
  specs.push_back(
      AggSpec{AggFunc::kAvg, Col(s, "l_extendedprice"), "avg_price"});
  specs.push_back(AggSpec{AggFunc::kCountStar, nullptr, "count_order"});
  return specs;
}

OperatorPtr Scan(Table* lineitem) {
  const Schema& s = lineitem->schema();
  auto pred = MakeBinary(BinaryOp::kLe, Col(s, "l_shipdate"),
                         MakeLiteral(Value::Date(MakeDate(1998, 9, 2))));
  auto scan =
      std::make_unique<SeqScanOperator>(lineitem, std::move(*pred));
  scan->set_estimated_rows(EstimateSelectivity(*scan->predicate(), lineitem) *
                           static_cast<double>(lineitem->num_rows()));
  return scan;
}

double Run(OperatorPtr plan, bool refine, const char* name) {
  if (refine) {
    PlanRefiner refiner;
    plan = refiner.Refine(std::move(plan));
  }
  sim::SimCpu cpu;
  ExecContext ctx;
  ctx.cpu = &cpu;
  auto rows = ExecutePlanRows(plan.get(), &ctx);
  if (!rows.ok()) std::exit(1);
  if (refine) std::fprintf(stderr, "%s (refined):\n%s", name, PrintPlan(*plan).c_str());
  return cpu.Breakdown().seconds();
}

}  // namespace

int main(int argc, char** argv) {
  double sf = ScaleFactorFromArgs(argc, argv);
  PrintJsonHeader("ablation_agg_pipeline", sf);
  Catalog& catalog = SharedTpch(sf);
  Table* lineitem = catalog.GetTable("lineitem");
  const Schema& s = lineitem->schema();

  std::fprintf(stderr, "Ablation: grouped-aggregation pipeline shape (TPC-H Q1)\n\n");

  auto hash_plan = [&] {
    auto agg = std::make_unique<HashAggregationOperator>(Scan(lineitem),
                                                         Groups(s), Specs(s));
    agg->set_estimated_rows(4);
    return agg;
  };
  auto stream_plan = [&] {
    std::vector<SortKey> keys;
    keys.push_back(SortKey{s.FindColumn("l_returnflag"), false});
    keys.push_back(SortKey{s.FindColumn("l_linestatus"), false});
    auto scan = Scan(lineitem);
    double rows = scan->estimated_rows();
    auto sort =
        std::make_unique<SortOperator>(std::move(scan), std::move(keys));
    sort->set_estimated_rows(rows);
    auto agg = std::make_unique<StreamAggregationOperator>(
        std::move(sort), Groups(s), Specs(s));
    agg->set_estimated_rows(4);
    return agg;
  };

  double hash_orig = Run(hash_plan(), false, "hash");
  double hash_refined = Run(hash_plan(), true, "hash aggregation");
  double stream_orig = Run(stream_plan(), false, "stream");
  double stream_refined = Run(stream_plan(), true, "sort + stream aggregation");

  std::fprintf(stderr, "\n%-28s %12s %12s %12s\n", "pipeline", "original(s)",
              "refined(s)", "improvement");
  std::fprintf(stderr, "%-28s %12.4f %12.4f %11.1f%%\n", "scan -> hash agg", hash_orig,
              hash_refined, 100.0 * (1.0 - hash_refined / hash_orig));
  std::fprintf(stderr, "%-28s %12.4f %12.4f %11.1f%%\n", "scan -> sort -> stream agg",
              stream_orig, stream_refined,
              100.0 * (1.0 - stream_refined / stream_orig));
  return 0;
}
