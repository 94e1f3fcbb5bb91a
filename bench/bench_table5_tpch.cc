// Table 5: improvement from plan refinement on TPC-H queries. The paper
// reports noticeable gains for pipeline-heavy queries without subqueries
// (7%, 4%, 15%, 10% for four of them). Our SQL subset covers Q1, Q6 and the
// paper's Query 3, plus simplified Q12/Q14 variants (no CASE/LIKE — the
// simplifications keep the operator pipelines, which is what buffering
// exercises; see EXPERIMENTS.md).
//
// Emits one JSON record per query: the Buffers the refiner added and the
// instruction-side simulated counters of both plans. The l1d_*/l2_*
// counters depend on where the heap lands, so they move run to run on
// unchanged code and are left out of the gated record.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace bufferdb::bench;  // NOLINT

namespace {

std::string InstructionSideJson(const bufferdb::sim::SimCounters& c) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"instructions\": %llu, \"module_calls\": %llu, "
                "\"l1i_accesses\": %llu, \"l1i_misses\": %llu, "
                "\"itlb_accesses\": %llu, \"itlb_misses\": %llu, "
                "\"branches\": %llu, \"mispredicts\": %llu}",
                static_cast<unsigned long long>(c.instructions),
                static_cast<unsigned long long>(c.module_calls),
                static_cast<unsigned long long>(c.l1i_accesses),
                static_cast<unsigned long long>(c.l1i_misses),
                static_cast<unsigned long long>(c.itlb_accesses),
                static_cast<unsigned long long>(c.itlb_misses),
                static_cast<unsigned long long>(c.branches),
                static_cast<unsigned long long>(c.mispredicts));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = ScaleFactorFromArgs(argc, argv);
  PrintJsonHeader("table5_tpch", sf);
  bufferdb::Catalog& catalog = SharedTpch(sf);

  struct NamedQuery {
    const char* name;
    std::string sql;
  };
  std::vector<NamedQuery> queries = {
      {"Q1 (full, grouped)",
       "SELECT l_returnflag, l_linestatus, "
       "SUM(l_quantity) AS sum_qty, "
       "SUM(l_extendedprice) AS sum_base_price, "
       "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
       "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
       "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
       "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
       "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
       "GROUP BY l_returnflag, l_linestatus "
       "ORDER BY l_returnflag, l_linestatus"},
      {"Q3* (paper's Query 3)", kQuery3},
      {"Q3 (full, 3-table)",
       "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
       "FROM customer, orders, lineitem "
       "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
       "AND c_mktsegment = 'BUILDING' "
       "AND o_orderdate < DATE '1995-03-15' "
       "AND l_shipdate > DATE '1995-03-15' "
       "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10"},
      {"Q10~ (returned items)",
       "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
       "AS revenue "
       "FROM customer, orders, lineitem "
       "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
       "AND o_orderdate >= DATE '1993-10-01' "
       "AND o_orderdate < DATE '1994-01-01' "
       "AND l_returnflag = 'R' "
       "GROUP BY c_custkey, c_name ORDER BY revenue DESC LIMIT 20"},
      {"Q6 (forecast revenue)",
       "SELECT SUM(l_extendedprice * l_discount) AS revenue "
       "FROM lineitem "
       "WHERE l_shipdate >= DATE '1994-01-01' "
       "AND l_shipdate < DATE '1995-01-01' "
       "AND l_discount >= 0.05 AND l_discount <= 0.07 "
       "AND l_quantity < 24"},
      {"Q12~ (shipmode counts)",
       "SELECT l_shipmode, COUNT(*) AS line_count "
       "FROM orders, lineitem "
       "WHERE o_orderkey = l_orderkey "
       "AND (l_shipmode = 'MAIL' OR l_shipmode = 'SHIP') "
       "AND l_receiptdate >= DATE '1994-01-01' "
       "AND l_receiptdate < DATE '1995-01-01' "
       "GROUP BY l_shipmode ORDER BY l_shipmode"},
      {"Q14~ (promo-ish revenue)",
       "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
       "COUNT(*) AS lines "
       "FROM lineitem, part "
       "WHERE l_partkey = p_partkey "
       "AND l_shipdate >= DATE '1995-09-01' "
       "AND l_shipdate < DATE '1995-10-01'"},
  };

  std::fprintf(stderr, "Table 5: TPC-H queries, original vs refined plans\n\n");
  std::fprintf(stderr, "%-24s %14s %14s %12s %8s\n", "query", "original(s)",
              "buffered(s)", "improvement", "buffers");
  for (const NamedQuery& q : queries) {
    QueryRun original = RunQuery(catalog, q.sql);
    RunOptions refined;
    refined.refine = true;
    QueryRun buffered = RunQuery(catalog, q.sql, refined);
    std::fprintf(stderr, "%-24s %14.4f %14.4f %11.1f%% %8d\n", q.name,
                original.breakdown.seconds(), buffered.breakdown.seconds(),
                100.0 * (1.0 - buffered.breakdown.seconds() /
                                   original.breakdown.seconds()),
                buffered.report.buffers_added);
    EmitJsonLine("{\"bench\": \"table5_tpch\", \"query\": \"" +
                 std::string(q.name) + "\", \"buffers_added\": " +
                 std::to_string(buffered.report.buffers_added) +
                 ", \"original\": {\"sim\": " +
                 InstructionSideJson(original.breakdown.counters) +
                 "}, \"buffered\": {\"sim\": " +
                 InstructionSideJson(buffered.breakdown.counters) + "}}");
  }
  return 0;
}
