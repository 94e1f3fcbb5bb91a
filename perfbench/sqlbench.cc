// SQL-to-rows benchmark program.
//
// Loads TPC-H, then runs one workload as a closed loop with a single client:
// each query's SQL text goes through ParseSelect -> Binder::Bind ->
// PhysicalPlanner::CreatePlan (refine off) -> PlanRefiner::Refine ->
// Open / Next or NextBatch / Close, and the next query starts only after
// the previous one returned all its rows. Nothing is cached between
// queries. Every public call is timed from outside, and every result is
// checked against a reference execution (serial, tuple-at-a-time,
// unrefined, interpreted, row-store scans).
//
// Prints human-readable progress on stderr and one JSON report on stdout
// (see perfbench/README.md for the fields). perfbench/run.py builds this
// binary and turns the report into the benchmark's result line.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "core/adaptive_buffer.h"
#include "core/plan_refiner.h"
#include "parallel/exchange.h"
#include "perf/perf_counters.h"
#include "perf/profiled_operator.h"
#include "plan/physical_planner.h"
#include "sim/sim_cpu.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/tuple.h"
#include "tpch/tpch_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_AVX2
#define PERFBENCH_AVX2 0
#endif

namespace bufferdb::perfbench {
namespace {

using Rows = std::vector<std::vector<Value>>;

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Workloads

// The paper's Query 1/2/3 (section 4) followed by the Table 5 set. Kept
// here rather than shared with bench/, so that the benchmark's inputs
// change only when perfbench/ does.
const char* const kTpchQueries[] = {
    // Paper Query 1.
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
    "AS sum_charge, AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'",
    // Paper Query 2.
    "SELECT COUNT(*) AS count_order FROM lineitem "
    "WHERE l_shipdate <= DATE '1998-09-02'",
    // Paper Query 3.
    "SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount) "
    "FROM lineitem, orders "
    "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'",
    // TPC-H Q1.
    "SELECT l_returnflag, l_linestatus, "
    "SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus "
    "ORDER BY l_returnflag, l_linestatus",
    // TPC-H Q3.
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND c_mktsegment = 'BUILDING' "
    "AND o_orderdate < DATE '1995-03-15' "
    "AND l_shipdate > DATE '1995-03-15' "
    "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10",
    // TPC-H Q10, simplified.
    "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
    "AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND o_orderdate >= DATE '1993-10-01' "
    "AND o_orderdate < DATE '1994-01-01' "
    "AND l_returnflag = 'R' "
    "GROUP BY c_custkey, c_name ORDER BY revenue DESC LIMIT 20",
    // TPC-H Q6.
    "SELECT SUM(l_extendedprice * l_discount) AS revenue "
    "FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' "
    "AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount >= 0.05 AND l_discount <= 0.07 "
    "AND l_quantity < 24",
    // TPC-H Q12, simplified.
    "SELECT l_shipmode, COUNT(*) AS line_count "
    "FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey "
    "AND (l_shipmode = 'MAIL' OR l_shipmode = 'SHIP') "
    "AND l_receiptdate >= DATE '1994-01-01' "
    "AND l_receiptdate < DATE '1995-01-01' "
    "GROUP BY l_shipmode ORDER BY l_shipmode",
    // TPC-H Q14, simplified.
    "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
    "COUNT(*) AS lines "
    "FROM lineitem, part "
    "WHERE l_partkey = p_partkey "
    "AND l_shipdate >= DATE '1995-09-01' "
    "AND l_shipdate < DATE '1995-10-01'",
};

std::string Format(const char* fmt, int64_t a, int64_t b = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<long long>(a),
                static_cast<long long>(b));
  return buf;
}

int64_t RowCount(const Catalog& catalog, const char* table) {
  return static_cast<int64_t>(catalog.GetTable(table)->num_rows());
}

// A stream of short, selective queries whose literals come from `seed`.
// Each template returns at most a few hundred rows. Key ranges are narrow
// against the 4096-row zone-map blocks, so few of them straddle two blocks
// and the stream's cost depends little on the seed; many rounds average
// out the rest.
std::vector<std::string> PointQueries(const Catalog& catalog, uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0x706f696e74ULL));
  const int64_t orders = RowCount(catalog, "orders");
  const int64_t customers = RowCount(catalog, "customer");
  const int64_t parts = RowCount(catalog, "part");
  auto key = [&](int64_t n, int64_t width) {
    return rng.Uniform(1, std::max<int64_t>(1, n - width));
  };
  std::vector<std::string> out;
  constexpr int kRounds = 32;
  for (int round = 0; round < kRounds; ++round) {
    out.push_back(Format(
        "SELECT n_nationkey, n_name, r_name FROM nation, region "
        "WHERE n_regionkey = r_regionkey AND r_regionkey = %lld "
        "ORDER BY n_nationkey",
        rng.Uniform(0, 4)));
    out.push_back(Format(
        "SELECT s_suppkey, s_name, s_acctbal FROM supplier "
        "WHERE s_nationkey = %lld ORDER BY s_acctbal DESC, s_suppkey LIMIT 10",
        rng.Uniform(0, 24)));
    int64_t lo = key(orders, 32);
    out.push_back(Format(
        "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
        "FROM lineitem WHERE l_orderkey >= %lld AND l_orderkey < %lld "
        "ORDER BY l_orderkey, l_linenumber",
        lo, lo + 32));
    lo = key(orders, 200);
    out.push_back(Format(
        "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total "
        "FROM orders WHERE o_orderkey BETWEEN %lld AND %lld "
        "GROUP BY o_orderstatus ORDER BY o_orderstatus",
        lo, lo + 199));
    lo = key(customers, 100);
    out.push_back(Format(
        "SELECT c_custkey, c_name, c_acctbal FROM customer "
        "WHERE c_custkey BETWEEN %lld AND %lld AND c_acctbal > 0",
        lo, lo + 99));
    lo = key(orders, 100);
    out.push_back(Format(
        "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, AVG(l_discount) AS disc "
        "FROM lineitem WHERE l_orderkey BETWEEN %lld AND %lld",
        lo, lo + 99));
    lo = key(orders, 50);
    out.push_back(Format(
        "SELECT o_orderkey, o_totalprice, c_name FROM orders, customer "
        "WHERE o_custkey = c_custkey AND o_orderkey BETWEEN %lld AND %lld "
        "ORDER BY o_orderkey",
        lo, lo + 49));
    lo = key(parts, 200);
    out.push_back(Format(
        "SELECT p_partkey, p_name, p_retailprice FROM part "
        "WHERE p_partkey BETWEEN %lld AND %lld "
        "ORDER BY p_retailprice DESC, p_partkey LIMIT 20",
        lo, lo + 199));
  }
  return out;
}

// How a query is planned and drained.
struct ExecConfig {
  size_t batch_size = 1;
  size_t parallel_degree = 1;
  bool refine = true;
  bool vectorize = true;
  bool columnar = true;
};

// Degree of tpch_parallel, capped at the host's hardware threads.
constexpr size_t kParallelDegree = 4;

// The configuration every timed result is checked against.
constexpr ExecConfig kReferenceConfig{1, 1, false, false, false};

struct Workload {
  std::string name;
  ExecConfig config;
  bool point = false;  // Seeded point queries instead of the TPC-H list.
};

bool LookupWorkload(const std::string& name, Workload* out) {
  const size_t batch = Operator::kDefaultBatchSize;
  const size_t degree =
      std::min<size_t>(kParallelDegree, std::max(1u, std::thread::hardware_concurrency()));
  if (name == "tpch_tuple") {
    *out = {name, {1, 1, true, true, true}, false};
  } else if (name == "tpch_batch") {
    *out = {name, {batch, 1, true, true, true}, false};
  } else if (name == "point_queries") {
    *out = {name, {batch, 1, true, true, true}, true};
  } else if (name == "tpch_parallel") {
    *out = {name, {batch, degree, true, true, true}, false};
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> WorkloadQueries(const Workload& w,
                                         const Catalog& catalog,
                                         uint64_t seed) {
  if (w.point) return PointQueries(catalog, seed);
  return std::vector<std::string>(std::begin(kTpchQueries),
                                  std::end(kTpchQueries));
}

// ---------------------------------------------------------------------------
// One query, SQL text to rows

// Wall time of each public call, in nanoseconds.
struct Phases {
  double parse = 0, bind = 0, plan = 0, refine = 0, open = 0, drain = 0,
         close = 0, teardown = 0;
  Phases& operator+=(const Phases& o) {
    parse += o.parse;
    bind += o.bind;
    plan += o.plan;
    refine += o.refine;
    open += o.open;
    drain += o.drain;
    close += o.close;
    teardown += o.teardown;
    return *this;
  }
};

// Per-operator figures from a traced (profiled) execution.
struct TraceFigures {
  std::map<std::string, double> self_ns;  // Keyed by operator kind.
  double rows_moved = 0;
  double calls = 0;
  double fragment_ns_max = 0;
  double fragment_ns_mean = 0;
  double consumer_wait_ns = 0;
  TraceFigures& operator+=(const TraceFigures& o) {
    for (const auto& [kind, ns] : o.self_ns) self_ns[kind] += ns;
    rows_moved += o.rows_moved;
    calls += o.calls;
    fragment_ns_max += o.fragment_ns_max;
    fragment_ns_mean += o.fragment_ns_mean;
    consumer_wait_ns += o.consumer_wait_ns;
    return *this;
  }
};

struct QueryResult {
  Status status;
  double latency_ns = 0;  // ParseSelect to Close, plus freeing the plan.
  Phases phases;
  bool ordered = false;  // The query has ORDER BY.
  Rows rows;
  int buffers_added = 0;
  size_t groups = 0;
  uint64_t refills = 0;
  uint64_t tuples_buffered = 0;
  TraceFigures trace;
};

// Operator kinds reported by traced runs.
const char* const kOperatorKinds[] = {
    "scan",    "columnscan", "indexscan", "filter", "project",  "hashjoin",
    "nestloop", "agg",       "hashagg",   "sort",   "topn",     "limit",
    "buffer",  "exchange",   "aggmerge",  "fusedpipeline"};

// Operator kind: the label before its first '(' in lower case, e.g.
// "ColumnScan(lineitem)" -> "columnscan".
std::string OperatorKind(const std::string& label) {
  std::string kind = label.substr(0, label.find('('));
  for (char& c : kind) c = static_cast<char>(std::tolower(c));
  return kind;
}

Status ExchangeErrors(const Operator& op) {
  if (const auto* ex = dynamic_cast<const parallel::ExchangeOperator*>(&op)) {
    Status st = ex->error();
    if (!st.ok()) return st;
  }
  for (size_t i = 0; i < op.num_children(); ++i) {
    Status st = ExchangeErrors(*op.child(i));
    if (!st.ok()) return st;
  }
  return Status::OK();
}

TraceFigures FiguresFromProfile(const perf::QueryProfile& profile) {
  TraceFigures f;
  std::map<int, double> fragment_ns;
  for (const perf::OperatorStats& node : profile.nodes()) {
    double self = static_cast<double>(profile.ExclusiveWallNs(node.id));
    std::string kind = OperatorKind(node.label);
    f.self_ns[kind] += self;
    f.rows_moved += static_cast<double>(node.rows);
    f.calls += static_cast<double>(node.next_calls + node.batch_calls);
    if (node.fragment >= 0) fragment_ns[node.fragment] += self;
    if (node.fragment < 0 && kind == "exchange") f.consumer_wait_ns += self;
  }
  if (!fragment_ns.empty()) {
    double sum = 0;
    for (const auto& [fragment, ns] : fragment_ns) {
      f.fragment_ns_max = std::max(f.fragment_ns_max, ns);
      sum += ns;
    }
    f.fragment_ns_mean = sum / static_cast<double>(fragment_ns.size());
  }
  return f;
}

// Runs `sql` from text to rows under `config`. `cpu` (optional) attaches
// the simulated CPU; `traced` wraps the refined plan in the profiler.
QueryResult RunQuery(const Catalog& catalog, const std::string& sql,
                     const ExecConfig& config, sim::SimCpu* cpu, bool traced) {
  QueryResult r;
  const double t0 = NowNs();
  Result<sql::SelectStatement> stmt = sql::ParseSelect(sql);
  const double t1 = NowNs();
  r.phases.parse = t1 - t0;
  if (!stmt.ok()) {
    r.status = stmt.status();
    return r;
  }
  r.ordered = !stmt->order_by.empty();

  sql::Binder binder(&catalog);
  Result<LogicalQuery> query = binder.Bind(*stmt);
  const double t2 = NowNs();
  r.phases.bind = t2 - t1;
  if (!query.ok()) {
    r.status = query.status();
    return r;
  }

  PlannerOptions options;
  options.refine = false;
  options.batch_size = config.batch_size;
  options.parallel_degree = config.parallel_degree;
  options.vectorize_expressions = config.vectorize;
  options.columnar_scan = config.columnar;
  PhysicalPlanner planner(&catalog, options);
  Result<OperatorPtr> plan = planner.CreatePlan(*query);
  const double t3 = NowNs();
  r.phases.plan = t3 - t2;
  if (!plan.ok()) {
    r.status = plan.status();
    return r;
  }
  OperatorPtr root = std::move(*plan);

  if (config.refine) {
    // Same refinement settings CreatePlan applies with refine on.
    RefinementOptions refinement;
    if (config.batch_size > 1) refinement.batch_size = config.batch_size;
    PlanRefiner refiner(refinement);
    RefinementReport report;
    root = refiner.Refine(std::move(root), &report);
    r.phases.refine = NowNs() - t3;
    r.buffers_added = report.buffers_added;
    r.groups = report.groups.size();
  }

  perf::QueryProfile profile;
  if (traced) root = perf::ProfilePlan(std::move(root), &profile);

  auto ctx = std::make_unique<ExecContext>();
  ctx->cpu = cpu;
  const double t4 = NowNs();
  r.status = root->Open(ctx.get());
  const double t5 = NowNs();
  r.phases.open = t5 - t4;
  if (!r.status.ok()) return r;

  std::vector<const uint8_t*> out;
  if (config.batch_size > 1) {
    std::vector<const uint8_t*> batch(config.batch_size);
    while (size_t n = root->NextBatch(batch.data(), batch.size())) {
      out.insert(out.end(), batch.begin(), batch.begin() + n);
    }
  } else {
    while (const uint8_t* row = root->Next()) out.push_back(row);
  }
  const double t6 = NowNs();
  r.phases.drain = t6 - t5;
  root->Close();
  const double t7 = NowNs();
  r.phases.close = t7 - t6;

  // Bookkeeping and copying the rows out happen outside the timed interval;
  // the rows point into the plan's memory, so the plan is freed after them.
  r.status = ExchangeErrors(*root);
  std::vector<BufferRuntimeStats> buffers;
  CollectBufferStats(*root, &buffers);
  for (const BufferRuntimeStats& b : buffers) {
    r.refills += b.refills;
    r.tuples_buffered += b.tuples_buffered;
  }
  if (traced) r.trace = FiguresFromProfile(profile);

  const Schema& schema = root->output_schema();
  r.rows.reserve(out.size());
  for (const uint8_t* row : out) {
    TupleView view(row, &schema);
    std::vector<Value> values;
    values.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      values.push_back(view.GetValue(c));
    }
    r.rows.push_back(std::move(values));
  }

  // Freeing the plan (hash tables, sort runs, buffers) and the context's
  // arena is part of the query: the next one waits for it.
  const double t8 = NowNs();
  root.reset();
  ctx.reset();
  r.phases.teardown = NowNs() - t8;
  r.latency_ns = (t7 - t0) + r.phases.teardown;
  return r;
}

// ---------------------------------------------------------------------------
// Reference check

bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == DataType::kDouble || b.type() == DataType::kDouble) {
    // Vectorized and parallel sums add in another order than the reference.
    const double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 + 1e-7 * std::max(std::fabs(x), std::fabs(y));
  }
  return Value::Compare(a, b) == 0;
}

bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    int c = Value::Compare(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

// Row count and values; row order only when the query has ORDER BY.
bool SameRows(Rows got, Rows want, bool ordered) {
  if (got.size() != want.size()) return false;
  if (!ordered) {
    std::sort(got.begin(), got.end(), RowLess);
    std::sort(want.begin(), want.end(), RowLess);
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].size() != want[i].size()) return false;
    for (size_t c = 0; c < got[i].size(); ++c) {
      if (!SameValue(got[i][c], want[i][c])) return false;
    }
  }
  return true;
}

// Changes one value of the answer (or adds a row), so that a correct
// execution no longer matches it.
void Corrupt(Rows* rows) {
  for (auto& row : *rows) {
    for (Value& v : row) {
      if (v.is_null()) continue;
      if (v.type() == DataType::kDouble) {
        v = Value::Double(v.double_value() * 1.5 + 1.0);
      } else if (v.type() == DataType::kString) {
        v = Value::String(v.string_value() + "#");
      } else {
        v = Value::Int64(v.int64_value() + 1);
      }
      return;
    }
  }
  rows->push_back({Value::Int64(-1)});
}

// ---------------------------------------------------------------------------
// Streams

struct StreamRecord {
  double ms = 0;  // Sum of per-query SQL-to-rows latencies.
  double cpu_ms = 0;  // Thread CPU time of the whole stream.
  std::vector<double> query_ms;
  Phases phases;
  int64_t buffers_added = 0;
  int64_t groups = 0;
  uint64_t refills = 0;
  uint64_t tuples_buffered = 0;
  uint64_t rows_out = 0;
  TraceFigures trace;
};

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
};

StreamRecord RunStream(const Catalog& catalog,
                       const std::vector<std::string>& queries,
                       const std::vector<Rows>* reference,
                       const ExecConfig& config, sim::SimCpu* cpu, bool traced,
                       Tally* tally) {
  StreamRecord s;
  s.query_ms.reserve(queries.size());
  const double cpu0 = ThreadCpuNs();
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryResult r = RunQuery(catalog, queries[q], config, cpu, traced);
    ++tally->attempted;
    s.rows_out += r.rows.size();
    bool ok = r.status.ok();
    if (!ok) {
      std::fprintf(stderr, "query %zu failed: %s\n", q,
                   r.status.ToString().c_str());
    } else if (reference != nullptr &&
               !SameRows(std::move(r.rows), (*reference)[q], r.ordered)) {
      std::fprintf(stderr, "query %zu: result differs from the reference\n",
                   q);
      ok = false;
    }
    if (!ok) ++tally->failed;
    const double ms = r.latency_ns / 1e6;
    s.ms += ms;
    s.query_ms.push_back(ms);
    s.phases += r.phases;
    s.buffers_added += r.buffers_added;
    s.groups += static_cast<int64_t>(r.groups);
    s.refills += r.refills;
    s.tuples_buffered += r.tuples_buffered;
    s.trace += r.trace;
  }
  s.cpu_ms = (ThreadCpuNs() - cpu0) / 1e6;
  return s;
}

// Runs streams until `seconds` have passed and at least `min_streams` ran.
std::vector<StreamRecord> TimedStreams(const Catalog& catalog,
                                       const std::vector<std::string>& queries,
                                       const std::vector<Rows>& reference,
                                       const ExecConfig& config, bool traced,
                                       double seconds, size_t min_streams,
                                       Tally* tally) {
  std::vector<StreamRecord> streams;
  const double end = NowNs() + seconds * 1e9;
  while (NowNs() < end || streams.size() < min_streams) {
    streams.push_back(RunStream(catalog, queries, &reference, config, nullptr,
                                traced, tally));
  }
  return streams;
}

// ---------------------------------------------------------------------------
// Statistics and output

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double MedianOf(const std::vector<StreamRecord>& streams, F field) {
  std::vector<double> v;
  v.reserve(streams.size());
  for (const StreamRecord& s : streams) v.push_back(field(s));
  return Median(std::move(v));
}

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_.empty() ? "" : ", ", name.c_str(), value, unit);
    metrics_ += buf;
  }
  void Field(const std::string& name, const std::string& json_value) {
    fields_ += ", \"" + name + "\": " + json_value;
  }
  std::string ToJson(int64_t attempted, int64_t failed) const {
    char head[128];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld",
                  failed == 0 ? "true" : "false",
                  static_cast<long long>(attempted),
                  static_cast<long long>(failed));
    return head + fields_ + ", \"metrics\": {" + metrics_ + "}}";
  }

 private:
  std::string fields_;
  std::string metrics_;
};

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Wall time of a fixed chain of dependent multiply-adds that touches no
// memory: it reads the host's current speed, so that drift between runs can
// be told apart from a change in the engine.
double HostProbeMs() {
  const double t0 = NowNs();
  uint64_t x = 1;
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const double ms = (NowNs() - t0) / 1e6;
  volatile uint64_t sink = x;
  (void)sink;
  return ms;
}

double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// The highest whole percentile of `v`, at most the 99th, with at least 10
// samples beyond it: returns {value, percentile}. With fewer than 11
// samples, the maximum.
std::pair<double, double> Tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 11) return {v.empty() ? 0 : v.back(), 100.0};
  const size_t pct = std::min<size_t>(99, 100 * (n - 10) / n);
  const size_t rank = (pct * n + 99) / 100;  // ceil(pct% of n), >= 1.
  return {v[rank - 1], static_cast<double>(pct)};
}

// ---------------------------------------------------------------------------
// Main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double sf = 0.05;
  bool corrupt_reference = false;
};

// How many times a run loads the data; setup_s is their median.
constexpr size_t kSetups = 5;

// The simulated pass runs at most at this SF, to stay near 2 s.
constexpr double kMaxSimSf = 0.002;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (flag == "--sf") {
      a->sf = std::atof(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->sf > 0 && a->seconds >= 0;
}

std::unique_ptr<Catalog> Load(double sf, uint64_t seed, double* seconds) {
  tpch::TpchConfig config;
  config.scale_factor = sf;
  config.seed = SplitMix64(seed);
  auto catalog = std::make_unique<Catalog>();
  const double t0 = NowNs();
  Status st = tpch::LoadTpch(config, catalog.get());
  *seconds = (NowNs() - t0) / 1e9;
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return catalog;
}

// Pins the calling thread to the CPU it runs on; returns that CPU, or -1
// when the thread could not be pinned.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

std::string EnvironmentJson(const Args& args, const Workload& w,
                            int pinned_cpu) {
  perf::PerfCounterGroup& pmu = perf::ThreadCounterGroup();
  const long l1i = sysconf(_SC_LEVEL1_ICACHE_SIZE);
  std::string out = "{";
  out += "\"nproc\": " + Num(static_cast<double>(std::thread::hardware_concurrency()));
  out += ", \"l1i_bytes\": " + Num(static_cast<double>(l1i));
  out += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  out += std::string(", \"avx2\": ") + (PERFBENCH_AVX2 ? "true" : "false");
  out += std::string(", \"pmu_available\": ") +
         (pmu.available() ? "true" : "false");
  out += ", \"pmu_reason\": " + Quote(pmu.unavailable_reason());
  out += ", \"seed\": " + Num(static_cast<double>(args.seed));
  out += ", \"sf\": " + Num(args.sf);
  out += ", \"sim_sf\": " + Num(std::min(args.sf, kMaxSimSf));
  out += ", \"batch_size\": " + Num(static_cast<double>(w.config.batch_size));
  out += ", \"parallel_degree\": " +
         Num(static_cast<double>(w.config.parallel_degree));
  out += ", \"pinned_cpu\": " + Num(static_cast<double>(pinned_cpu));
  out += "}";
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sqlbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--sf X] [--corrupt-reference]\n");
    return 2;
  }
  Workload w;
  if (!LookupWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  // A serial workload stays on the CPU it started on, so that its caches
  // are not lost to migrations. A parallel one is left free: the pool
  // threads would inherit the mask.
  const int pinned_cpu = w.config.parallel_degree == 1 ? PinToCurrentCpu() : -1;

  double stage_start = NowNs();
  auto stage_done = [&stage_start](const char* stage) {
    const double now = NowNs();
    std::fprintf(stderr, "# %-10s %8.3f s\n", stage, (now - stage_start) / 1e9);
    stage_start = now;
  };

  // The data is loaded kSetups times, one catalog at a time. setup_s is
  // the median load time, and the timed streams are split evenly across the
  // catalogs, so that no single heap layout sets the result.
  std::vector<double> setup_s;
  std::unique_ptr<Catalog> catalog;
  auto load = [&]() {
    catalog.reset();
    double s = 0;
    catalog = Load(args.sf, args.seed, &s);
    setup_s.push_back(s);
    return catalog != nullptr;
  };
  if (!load()) return 1;
  const std::vector<std::string> queries =
      WorkloadQueries(w, *catalog, args.seed);
  stage_done("setup");

  // Reference answers. Every load of one seed holds the same data.
  std::vector<Rows> reference;
  for (const std::string& sql : queries) {
    QueryResult r = RunQuery(*catalog, sql, kReferenceConfig, nullptr, false);
    if (!r.status.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n  %s\n",
                   r.status.ToString().c_str(), sql.c_str());
      return 1;
    }
    reference.push_back(std::move(r.rows));
  }
  if (args.corrupt_reference) Corrupt(&reference[0]);
  stage_done("reference");

  // Per catalog: one untimed warm-up stream, then the timed streams; a
  // traced run gives half of each share to profiled streams.
  constexpr size_t kMinStreams = 11;
  const size_t min_streams = (kMinStreams + kSetups - 1) / kSetups;
  const double share = args.seconds / static_cast<double>(kSetups);
  const double untraced_s = args.trace ? share / 2 : share;
  Tally tally;
  std::vector<StreamRecord> streams;
  std::vector<StreamRecord> traced;
  const double probe_before_ms = HostProbeMs();
  for (size_t i = 0; i < kSetups; ++i) {
    if (i > 0 && !load()) return 1;
    RunStream(*catalog, queries, &reference, w.config, nullptr, false, &tally);
    for (StreamRecord& s :
         TimedStreams(*catalog, queries, reference, w.config, false,
                      untraced_s, min_streams, &tally)) {
      streams.push_back(std::move(s));
    }
    if (!args.trace) continue;
    for (StreamRecord& s :
         TimedStreams(*catalog, queries, reference, w.config, true,
                      share - untraced_s, min_streams, &tally)) {
      traced.push_back(std::move(s));
    }
  }
  const double probe_after_ms = HostProbeMs();
  stage_done("timed");

  Report report;
  report.Field("workload", Quote(w.name));
  report.Field("environment", EnvironmentJson(args, w, pinned_cpu));
  report.Field("host_probe_ms", "[" + Num(probe_before_ms) + ", " +
                                    Num(probe_after_ms) + "]");
  report.Field("queries_per_stream", Num(static_cast<double>(queries.size())));
  report.Field("setups", Num(static_cast<double>(kSetups)));
  report.Field("streams", Num(static_cast<double>(streams.size())));
  const double p50 = MedianOf(streams, [](const StreamRecord& s) { return s.ms; });
  report.Field("stream_cpu_p50_ms",
               Num(MedianOf(streams, [](const StreamRecord& s) { return s.cpu_ms; })));

  if (!args.trace) {
    std::vector<double> stream_ms;
    for (const StreamRecord& s : streams) stream_ms.push_back(s.ms);
    const auto [tail, pct] = Tail(stream_ms);
    report.Field("stream_tail_percentile", Num(pct));
    double log_sum = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      log_sum += std::log(
          MedianOf(streams, [q](const StreamRecord& s) { return s.query_ms[q]; }));
    }
    report.Metric("stream_p50_ms", p50, "ms");
    report.Metric("stream_tail_ms", tail, "ms");
    report.Metric("latency_geomean_ms",
                  std::exp(log_sum / static_cast<double>(queries.size())), "ms");
    report.Metric("setup_s", Median(setup_s), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Phase times and counts from the untraced streams.
    auto phase = [&](double Phases::*field, double scale) {
      return MedianOf(streams, [&](const StreamRecord& s) {
        return s.phases.*field / scale;
      });
    };
    report.Metric("sql.parse_us", phase(&Phases::parse, 1e3), "us");
    report.Metric("sql.bind_us", phase(&Phases::bind, 1e3), "us");
    report.Metric("plan.create_us", phase(&Phases::plan, 1e3), "us");
    report.Metric("core.refine_us", phase(&Phases::refine, 1e3), "us");
    report.Metric("exec.open_us", phase(&Phases::open, 1e3), "us");
    report.Metric("exec.drain_ms", phase(&Phases::drain, 1e6), "ms");
    report.Metric("exec.close_us", phase(&Phases::close, 1e3), "us");
    report.Metric("exec.teardown_us", phase(&Phases::teardown, 1e3), "us");
    const StreamRecord& first = streams.front();
    report.Metric("core.buffers_added", static_cast<double>(first.buffers_added),
                  "count");
    report.Metric("core.groups", static_cast<double>(first.groups), "count");
    report.Metric("core.buffer_refills", static_cast<double>(first.refills),
                  "count");
    report.Metric("core.tuples_buffered",
                  static_cast<double>(first.tuples_buffered), "count");
    report.Metric("core.tuples_per_refill",
                  first.refills == 0
                      ? 0.0
                      : static_cast<double>(first.tuples_buffered) /
                            static_cast<double>(first.refills),
                  "count");
    report.Metric("exec.rows_out", static_cast<double>(first.rows_out), "count");

    // Per-operator figures from the profiled streams.
    const double traced_p50 =
        MedianOf(traced, [](const StreamRecord& s) { return s.ms; });
    report.Field("traced_streams", Num(static_cast<double>(traced.size())));
    // Every kind the planner or refiner can emit is reported, 0 when the
    // workload's plans do not contain it, plus any other kind that ran.
    std::map<std::string, bool> kinds;
    for (const char* kind : kOperatorKinds) kinds[kind] = true;
    for (const StreamRecord& s : traced) {
      for (const auto& [kind, ns] : s.trace.self_ns) kinds[kind] = true;
    }
    for (const auto& [kind, present] : kinds) {
      report.Metric("exec.self_ms." + kind,
                    MedianOf(traced,
                             [&, k = kind](const StreamRecord& s) {
                               auto it = s.trace.self_ns.find(k);
                               return it == s.trace.self_ns.end()
                                          ? 0.0
                                          : it->second / 1e6;
                             }),
                    "ms");
    }
    report.Metric("exec.rows_per_call",
                  MedianOf(traced,
                           [](const StreamRecord& s) {
                             return s.trace.calls == 0
                                        ? 0.0
                                        : s.trace.rows_moved / s.trace.calls;
                           }),
                  "rows");
    // Parallel figures are 0 on serial workloads (no Exchange fragments).
    auto frag = [&](double TraceFigures::*field) {
      return MedianOf(traced, [&](const StreamRecord& s) {
        return s.trace.*field / 1e6;
      });
    };
    const double max_ms = frag(&TraceFigures::fragment_ns_max);
    const double mean_ms = frag(&TraceFigures::fragment_ns_mean);
    report.Metric("parallel.fragment_ms_max", max_ms, "ms");
    report.Metric("parallel.fragment_ms_mean", mean_ms, "ms");
    report.Metric("parallel.imbalance", mean_ms > 0 ? max_ms / mean_ms : 0,
                  "ratio");
    report.Metric("parallel.consumer_wait_ms",
                  frag(&TraceFigures::consumer_wait_ns), "ms");

    // One simulated pass over a stream at the (smaller) simulation SF.
    // SimCpu is single-threaded, so parallel workloads report zeros.
    sim::CycleBreakdown b;
    if (w.config.parallel_degree == 1) {
      double load_s = 0;
      std::unique_ptr<Catalog> sim_catalog =
          Load(std::min(args.sf, kMaxSimSf), args.seed, &load_s);
      if (sim_catalog == nullptr) return 1;
      sim::SimCpu cpu{sim::SimConfig()};
      RunStream(*sim_catalog, WorkloadQueries(w, *sim_catalog, args.seed),
                nullptr, w.config, &cpu, false, &tally);
      b = cpu.Breakdown();
      stage_done("simulated");
    }
    const sim::SimCounters& c = b.counters;
    report.Metric("sim.instructions", static_cast<double>(c.instructions),
                  "count");
    report.Metric("sim.l1i_accesses", static_cast<double>(c.l1i_accesses),
                  "count");
    report.Metric("sim.l1i_misses", static_cast<double>(c.l1i_misses),
                  "count");
    report.Metric("sim.itlb_misses", static_cast<double>(c.itlb_misses),
                  "count");
    report.Metric("sim.branch_mispredicts", static_cast<double>(c.mispredicts),
                  "count");
    // Instruction-side cycles only: the data-cache penalties depend on
    // where the heap lands, so they would not repeat across runs.
    report.Metric("sim.cycles",
                  std::round(b.base_cycles + b.l1i_penalty + b.itlb_penalty +
                             b.branch_penalty),
                  "count");
    report.Metric("perf.trace_overhead_pct", 100.0 * (traced_p50 / p50 - 1.0),
                  "%");
  }

  std::printf("%s\n", report.ToJson(tally.attempted, tally.failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace bufferdb::perfbench

int main(int argc, char** argv) { return bufferdb::perfbench::Main(argc, argv); }
