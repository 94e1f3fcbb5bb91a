// Deterministic fuzzing of the SQL front end. Statements of the parser
// tests, the paper's Queries 1-3, the Table 5 set and the point-query
// templates are mutated by byte flips, deletions, truncations and
// insertions from a keyword/symbol/quote/digit dictionary; each mutant goes
// through ParseSelect and Binder::Bind against a schema-only TPC-H catalog
// and must come back as a Status, OK or not. Seeds are fixed and there is
// no external corpus, so a failure reproduces exactly; under ASan/UBSan a
// memory fault or undefined behaviour on the way fails the test too.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tpch/tpch_schema.h"

namespace bufferdb::sql {
namespace {

// Statements over the TPC-H schema: every one parses and binds unmutated.
const char* const kTpchCorpus[] = {
    // Paper Queries 1-3.
    "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) "
    "AS sum_charge, AVG(l_quantity) AS avg_qty, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'",
    "SELECT COUNT(*) AS count_order FROM lineitem "
    "WHERE l_shipdate <= DATE '1998-09-02'",
    "SELECT SUM(o_totalprice), COUNT(*), AVG(l_discount) "
    "FROM lineitem, orders "
    "WHERE l_orderkey = o_orderkey AND l_shipdate <= DATE '1998-09-02'",
    // The Table 5 set.
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
    "SUM(l_extendedprice) AS sum_base_price, "
    "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
    "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
    "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
    "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
    "FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
    "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND c_mktsegment = 'BUILDING' AND o_orderdate < DATE '1995-03-15' "
    "AND l_shipdate > DATE '1995-03-15' "
    "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10",
    "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
    "AS revenue FROM customer, orders, lineitem "
    "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
    "AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01' "
    "AND l_returnflag = 'R' "
    "GROUP BY c_custkey, c_name ORDER BY revenue DESC LIMIT 20",
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
    "SELECT l_shipmode, COUNT(*) AS line_count FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey "
    "AND (l_shipmode = 'MAIL' OR l_shipmode = 'SHIP') "
    "AND l_receiptdate >= DATE '1994-01-01' "
    "AND l_receiptdate < DATE '1995-01-01' "
    "GROUP BY l_shipmode ORDER BY l_shipmode",
    "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
    "COUNT(*) AS lines FROM lineitem, part WHERE l_partkey = p_partkey "
    "AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'",
    // The eight point-query templates.
    "SELECT n_nationkey, n_name, r_name FROM nation, region "
    "WHERE n_regionkey = r_regionkey AND r_regionkey = 3 ORDER BY n_nationkey",
    "SELECT s_suppkey, s_name, s_acctbal FROM supplier "
    "WHERE s_nationkey = 17 ORDER BY s_acctbal DESC, s_suppkey LIMIT 10",
    "SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice "
    "FROM lineitem WHERE l_orderkey >= 1200 AND l_orderkey < 1232 "
    "ORDER BY l_orderkey, l_linenumber",
    "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS total "
    "FROM orders WHERE o_orderkey BETWEEN 500 AND 699 "
    "GROUP BY o_orderstatus ORDER BY o_orderstatus",
    "SELECT c_custkey, c_name, c_acctbal FROM customer "
    "WHERE c_custkey BETWEEN 40 AND 139 AND c_acctbal > 0",
    "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty, AVG(l_discount) AS disc "
    "FROM lineitem WHERE l_orderkey BETWEEN 900 AND 999",
    "SELECT o_orderkey, o_totalprice, c_name FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderkey BETWEEN 300 AND 349 "
    "ORDER BY o_orderkey",
    "SELECT p_partkey, p_name, p_retailprice FROM part "
    "WHERE p_partkey BETWEEN 10 AND 209 "
    "ORDER BY p_retailprice DESC, p_partkey LIMIT 20",
};

// The parser tests' statements: every one parses unmutated.
const char* const kParserCorpus[] = {
    "SELECT x, 42, 3.5, 'str' FROM t WHERE a <= 1 AND b <> 2 AND c != 3",
    "SELECT l_returnflag, COUNT(*) FROM lineitem "
    "GROUP BY l_returnflag ORDER BY l_returnflag DESC LIMIT 10",
    "SELECT a FROM t WHERE a + b * 2 < 10 AND c = 1 OR d = 2",
    "SELECT (a + b) * 2 FROM t",
    "SELECT a FROM t WHERE NOT a = 1 AND b IS NOT NULL AND -c < 0",
    "SELECT lineitem.l_orderkey FROM lineitem",
    "SELECT COUNT(a), COUNT(*) FROM t",
    "SELECT a FROM t WHERE a BETWEEN 2 AND 5",
    "SELECT a FROM t WHERE m IN ('MAIL', 'SHIP', 'AIR')",
    "SELECT a FROM t WHERE m NOT IN (1, 2)",
    "SELECT a FROM t WHERE p NOT LIKE 'PROMO%'",
    "sElEcT DiStInCt T.Col_A, CoUnT(*) As Total FrOm Tab "
    "WhErE Col_B NoT LiKe 'AbC%' AnD d = DaTe '1998-09-02' "
    "GrOuP bY T.Col_A oRdEr By Total DeSc LiMiT 3;",
};

const char* const kDictionary[] = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE",
    "IS", "NULL", "DATE", "GROUP", "BY", "ORDER", "HAVING", "LIMIT",
    "DISTINCT", "AS", "ASC", "DESC", "COUNT", "SUM", "AVG", "MIN", "MAX",
    "(", ")", ",", "*", "+", "-", "/", "=", "<", ">", "<=", ">=", "<>", "!=",
    ".", ";", "'", "''", "' '", " ", "0", "1", "7", "-1", "1.5", "0.0", "1.",
    "9223372036854775807", "9223372036854775808", "99999999999999999999",
    "9223372036854775807 + ", "9223372036854775807 * ",
    "-9223372036854775807 - ",
    "'1998-09-02'", "'2147483647-12-31'", "'-2147483647-01-01'",
    "l_orderkey", "o_orderkey", "lineitem.", "orders", "lineitem",
};

std::unique_ptr<Catalog> SchemaOnlyTpch() {
  auto catalog = std::make_unique<Catalog>();
  const struct {
    const char* name;
    Schema (*schema)();
  } kTables[] = {
      {"region", tpch::RegionSchema},     {"nation", tpch::NationSchema},
      {"supplier", tpch::SupplierSchema}, {"customer", tpch::CustomerSchema},
      {"part", tpch::PartSchema},         {"partsupp", tpch::PartSuppSchema},
      {"orders", tpch::OrdersSchema},     {"lineitem", tpch::LineitemSchema},
  };
  for (const auto& t : kTables) {
    EXPECT_TRUE(
        catalog->AddTable(std::make_unique<Table>(t.name, t.schema())).ok());
  }
  return catalog;
}

template <typename T, size_t N>
const T& Pick(const T (&items)[N], Rng* rng) {
  return items[rng->Uniform(0, static_cast<int64_t>(N) - 1)];
}

size_t Position(const std::string& s, Rng* rng) {
  return static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(s.size())));
}

// One to four mutations of `sql`.
std::string Mutate(std::string sql, Rng* rng) {
  const int64_t mutations = rng->Uniform(1, 4);
  for (int64_t m = 0; m < mutations; ++m) {
    switch (rng->Uniform(0, 3)) {
      case 0:  // Flip one bit of one byte.
        if (!sql.empty()) {
          const size_t i = Position(sql, rng) % sql.size();
          sql[i] = static_cast<char>(sql[i] ^ (1 << rng->Uniform(0, 7)));
        }
        break;
      case 1: {  // Delete a run of up to 8 bytes.
        const size_t i = Position(sql, rng);
        sql.erase(i, static_cast<size_t>(rng->Uniform(1, 8)));
        break;
      }
      case 2:  // Truncate.
        sql.resize(Position(sql, rng));
        break;
      default:  // Insert a dictionary entry.
        sql.insert(Position(sql, rng), Pick(kDictionary, rng));
        break;
    }
  }
  return sql;
}

TEST(SqlFuzzTest, CorpusParsesAndBinds) {
  auto catalog = SchemaOnlyTpch();
  Binder binder(catalog.get());
  for (const char* sql : kTpchCorpus) {
    auto query = binder.BindSql(sql);
    EXPECT_TRUE(query.ok()) << sql << ": " << query.status();
  }
  for (const char* sql : kParserCorpus) {
    EXPECT_TRUE(ParseSelect(sql).ok()) << sql;
  }
}

TEST(SqlFuzzTest, MutantsParseAndBindToAStatus) {
  constexpr int kIterations = 100000;
  auto catalog = SchemaOnlyTpch();
  Binder binder(catalog.get());
  Rng rng(26);
  int parsed = 0;
  int bound = 0;
  for (int i = 0; i < kIterations; ++i) {
    const char* seed = rng.Uniform(0, 3) == 0 ? Pick(kParserCorpus, &rng)
                                              : Pick(kTpchCorpus, &rng);
    const std::string sql = Mutate(seed, &rng);
    auto stmt = ParseSelect(sql);
    if (!stmt.ok()) {
      EXPECT_FALSE(stmt.status().message().empty()) << sql;
      continue;
    }
    ++parsed;
    auto query = binder.Bind(*stmt);
    if (query.ok()) {
      ++bound;
    } else {
      EXPECT_FALSE(query.status().message().empty()) << sql;
    }
  }
  // The mutants reach past the lexer and the parser into the binder.
  EXPECT_GT(parsed, kIterations / 10);
  EXPECT_GT(bound, kIterations / 50);
}

}  // namespace
}  // namespace bufferdb::sql
