#include "tpch/tpch_gen.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/date.h"
#include "common/rng.h"
#include "storage/column_table.h"
#include "tpch/tpch_schema.h"

namespace bufferdb::tpch {

namespace {

const char* kRegionNames[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                              "MIDDLE EAST"};
const char* kNationNames[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN",
    "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// region of each nation, per the TPC-H spec.
const int kNationRegion[] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                             4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                            "FOB"};
const char* kShipInstructs[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                                "TAKE BACK RETURN"};
const char* kContainers[] = {"SM CASE", "SM BOX", "MED BAG", "MED BOX",
                             "LG CASE", "LG BOX", "WRAP CASE", "JUMBO PKG"};
const char* kTypes[] = {"STANDARD ANODIZED TIN", "SMALL PLATED COPPER",
                        "MEDIUM BURNISHED NICKEL", "LARGE BRUSHED STEEL",
                        "ECONOMY POLISHED BRASS", "PROMO BURNISHED COPPER",
                        "PROMO PLATED STEEL", "STANDARD BRUSHED BRASS"};
const char* kBrands[] = {"Brand#11", "Brand#12", "Brand#21", "Brand#22",
                         "Brand#31", "Brand#32", "Brand#41", "Brand#55"};

std::string Comment(Rng* rng) {
  static const char* words[] = {"carefully", "quickly", "furiously", "ideas",
                                "deposits", "packages", "accounts", "sleep"};
  return std::string(words[rng->Next() % 8]) + " " + words[rng->Next() % 8];
}

std::string NumberedName(const char* prefix, int64_t n) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s#%09lld", prefix,
                static_cast<long long>(n));
  return buf;
}

}  // namespace

int64_t NumOrders(double scale_factor) {
  return std::max<int64_t>(1, static_cast<int64_t>(1500000 * scale_factor));
}

Status LoadTpch(const TpchConfig& config, Catalog* catalog) {
  const double sf = config.scale_factor;
  Rng rng(config.seed);

  const int64_t num_nations = 25;
  const int64_t num_suppliers =
      std::max<int64_t>(1, static_cast<int64_t>(10000 * sf));
  const int64_t num_customers =
      std::max<int64_t>(1, static_cast<int64_t>(150000 * sf));
  const int64_t num_parts =
      std::max<int64_t>(1, static_cast<int64_t>(200000 * sf));
  const int64_t num_orders = NumOrders(sf);

  const int64_t start_date = MakeDate(1992, 1, 1);
  const int64_t end_order_date = MakeDate(1998, 8, 2);

  // region
  {
    auto table = std::make_unique<Table>("region", RegionSchema());
    TupleBuilder b(&table->schema());
    for (int64_t i = 0; i < 5; ++i) {
      b.Reset();
      b.SetInt64(0, i);
      b.SetString(1, kRegionNames[i]);
      b.SetString(2, Comment(&rng));
      table->Append(b);
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(table)));
  }

  // nation
  {
    auto table = std::make_unique<Table>("nation", NationSchema());
    TupleBuilder b(&table->schema());
    for (int64_t i = 0; i < num_nations; ++i) {
      b.Reset();
      b.SetInt64(0, i);
      b.SetString(1, kNationNames[i]);
      b.SetInt64(2, kNationRegion[i]);
      b.SetString(3, Comment(&rng));
      table->Append(b);
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(table)));
  }

  // supplier
  {
    auto table = std::make_unique<Table>("supplier", SupplierSchema());
    TupleBuilder b(&table->schema());
    for (int64_t i = 1; i <= num_suppliers; ++i) {
      b.Reset();
      b.SetInt64(0, i);
      b.SetString(1, NumberedName("Supplier", i));
      b.SetString(2, NumberedName("Addr", rng.Uniform(0, 99999)));
      b.SetInt64(3, rng.Uniform(0, num_nations - 1));
      b.SetString(4, NumberedName("Ph", rng.Uniform(1000000, 9999999)));
      b.SetDouble(5, -999.99 + rng.NextDouble() * 10999.98);
      b.SetString(6, Comment(&rng));
      table->Append(b);
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(table)));
  }

  // customer
  {
    auto table = std::make_unique<Table>("customer", CustomerSchema());
    TupleBuilder b(&table->schema());
    for (int64_t i = 1; i <= num_customers; ++i) {
      b.Reset();
      b.SetInt64(0, i);
      b.SetString(1, NumberedName("Customer", i));
      b.SetString(2, NumberedName("Addr", rng.Uniform(0, 99999)));
      b.SetInt64(3, rng.Uniform(0, num_nations - 1));
      b.SetString(4, NumberedName("Ph", rng.Uniform(1000000, 9999999)));
      b.SetDouble(5, -999.99 + rng.NextDouble() * 10999.98);
      b.SetString(6, kSegments[rng.Next() % 5]);
      b.SetString(7, Comment(&rng));
      table->Append(b);
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(table)));
  }

  // part
  std::vector<double> part_price(num_parts + 1);
  {
    auto table = std::make_unique<Table>("part", PartSchema());
    TupleBuilder b(&table->schema());
    for (int64_t i = 1; i <= num_parts; ++i) {
      b.Reset();
      double price =
          900.0 + static_cast<double>(i % 1000) + rng.NextDouble() * 100.0;
      part_price[i] = price;
      b.SetInt64(0, i);
      b.SetString(1, NumberedName("part", i));
      b.SetString(2, NumberedName("Mfgr", 1 + (i % 5)));
      b.SetString(3, kBrands[rng.Next() % 8]);
      b.SetString(4, kTypes[rng.Next() % 8]);
      b.SetInt64(5, rng.Uniform(1, 50));
      b.SetString(6, kContainers[rng.Next() % 8]);
      b.SetDouble(7, price);
      b.SetString(8, Comment(&rng));
      table->Append(b);
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(table)));
  }

  // partsupp: 4 suppliers per part.
  {
    auto table = std::make_unique<Table>("partsupp", PartSuppSchema());
    TupleBuilder b(&table->schema());
    for (int64_t p = 1; p <= num_parts; ++p) {
      for (int s = 0; s < 4; ++s) {
        b.Reset();
        b.SetInt64(0, p);
        b.SetInt64(1, 1 + (p + s * (num_suppliers / 4 + 1)) % num_suppliers);
        b.SetInt64(2, rng.Uniform(1, 9999));
        b.SetDouble(3, 1.0 + rng.NextDouble() * 999.0);
        b.SetString(4, Comment(&rng));
        table->Append(b);
      }
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(table)));
  }

  // orders + lineitem.
  {
    auto orders = std::make_unique<Table>("orders", OrdersSchema());
    auto lineitem = std::make_unique<Table>("lineitem", LineitemSchema());
    TupleBuilder ob(&orders->schema());
    TupleBuilder lb(&lineitem->schema());
    for (int64_t o = 1; o <= num_orders; ++o) {
      int64_t order_date = rng.Uniform(start_date, end_order_date);
      int num_lines = static_cast<int>(rng.Uniform(1, 7));
      double total = 0;

      for (int l = 1; l <= num_lines; ++l) {
        double quantity = static_cast<double>(rng.Uniform(1, 50));
        int64_t partkey = rng.Uniform(1, num_parts);
        double extended = quantity * part_price[partkey];
        double discount = 0.01 * static_cast<double>(rng.Uniform(0, 10));
        double tax = 0.01 * static_cast<double>(rng.Uniform(0, 8));
        int64_t ship_date = order_date + rng.Uniform(1, 121);
        int64_t commit_date = order_date + rng.Uniform(30, 90);
        int64_t receipt_date = ship_date + rng.Uniform(1, 30);
        bool shipped_by_95 = ship_date <= MakeDate(1995, 6, 17);

        lb.Reset();
        lb.SetInt64(0, o);
        lb.SetInt64(1, partkey);
        lb.SetInt64(2, 1 + (partkey % num_suppliers));
        lb.SetInt64(3, l);
        lb.SetDouble(4, quantity);
        lb.SetDouble(5, extended);
        lb.SetDouble(6, discount);
        lb.SetDouble(7, tax);
        lb.SetString(8, shipped_by_95 ? (rng.Next() % 2 ? "R" : "A") : "N");
        lb.SetString(9, shipped_by_95 ? "F" : "O");
        lb.SetDate(10, ship_date);
        lb.SetDate(11, commit_date);
        lb.SetDate(12, receipt_date);
        lb.SetString(13, kShipInstructs[rng.Next() % 4]);
        lb.SetString(14, kShipModes[rng.Next() % 7]);
        lb.SetString(15, Comment(&rng));
        lineitem->Append(lb);
        total += extended * (1 - discount) * (1 + tax);
      }

      ob.Reset();
      ob.SetInt64(0, o);
      ob.SetInt64(1, rng.Uniform(1, num_customers));
      ob.SetString(2, order_date <= MakeDate(1995, 6, 17) ? "F" : "O");
      ob.SetDouble(3, total);
      ob.SetDate(4, order_date);
      ob.SetString(5, kPriorities[rng.Next() % 5]);
      ob.SetString(6, NumberedName("Clerk", rng.Uniform(1, 1000)));
      ob.SetInt64(7, 0);
      ob.SetString(8, Comment(&rng));
      orders->Append(ob);
    }
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(orders)));
    BUFFERDB_RETURN_IF_ERROR(catalog->AddTable(std::move(lineitem)));
  }

  BUFFERDB_RETURN_IF_ERROR(
      catalog->CreateIndex("orders_pk", "orders", "o_orderkey", true));
  BUFFERDB_RETURN_IF_ERROR(
      catalog->CreateIndex("customer_pk", "customer", "c_custkey", true));
  BUFFERDB_RETURN_IF_ERROR(
      catalog->CreateIndex("part_pk", "part", "p_partkey", true));
  BUFFERDB_RETURN_IF_ERROR(
      catalog->CreateIndex("supplier_pk", "supplier", "s_suppkey", true));
  BUFFERDB_RETURN_IF_ERROR(catalog->CreateIndex(
      "lineitem_orderkey", "lineitem", "l_orderkey", false));

  static const char* kTables[] = {"nation",   "region", "supplier",
                                  "customer", "part",   "partsupp",
                                  "orders",   "lineitem"};
  for (const char* name : kTables) {
    Table* table = catalog->GetTable(name);
    if (table == nullptr) {
      return Status::Internal(std::string("missing table: ") + name);
    }
    table->AttachColumnar(ColumnarTable::Build(*table));
  }
  return Status::OK();
}

}  // namespace bufferdb::tpch
