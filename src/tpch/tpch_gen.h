#pragma once

#include <cstdint>

#include "catalog/catalog.h"
#include "common/status.h"

namespace bufferdb::tpch {

/// Deterministic in-memory TPC-H data generator (dbgen substitute).
///
/// Row counts scale with `scale_factor` exactly as the specification's
/// (orders = 1,500,000 x SF, 1-7 lineitems per order, etc.). Value
/// distributions (dates, keys, prices, discount, tax, flags) follow the
/// spec closely enough to reproduce the selectivities the paper's queries
/// depend on; free-text columns are short synthetic strings.
struct TpchConfig {
  double scale_factor = 0.02;
  uint64_t seed = 19940613;
};

/// Generates all 8 tables into `catalog`, with the indexes the paper's
/// plans use (primary keys on orders / customer / part / supplier, plus
/// lineitem(l_orderkey)) and a columnar image (storage/column_table.h) of
/// every table, so batched plans can use ColumnScan.
[[nodiscard]] Status LoadTpch(const TpchConfig& config, Catalog* catalog);

/// Number of orders at a scale factor (lineitem is ~4x this).
int64_t NumOrders(double scale_factor);

}  // namespace bufferdb::tpch

