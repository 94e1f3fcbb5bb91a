#pragma once

#include "expr/expression.h"
#include "storage/table.h"

namespace bufferdb {

/// Estimated fraction of `table`'s rows satisfying `predicate` (0..1).
/// Uses min/max column statistics for range predicates on numeric columns;
/// textbook default constants otherwise. The range conjuncts an AND chain
/// puts on one column are estimated together, as one interval.
double EstimateSelectivity(const Expression& predicate, Table* table);

/// Estimated fraction of `table`'s rows whose `column` lies in [lo, hi]:
/// 0 when lo > hi, the equality estimate when lo == hi.
double EstimateIntervalSelectivity(Table* table, int column, double lo,
                                   double hi);

/// Estimated output cardinality of an equi-join.
/// `right_unique` means the right side joins on a declared-unique key
/// (foreign-key join): every left row matches at most once.
double EstimateEquiJoinRows(double left_rows, double right_rows,
                            double right_table_rows, bool right_unique);

}  // namespace bufferdb

