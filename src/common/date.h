#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace bufferdb {

/// Dates are stored as days since the civil epoch 1970-01-01 (may be
/// negative). TPC-H dates span 1992-01-01 .. 1998-12-31.
int64_t MakeDate(int year, int month, int day);

/// Decomposes a day number back into (year, month, day).
void DateToYmd(int64_t days, int* year, int* month, int* day);

/// Formats as "YYYY-MM-DD".
std::string DateToString(int64_t days);

/// Parses "YYYY-MM-DD" and nothing more; the year must lie in 0..9999 and
/// the day inside its month.
Result<int64_t> ParseDate(const std::string& text);

}  // namespace bufferdb

