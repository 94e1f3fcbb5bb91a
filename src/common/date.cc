#include "common/date.h"

#include <charconv>
#include <cstdio>
#include <system_error>

namespace bufferdb {

// Civil-day algorithms from Howard Hinnant's date algorithms
// (public-domain formulation).
int64_t MakeDate(int year, int month, int day) {
  int y = year;
  if (month <= 2) y -= 1;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      (153u * static_cast<unsigned>(month + (month > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(day) - 1u;
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) -
         719468;
}

void DateToYmd(int64_t days, int* year, int* month, int* day) {
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  *year = static_cast<int>(y + (m <= 2));
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

std::string DateToString(int64_t days) {
  int y, m, d;
  DateToYmd(days, &y, &m, &d);
  // 32 bytes: even pathological int years fit, so -Wformat-truncation is
  // provably satisfied under -Werror.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

Result<int64_t> ParseDate(const std::string& text) {
  // Exactly three '-'-separated decimal fields. Each is read as int64, so a
  // field too long for int is rejected rather than truncated.
  int64_t field[3] = {0, 0, 0};
  const char* p = text.data();
  const char* const end = p + text.size();
  for (int i = 0; i < 3; ++i) {
    if (i > 0) {
      if (p == end || *p != '-') {
        return Status::ParseError("bad date literal: " + text);
      }
      ++p;
    }
    auto [next, ec] = std::from_chars(p, end, field[i]);
    if (ec == std::errc::result_out_of_range) {
      return Status::ParseError("date out of range: " + text);
    }
    if (ec != std::errc()) {
      return Status::ParseError("bad date literal: " + text);
    }
    p = next;
  }
  if (p != end) return Status::ParseError("bad date literal: " + text);
  const int64_t y = field[0], m = field[1], d = field[2];
  // Four-digit years only: MakeDate's int arithmetic overflows near its
  // ends.
  if (y < 0 || y > 9999 || m < 1 || m > 12 || d < 1 || d > 31) {
    return Status::ParseError("date out of range: " + text);
  }
  const int64_t days =
      MakeDate(static_cast<int>(y), static_cast<int>(m), static_cast<int>(d));
  // A day past its month's end (1998-02-31) would roll into the next month.
  int year = 0, month = 0, day = 0;
  DateToYmd(days, &year, &month, &day);
  if (month != m || day != d) {
    return Status::ParseError("date out of range: " + text);
  }
  return days;
}

}  // namespace bufferdb
