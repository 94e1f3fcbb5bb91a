#pragma once

#include <atomic>
#include <cstddef>

namespace bufferdb::parallel {

/// Half-open row range [begin, end) of the driving table.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
};

/// Lock-free work distributor for a partitioned scan: worker fragments pull
/// fixed-size row ranges ("morsels") off a shared atomic cursor until the
/// table is exhausted. Handing out ranges rather than pre-partitioning the
/// table keeps workers balanced when per-row cost varies (selective
/// predicates, skewed joins).
///
/// TryNext is safe to call from any number of threads concurrently; Reset
/// must only be called while no worker is pulling (the ExchangeOperator
/// resets the cursor in Open, before it launches workers).
class MorselCursor {
 public:
  /// Large enough to amortize the atomic per morsel and give each worker a
  /// cache-friendly sequential run; small enough that a table of a few
  /// hundred thousand rows still splits across 8 workers.
  static constexpr size_t kDefaultMorselRows = 4096;

  explicit MorselCursor(size_t total_rows,
                        size_t morsel_rows = kDefaultMorselRows)
      : total_rows_(total_rows),
        morsel_rows_(morsel_rows == 0 ? kDefaultMorselRows : morsel_rows) {}

  MorselCursor(const MorselCursor&) = delete;
  MorselCursor& operator=(const MorselCursor&) = delete;

  /// Claims the next morsel. Returns false when the table is exhausted.
  bool TryNext(Morsel* morsel) {
    size_t begin = next_.fetch_add(morsel_rows_, std::memory_order_relaxed);
    if (begin >= total_rows_) return false;
    morsel->begin = begin;
    morsel->end = begin + morsel_rows_ < total_rows_ ? begin + morsel_rows_
                                                     : total_rows_;
    return true;
  }

  /// Rewinds to the first row (single-threaded; see class comment).
  void Reset() { next_.store(0, std::memory_order_relaxed); }

  size_t total_rows() const { return total_rows_; }
  size_t morsel_rows() const { return morsel_rows_; }

 private:
  std::atomic<size_t> next_{0};
  size_t total_rows_;
  size_t morsel_rows_;
};

/// The rows a table scan has yet to read, [pos, end): the whole table, or
/// in morsel mode (Bind) the morsel it claimed last from a shared
/// MorselCursor. SeqScan and ColumnScan read through one of these.
class RowRange {
 public:
  /// Switches to morsel mode over `cursor`; null returns to the whole table.
  void Bind(MorselCursor* cursor) { morsels_ = cursor; }
  bool morsel_mode() const { return morsels_ != nullptr; }

  /// Rewinds to the first row of a table of `num_rows` rows. In morsel mode
  /// the range starts empty, so the first Claim() takes a morsel.
  void Reset(size_t num_rows) {
    pos = 0;
    end = morsels_ != nullptr ? 0 : num_rows;
  }

  /// Whether [pos, end) holds a row, claiming the next morsel once the
  /// current one is read (a morsel is never empty); false at the end of
  /// the scan.
  bool Claim() {
    if (pos < end) return true;
    Morsel morsel;
    if (morsels_ == nullptr || !morsels_->TryNext(&morsel)) return false;
    pos = morsel.begin;
    end = morsel.end;
    return true;
  }

  size_t pos = 0;
  size_t end = 0;

 private:
  MorselCursor* morsels_ = nullptr;
};

}  // namespace bufferdb::parallel
