#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "exec/row_batch_decoder.h"
#include "expr/vector.h"

namespace bufferdb {

/// Thrown by ContractCheckedOperator when a caller breaks the Volcano
/// state machine. A distinct type (rather than assert/abort) so tests can
/// prove each violation class is detected.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error("operator contract violation: " + what) {}
};

/// Debug wrapper asserting the Open/Next/Close state machine around any
/// Operator (DESIGN.md section 9.2). Checks:
///
///   - no Next()/NextBatch()/Rescan() before a successful Open()
///   - no calls of any kind after Close() (except re-Open)
///   - no double Open() without an intervening Close()
///   - no double Close()
///   - batch-slice discipline: each NextBatch() call *poisons* the caller's
///     out[] entries from the previous call before delegating, so code that
///     holds a stale slice across a refill dereferences 0x51C0..DEAD and
///     ASan/TSan/a segfault catches it deterministically instead of it
///     silently reading rows from the wrong batch.
///   - rows present unless asked away: NextBatch() poisons all of out[]
///     before delegating; a batch returned to a consumer that did not get
///     an OmitRows() request granted must have overwritten every entry it
///     counts. A batch without rows leaves its entries poisoned (a read of
///     one fails), must publish every requested column for all n rows, and
///     Next() after a granted request throws.
///   - published columns (BatchColumns(), forwarded): after a NextBatch()
///     that returned n > 0 rows, the published batch holds 0 or exactly n
///     rows, and where rows are present the first and last lane of every
///     published column (null byte, and value where not NULL) equal the
///     returned rows' slots.
///
/// The wrapper owns the inner operator as child(0), so plan printing and
/// tree walks still see the real structure. Production code never
/// instantiates this class directly: use BUFFERDB_WRAP_CONTRACT_CHECKED,
/// which compiles to an identity expression unless BUFFERDB_CHECK_CONTRACTS
/// is defined (Debug builds and -DBUFFERDB_CHECK_CONTRACTS=ON trees), so
/// Release hot paths pay zero overhead — no virtual hop, no state bytes.
class ContractCheckedOperator final : public Operator {
 public:
  /// Pointer value written over stale batch slices; intentionally invalid
  /// and recognizable in a debugger / sanitizer report.
  static const uint8_t* PoisonPointer() {
    return reinterpret_cast<const uint8_t*>(static_cast<uintptr_t>(
        0x51C0DEADBEEFULL));
  }

  explicit ContractCheckedOperator(OperatorPtr inner) {
    if (inner == nullptr) {
      throw ContractViolation("wrapping a null operator");
    }
    AddChild(std::move(inner));
  }

  [[nodiscard]] Status Open(ExecContext* ctx) override {
    if (state_ == State::kOpen) {
      throw ContractViolation("Open() while already open (missing Close())");
    }
    ForgetSlice();
    omit_rows_ = false;
    Status st = child(0)->Open(ctx);
    if (st.ok()) state_ = State::kOpen;
    return st;
  }

  const uint8_t* Next() override {
    RequireOpen("Next()");
    if (omit_rows_) {
      throw ContractViolation(
          "Next() after OmitRows() was granted; that consumer pulls through "
          "NextBatch() alone");
    }
    PoisonStaleSlice();
    return child(0)->Next();
  }

  size_t NextBatch(const uint8_t** out, size_t max) override {
    RequireOpen("NextBatch()");
    PoisonStaleSlice();
    for (size_t i = 0; i < max; ++i) out[i] = PoisonPointer();
    size_t n = child(0)->NextBatch(out, max);
    // Remember the slice just handed out; the next transfer call poisons
    // it so stale readers fail loudly.
    last_out_ = out;
    last_n_ = n <= max ? n : max;
    CheckBatch(out, last_n_);
    return n;
  }

  bool OmitRows(std::span<const int> columns) override {
    RequireOpen("OmitRows()");
    omit_rows_ = child(0)->OmitRows(columns);
    omit_cols_.assign(columns.begin(), columns.end());
    return omit_rows_;
  }

  const VectorBatch* BatchColumns() const override {
    return child(0)->BatchColumns();
  }

  [[nodiscard]] Status Rescan() override {
    RequireOpen("Rescan()");
    PoisonStaleSlice();
    ForgetSlice();
    omit_rows_ = false;
    return child(0)->Rescan();
  }

  void Close() override {
    if (state_ == State::kCreated) {
      throw ContractViolation("Close() before Open()");
    }
    if (state_ == State::kClosed) {
      throw ContractViolation("double Close()");
    }
    PoisonStaleSlice();
    ForgetSlice();
    state_ = State::kClosed;
    child(0)->Close();
  }

  const Schema& output_schema() const override {
    return child(0)->output_schema();
  }
  sim::ModuleId module_id() const override { return child(0)->module_id(); }
  std::string label() const override {
    return "ContractChecked(" + child(0)->label() + ")";
  }
  bool BlocksInput(size_t i) const override {
    return child(0)->BlocksInput(i);
  }

 private:
  enum class State { kCreated, kOpen, kClosed };

  void RequireOpen(const char* call) const {
    if (state_ == State::kCreated) {
      throw ContractViolation(std::string(call) + " before Open()");
    }
    if (state_ == State::kClosed) {
      throw ContractViolation(std::string(call) + " after Close()");
    }
  }

  void PoisonStaleSlice() {
    for (size_t i = 0; i < last_n_; ++i) last_out_[i] = PoisonPointer();
  }

  void ForgetSlice() {
    last_out_ = nullptr;
    last_n_ = 0;
  }

  // The rows and published columns of a batch of n rows just returned.
  void CheckBatch(const uint8_t* const* out, size_t n) const {
    if (n == 0) return;
    const VectorBatch* pub = child(0)->BatchColumns();
    if (omit_rows_) {
      if (pub == nullptr || pub->rows() != n) {
        throw ContractViolation(
            "a batch without rows does not publish its rows' columns");
      }
      for (int c : omit_cols_) {
        if (pub->Find(c) == nullptr) {
          throw ContractViolation("a batch without rows lacks column " +
                                  std::to_string(c));
        }
      }
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      if (out[i] == PoisonPointer()) {
        throw ContractViolation(
            "NextBatch() left a row unwritten for a consumer that reads rows");
      }
    }
    if (pub == nullptr || pub->rows() == 0) return;
    if (pub->rows() != n) {
      throw ContractViolation("published columns hold " +
                              std::to_string(pub->rows()) +
                              " rows for a batch of " + std::to_string(n));
    }
    // The first and last rows, decoded as a consumer decodes them.
    std::vector<int> cols;
    for (size_t i = 0; i < pub->num_columns(); ++i) {
      cols.push_back(pub->column_at(i));
    }
    const uint8_t* const ends[] = {out[0], out[n - 1]};
    VectorBatch decoded;
    RowBatchDecoder::Decode(ends, 2, child(0)->output_schema(), cols,
                            &decoded);
    for (int c : cols) {
      CheckLane(c, pub->Get(c), 0, decoded.Get(c), 0);
      CheckLane(c, pub->Get(c), n - 1, decoded.Get(c), 1);
    }
  }

  // Lane `lane` of published column `col` against lane `row` of the same
  // column decoded from the returned rows: the null bytes, and the values
  // where not NULL.
  static void CheckLane(int col, const ColumnVector& pub, size_t lane,
                        const ColumnVector& decoded, size_t row) {
    const auto bits = [](const ColumnVector& v, size_t i) {
      uint64_t b;
      if (v.is_double()) {
        std::memcpy(&b, v.f64_data() + i, 8);
      } else {
        std::memcpy(&b, v.i64_data() + i, 8);
      }
      return b;
    };
    const uint8_t null = decoded.null_data()[row];
    if (pub.null_data()[lane] != null ||
        (null == 0 && bits(pub, lane) != bits(decoded, row))) {
      throw ContractViolation("published column " + std::to_string(col) +
                              " lane " + std::to_string(lane) +
                              " differs from the returned row");
    }
  }

  State state_ = State::kCreated;
  const uint8_t** last_out_ = nullptr;
  size_t last_n_ = 0;
  bool omit_rows_ = false;
  std::vector<int> omit_cols_;
};

/// Wraps `op` in a ContractCheckedOperator in checking builds; hands back
/// the same owning pointer otherwise. A macro (not an inline function) so
/// the two variants cannot collide across translation units with different
/// settings, and so the Release expansion is just a unique_ptr move —
/// no allocation, no wrapper object, no virtual hop.
#ifdef BUFFERDB_CHECK_CONTRACTS
#define BUFFERDB_WRAP_CONTRACT_CHECKED(op) \
  (::bufferdb::OperatorPtr(                \
      std::make_unique<::bufferdb::ContractCheckedOperator>(op)))
#else
#define BUFFERDB_WRAP_CONTRACT_CHECKED(op) (::bufferdb::OperatorPtr(op))
#endif

}  // namespace bufferdb
