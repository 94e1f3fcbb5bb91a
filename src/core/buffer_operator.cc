#include "core/buffer_operator.h"

#include <algorithm>
#include <cstring>

#include "storage/tuple.h"

namespace bufferdb {

BufferOperator::BufferOperator(OperatorPtr child, size_t buffer_size,
                               bool copy_tuples)
    : buffer_size_(buffer_size == 0 ? 1 : buffer_size),
      initial_size_(buffer_size_),
      copy_tuples_(copy_tuples) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
}

void BufferOperator::EnableAdaptive(const AdaptiveBufferOptions& options) {
  controller_ =
      std::make_unique<AdaptiveBufferController>(options, buffer_size_);
}

void BufferOperator::Resize(size_t new_size) {
  pending_resize_ = new_size == 0 ? 1 : new_size;
}

Status BufferOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  filled_ = 0;
  end_of_tuples_ = false;
  refills_ = 0;
  replays_ = 0;
  total_buffered_ = 0;
  last_refill_tuples_ = 0;
  pass_through_ = controller_ != nullptr && controller_->demoted();
  if (pass_through_) {
    // Runtime re-refinement (§7.3 analog): the observed cardinality came in
    // under the floor, so buffering costs more than it saves here. Serve
    // straight from the child — the unbuffered PCPC path.
    buffer_.clear();
    buffer_base_ = nullptr;
    return child(0)->Open(ctx);
  }
  if (pending_resize_ != 0) {
    buffer_size_ = pending_resize_;
    pending_resize_ = 0;
  }
  if (controller_ != nullptr) {
    size_t first = controller_->OnOpen(ctx, estimated_rows());
    buffer_size_ = first == 0 ? 1 : first;
    // High-water reservation: every capacity the sweep may pick fits
    // without moving the array, so refills stay realloc-free.
    buffer_.reserve(std::max(buffer_size_, controller_->max_capacity()));
  }
  // Reserve the array once per Open; Refill reuses it so the hot loop never
  // reallocates (buffer_reallocs() asserts this in tests). resize keeps the
  // capacity across re-Opens.
  buffer_.resize(buffer_size_, nullptr);
  buffer_base_ = buffer_.data();
  return child(0)->Open(ctx);
}

void BufferOperator::Refill(bool batch) {
  // Refill boundary: the previous window (if any) delivered `filled_`
  // tuples; the controller prices it and picks the next capacity. Resizes
  // apply only here — pos_/filled_ reset anyway, no slice is in flight, and
  // a valid Rescan replay (single-refill stream) never reaches a second
  // refill, so the replayed array is never disturbed.
  if (controller_ != nullptr) {
    pending_resize_ = controller_->OnRefillBoundary(filled_);
  }
  if (pending_resize_ != 0) {
    if (pending_resize_ != buffer_size_) {
      buffer_size_ = pending_resize_;
      buffer_.resize(buffer_size_, nullptr);
    }
    pending_resize_ = 0;
  }
  ++refills_;
  if (buffer_.data() != buffer_base_) {
    ++buffer_reallocs_;
    buffer_base_ = buffer_.data();
  }
  pos_ = 0;
  filled_ = 0;
  if (batch && !copy_tuples_) {
    // A batch-draining parent triggered this refill: pull the child through
    // NextBatch straight into the pointer array.
    while (filled_ < buffer_size_) {
      size_t n = child(0)->NextBatch(buffer_.data() + filled_,
                                     buffer_size_ - filled_);
      if (n == 0) {
        end_of_tuples_ = true;
        break;
      }
      ctx_->Touch(buffer_.data() + filled_, n * sizeof(const uint8_t*));
      filled_ += n;
    }
  } else {
    const Schema& schema = child(0)->output_schema();
    while (filled_ < buffer_size_) {
      const uint8_t* tuple = child(0)->Next();
      if (tuple == nullptr) {
        end_of_tuples_ = true;
        break;
      }
      if (copy_tuples_) {
        // Ablation: copy the tuple bytes instead of storing a pointer.
        TupleView view(tuple, &schema);
        uint8_t* copy = ctx_->arena.Allocate(view.size_bytes());
        std::memcpy(copy, tuple, view.size_bytes());
        ctx_->Touch(copy, view.size_bytes());
        tuple = copy;
      }
      buffer_[filled_] = tuple;
      ctx_->Touch(&buffer_[filled_], sizeof(const uint8_t*));
      ++filled_;
    }
  }
  total_buffered_ += filled_;
  last_refill_tuples_ = filled_;
  if (end_of_tuples_ && controller_ != nullptr) {
    controller_->OnStreamEnd(total_buffered_);
  }
}

const uint8_t* BufferOperator::Next() {
  if (pass_through_) return child(0)->Next();
  // GetNext() per the paper's Fig. 6 pseudocode.
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (pos_ >= filled_) {
    if (end_of_tuples_) return nullptr;
    Refill(/*batch=*/false);
    if (filled_ == 0) return nullptr;
  }
  ctx_->Touch(&buffer_[pos_], sizeof(const uint8_t*));
  return buffer_[pos_++];
}

size_t BufferOperator::NextBatch(const uint8_t** out, size_t max) {
  if (pass_through_) return child(0)->NextBatch(out, max);
  // One buffer-module execution per slice, not per tuple: the batch path
  // amortizes the buffer's own GetNext code across the slice (this is what
  // the simulated i-cache counters observe as the batch/buffer interaction).
  ctx_->ExecModule(module_id(), hot_funcs_);
  if (pos_ >= filled_) {
    if (end_of_tuples_) return 0;
    Refill(/*batch=*/true);
    if (filled_ == 0) return 0;
  }
  size_t n = filled_ - pos_;
  if (n > max) n = max;
  std::memcpy(out, buffer_.data() + pos_, n * sizeof(const uint8_t*));
  ctx_->Touch(buffer_.data() + pos_, n * sizeof(const uint8_t*));
  pos_ += n;
  return n;
}

Status BufferOperator::Rescan() {
  if (pass_through_) return child(0)->Rescan();
  // Replay is only valid when the whole child stream sits in the array:
  // exactly one refill happened and it observed end-of-stream. (A second
  // refill overwrites the array, and refills_ == 0 means nothing was read
  // yet, so the state is already "at the beginning".) Replay stays valid
  // under a pending Resize — the pending size only applies at a refill,
  // which a replayed stream never performs. It also trumps demotion: the
  // array already holds the whole stream, so serving it again is cheaper
  // than re-executing the child.
  if (refills_ == 0) return Status::OK();
  if (end_of_tuples_ && refills_ == 1) {
    ++replays_;
    pos_ = 0;
    return Status::OK();
  }
  if (controller_ != nullptr && end_of_tuples_) {
    // Feedback (DESIGN.md §14): the stream's exact length is known
    // (end-of-stream was observed) but it took multiple refills, so this
    // Rescan must re-execute the child. Tell the controller so the re-fill
    // uses a capacity that holds the whole stream and later Rescans replay.
    controller_->OnRescanMiss(total_buffered_);
  }
  return Operator::Rescan();
}

void BufferOperator::Close() {
  buffer_.clear();
  child(0)->Close();
}

std::string BufferOperator::label() const {
  if (controller_ != nullptr) {
    // Stable across the run (re-sizing would churn profile/plan matching):
    // the chosen capacity is reported via AnalyzeDetail()/plan_printer.
    std::string out = "Buffer(adaptive:";
    out += std::to_string(initial_size_);
    out += ")";
    return out;
  }
  return "Buffer(" + std::to_string(buffer_size_) + ")";
}

std::string BufferOperator::AnalyzeDetail() const {
  if (controller_ == nullptr) return std::string();
  return controller_->Summary();
}

}  // namespace bufferdb
