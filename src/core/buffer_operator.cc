#include "core/buffer_operator.h"

#include <cstring>

#include "storage/tuple.h"

namespace bufferdb {

BufferOperator::BufferOperator(OperatorPtr child, size_t buffer_size,
                               bool copy_tuples)
    : buffer_size_(buffer_size == 0 ? 1 : buffer_size),
      copy_tuples_(copy_tuples) {
  AddChild(std::move(child));
  InitHotFuncs(module_id());
}

Status BufferOperator::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  filled_ = 0;
  end_of_tuples_ = false;
  refills_ = 0;
  replays_ = 0;
  total_buffered_ = 0;
  // Reserve the array once per Open; Refill reuses it so the hot loop never
  // reallocates (buffer_reallocs() asserts this in tests). resize keeps the
  // capacity across re-Opens.
  buffer_.resize(buffer_size_, nullptr);
  buffer_base_ = buffer_.data();
  return child(0)->Open(ctx);
}

void BufferOperator::Refill(bool batch) {
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
}

const uint8_t* BufferOperator::Next() {
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
  // Replay is only valid when the whole child stream sits in the array:
  // exactly one refill happened and it observed end-of-stream. (A second
  // refill overwrites the array, and refills_ == 0 means nothing was read
  // yet, so the state is already "at the beginning".)
  if (refills_ == 0) return Status::OK();
  if (end_of_tuples_ && refills_ == 1) {
    ++replays_;
    pos_ = 0;
    return Status::OK();
  }
  return Operator::Rescan();
}

void BufferOperator::Close() {
  buffer_.clear();
  child(0)->Close();
}

std::string BufferOperator::label() const {
  return "Buffer(" + std::to_string(buffer_size_) + ")";
}

void CollectBufferStats(const Operator& root,
                        std::vector<BufferRuntimeStats>* out) {
  if (const auto* buf = dynamic_cast<const BufferOperator*>(&root)) {
    BufferRuntimeStats s;
    s.label = buf->label();
    s.capacity = buf->buffer_size();
    s.refills = buf->refills();
    s.tuples_buffered = buf->tuples_buffered();
    out->push_back(std::move(s));
  }
  for (size_t i = 0; i < root.num_children(); ++i) {
    CollectBufferStats(*root.child(i), out);
  }
}

}  // namespace bufferdb
