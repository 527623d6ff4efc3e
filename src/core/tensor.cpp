#include "core/tensor.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>

#include "perf/counters.hpp"

namespace fastchg {

index_t numel_of(const Shape& shape) {
  index_t n = 1;
  for (index_t d : shape) {
    FASTCHG_CHECK(d >= 0, "negative dimension in shape " << shape_str(shape));
    n *= d;
  }
  return shape.empty() ? 0 : n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

bool same_shape(const Shape& a, const Shape& b) { return a == b; }

// Tracked storage block.  Two backing modes:
//  * allocator-backed: the data block comes from `alloc` (pool or system)
//    and is returned to the same allocator on destruction -- this is how
//    graph teardown feeds the pool's free lists;
//  * adopted-vector: from_vector(&&) moves a std::vector in wholesale and
//    uses its buffer directly (alloc == nullptr), skipping both the copy
//    and the allocation.
// Either way the perf tracker records logical tensor bytes, so
// bytes_live/bytes_peak are identical whichever allocator (or adoption
// path) backed the tensor.
struct Tensor::Storage {
  Storage(index_t n, const alloc::AllocatorPtr& a)
      : alloc(a),
        ptr(static_cast<float*>(a->allocate(payload_bytes(n)))),
        n(n) {
    perf::track_alloc(tensor_bytes(n));
  }
  explicit Storage(std::vector<float>&& v)
      : adopted(std::move(v)),
        ptr(adopted.data()),
        n(static_cast<index_t>(adopted.size())) {
    perf::track_alloc(tensor_bytes(n));
  }
  ~Storage() {
    perf::track_free(tensor_bytes(n));
    if (alloc) alloc->deallocate(ptr, payload_bytes(n));
  }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  static std::size_t payload_bytes(index_t n) {
    return static_cast<std::size_t>(n) * sizeof(float);
  }

  alloc::AllocatorPtr alloc;   // null in adopted-vector mode
  std::vector<float> adopted;  // owns the buffer in adopted-vector mode
  float* ptr;
  index_t n;
};

Tensor Tensor::empty(Shape shape) {
  Tensor t;
  t.numel_ = numel_of(shape);
  t.shape_ = std::move(shape);
  // allocate_shared puts the shared_ptr control block + Storage header on
  // the same allocator as the data, so a steady-state tensor costs zero
  // system allocations: header and payload are both pool hits.
  alloc::AllocatorPtr a = alloc::current_allocator();
  t.storage_ = std::allocate_shared<Storage>(
      alloc::StlAdapter<Storage>(a), std::max<index_t>(t.numel_, 1), a);
  return t;
}

Tensor Tensor::zeros(Shape shape) {
  Tensor t = empty(std::move(shape));
  std::memset(t.data(), 0, static_cast<std::size_t>(t.numel_) * sizeof(float));
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = empty(std::move(shape));
  std::fill_n(t.data(), t.numel_, value);
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& v, Shape shape) {
  Tensor t = empty(std::move(shape));
  FASTCHG_CHECK(static_cast<index_t>(v.size()) == t.numel_,
                "from_vector: " << v.size() << " values for shape "
                                << shape_str(t.shape_));
  std::copy(v.begin(), v.end(), t.data());
  return t;
}

Tensor Tensor::from_vector(std::vector<float>&& v, Shape shape) {
  const index_t n = numel_of(shape);
  FASTCHG_CHECK(static_cast<index_t>(v.size()) == n,
                "from_vector: " << v.size() << " values for shape "
                                << shape_str(shape));
  // Empty shapes keep the 1-float minimum storage empty() guarantees.
  if (v.empty()) return empty(std::move(shape));
  // Move-adoption uses the vector's buffer as-is, which a stock malloc only
  // aligns to 16 bytes.  When it misses the arena contract (kArenaAlign),
  // fall back to the copying overload so every tensor payload stays
  // 64-byte-aligned for the SIMD op library.
  if (reinterpret_cast<std::uintptr_t>(v.data()) % alloc::kArenaAlign != 0) {
    return from_vector(v, std::move(shape));
  }
  Tensor t;
  t.numel_ = n;
  t.shape_ = std::move(shape);
  alloc::AllocatorPtr a = alloc::current_allocator();
  t.storage_ = std::allocate_shared<Storage>(alloc::StlAdapter<Storage>(a),
                                             std::move(v));
  return t;
}

index_t Tensor::size(index_t d) const {
  FASTCHG_CHECK(d >= 0 && d < dim(),
                "size(" << d << ") on tensor of dim " << dim());
  return shape_[static_cast<std::size_t>(d)];
}

float* Tensor::data() {
  FASTCHG_CHECK(defined(), "data() on undefined tensor");
  return storage_->ptr;
}

const float* Tensor::data() const {
  FASTCHG_CHECK(defined(), "data() on undefined tensor");
  return storage_->ptr;
}

const alloc::Allocator* Tensor::source_allocator() const {
  return storage_ ? storage_->alloc.get() : nullptr;
}

float Tensor::item() const {
  FASTCHG_CHECK(numel_ == 1, "item() on tensor of numel " << numel_);
  return data()[0];
}

Tensor Tensor::reshape(Shape shape) const {
  FASTCHG_CHECK(defined(), "reshape() on undefined tensor");
  const index_t n = numel_of(shape);
  FASTCHG_CHECK(n == numel_, "reshape " << shape_str(shape_) << " -> "
                                        << shape_str(shape));
  Tensor t;
  t.storage_ = storage_;
  t.shape_ = std::move(shape);
  t.numel_ = n;
  return t;
}

Tensor Tensor::clone() const {
  FASTCHG_CHECK(defined(), "clone() on undefined tensor");
  Tensor t = empty(shape_);
  std::memcpy(t.data(), data(),
              static_cast<std::size_t>(numel_) * sizeof(float));
  return t;
}

void Tensor::fill_(float value) { std::fill_n(data(), numel_, value); }

void Tensor::add_(const Tensor& other, float alpha) {
  FASTCHG_CHECK(same_shape(shape_, other.shape_),
                "add_: " << shape_str(shape_) << " vs "
                         << shape_str(other.shape_));
  // Rounds the product before the add (no FMA contraction on the baseline
  // ISA), so optimizer and all-reduce updates are the same bytes everywhere.
  float* o = data();
  const float* b = other.data();
  for (index_t i = 0; i < numel_; ++i) o[i] += alpha * b[i];
}

void Tensor::mul_(float s) {
  float* o = data();
  for (index_t i = 0; i < numel_; ++i) o[i] *= s;
}

std::vector<float> Tensor::to_vector() const {
  return std::vector<float>(data(), data() + numel_);
}

}  // namespace fastchg
