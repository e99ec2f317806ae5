#pragma once
// Cache-line-aligned contiguous buffers for the sparse double kernels.
//
// The hot solve loops (BasisLu FTRAN/BTRAN, the CSR pivot-row pass of the
// dual ratio test) stream flat index/value arrays; aligning their storage
// to the cache line keeps every vector load inside one line and gives the
// auto-vectorizer alignment it can prove. This is a layout concern only:
// alignment never changes which operations run or in what order, so results
// are bit-identical to unaligned storage (the determinism contract of
// lp/parallel.h is untouched).

#include <cstddef>
#include <new>
#include <vector>

namespace ssco::lp {

inline constexpr std::size_t kBufferAlignment = 64;

/// Minimal std::allocator replacement handing out `Align`-byte-aligned
/// blocks via C++17 aligned operator new.
template <typename T, std::size_t Align = kBufferAlignment>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// std::vector whose data() is 64-byte aligned — the storage type of the
/// SoA kernel arenas (lp/basis_lu.h, the revised-simplex CSR mirror).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace ssco::lp
