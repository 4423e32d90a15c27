#ifndef RADIX_COMMON_UNINIT_VECTOR_H_
#define RADIX_COMMON_UNINIT_VECTOR_H_

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace radix {

/// std::allocator that default-initializes instead of value-initializing:
/// resize(n) on a vector of trivial T leaves the new elements unwritten,
/// exactly like `new T[n]`. The radix kernels overwrite every element of
/// their output and scratch buffers, so the zero-fill a plain vector does
/// first is one wasted serial pass over the whole array.
///
/// The storage stays on the malloc heap (unlike storage::Column's fresh
/// mapping), so a buffer can reuse memory the allocator kept resident from
/// an earlier, freed one — which keeps a query's peak RSS flat.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using std::allocator<T>::allocator;

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A vector whose resize() does not zero-fill (see DefaultInitAllocator).
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace radix

#endif  // RADIX_COMMON_UNINIT_VECTOR_H_
