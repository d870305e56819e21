// Allocator adaptor that default-initializes instead of value-initializing.
//
// `std::vector<T>(n)` value-initializes — for scalar T that is a full
// zero-fill pass over the new buffer. A kernel-produced array (ufunc map,
// zip, fused-expression eval) overwrites every element in its one writing
// pass, so the zero-fill is pure wasted store traffic: at 2^20 doubles it
// adds 8 MiB of stores (and the page first-touch) *before* the kernel
// runs. Building the result vector with this allocator skips that pass;
// first touch then happens inside the writing kernel itself, on whichever
// pool lane runs the chunk — which is also the NUMA-friendly first-touch
// pattern a threaded kernel wants.
//
// Only use it for buffers every element of which is provably written
// before being read (DistArray::uninitialized documents the call-site
// rule). Explicit fills — vector(n, T{}) — behave identically under this
// allocator, so zero-semantics constructors keep their meaning.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace pyhpc::util {

template <class T, class Base = std::allocator<T>>
struct DefaultInitAllocator : Base {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<
        U, typename std::allocator_traits<Base>::template rebind_alloc<U>>;
  };

  using Base::Base;

  /// No-argument construct: default-init (no write for trivial T).
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  /// Every other construct keeps the base allocator's behaviour.
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    std::allocator_traits<Base>::construct(static_cast<Base&>(*this), p,
                                           std::forward<Args>(args)...);
  }
};

}  // namespace pyhpc::util
