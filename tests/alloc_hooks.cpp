// Counting replacements of the global operator new/delete for alloc_test:
// every allocation bumps a per-thread counter. Kept in a file of their own
// so no translation unit sees both these definitions and the inline
// library code that allocates through them.
#include <cstddef>
#include <cstdlib>
#include <new>

thread_local std::size_t t_allocations = 0;

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
