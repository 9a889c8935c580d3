// Counting replacements for the global operator new/delete.
//
// Include from exactly one translation unit of a test binary (every test
// binary here is one file): the replacements apply to the whole binary,
// allocation_count() reports how many heap allocations it has made, and
// allocated_bytes() how many bytes they requested in total (frees are not
// subtracted). Tests snapshot the counters around a run to pin its
// allocation cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace fnr::test {

inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::uint64_t> g_allocated_bytes{0};

inline std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

inline void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace fnr::test

void* operator new(std::size_t size) { return fnr::test::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return fnr::test::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  fnr::test::count_allocation(size);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
