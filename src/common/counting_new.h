// Counting global allocator for allocation-budget checks.
//
// Including this header REPLACES the global operator new/delete of the whole
// executable with forwarders to malloc/free that count allocation calls
// while counting is switched on. Include it in exactly one translation unit
// of a test or bench executable, never from library code.
//
//   cachegen::alloc_count::Start();
//   ... the region under test ...
//   const uint64_t n = cachegen::alloc_count::Stop();  // allocations made
//
// Every thread's allocations count, so a region that wakes pool threads is
// charged for them too.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace cachegen::alloc_count {

inline std::atomic<bool> g_on{false};
inline std::atomic<uint64_t> g_allocs{0};

inline void Start() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_on.store(true, std::memory_order_relaxed);
}
inline uint64_t Stop() {
  g_on.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

inline void* Alloc(std::size_t n, std::size_t align = 0) {
  if (g_on.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (align == 0) return std::malloc(n == 0 ? 1 : n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

inline void* AllocOrThrow(std::size_t n, std::size_t align = 0) {
  if (void* p = Alloc(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace cachegen::alloc_count

void* operator new(std::size_t n) { return cachegen::alloc_count::AllocOrThrow(n); }
void* operator new[](std::size_t n) {
  return cachegen::alloc_count::AllocOrThrow(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return cachegen::alloc_count::Alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return cachegen::alloc_count::Alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return cachegen::alloc_count::AllocOrThrow(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return cachegen::alloc_count::AllocOrThrow(n, static_cast<std::size_t>(al));
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
