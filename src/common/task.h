// Task<T>: the coroutine type of the serving simulator.
//
// A Task starts eagerly — calling a coroutine that returns Task<T> runs its
// body on the caller's stack up to the first suspension point — and owns
// its frame. Awaiting a Task suspends the awaiter until the task finishes,
// then resumes it by symmetric transfer; the task's value or exception comes
// out of the co_await. Nothing here schedules anything: a suspended chain is
// resumed by whoever holds the innermost handle (SharedLink resumes flows
// whose transfer, wait or GPU drain has finished).
//
// When every awaited operation completes inline (a standalone Link), the
// whole chain has run by the time the outermost call returns and Get()
// hands back the result; Get() on a task still suspended is a logic error.
// Single-threaded by design: a Task is created, awaited and resumed on one
// thread.
//
// Frame recycling. Every call to a Task coroutine needs a frame, and the
// serving loop makes several per request (the request itself, its stream,
// each link send or wait, the GPU drain). Frames are therefore recycled
// through a thread-local free list per 64-byte size class: a freed frame of
// up to 4 KiB goes onto its class's list and the next frame of that class
// reuses it, so a steady-state loop allocates no frame memory at all. The
// lists keep at most as many frames as were ever live at once on the
// thread, and are returned to the heap when the thread exits. Under
// AddressSanitizer a parked frame is poisoned, so a use after the frame was
// destroyed is still reported.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define CACHEGEN_TASK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CACHEGEN_TASK_ASAN 1
#endif
#endif
#ifdef CACHEGEN_TASK_ASAN
#include <sanitizer/asan_interface.h>
#define CACHEGEN_FRAME_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CACHEGEN_FRAME_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CACHEGEN_FRAME_POISON(p, n) ((void)(p), (void)(n))
#define CACHEGEN_FRAME_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace cachegen {

template <typename T = void>
class Task;

namespace task_detail {

// The thread-local frame free lists (see "Frame recycling" above).
class FramePool {
 public:
  static void* Allocate(std::size_t n) {
    const std::size_t c = Class(n);
    Lists& l = lists();
    if (c == 0 || c >= kClasses || l.dead) return ::operator new(n);
    Node* node = l.head[c];
    if (node == nullptr) return ::operator new(c * kGranule);
    CACHEGEN_FRAME_UNPOISON(node, c * kGranule);
    l.head[c] = node->next;
    return node;
  }

  static void Free(void* p, std::size_t n) noexcept {
    const std::size_t c = Class(n);
    Lists& l = lists();
    if (c == 0 || c >= kClasses || l.dead) {
      ::operator delete(p);
      return;
    }
    if (!l.reaper_armed) {
      // First frame parked on this thread: make sure the lists go back to
      // the heap when it exits.
      l.reaper_armed = true;
      static thread_local Reaper reaper;
      (void)reaper;
    }
    Node* node = static_cast<Node*>(p);
    node->next = l.head[c];
    l.head[c] = node;
    CACHEGEN_FRAME_POISON(node, c * kGranule);
  }

 private:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 65;  // classes 1..64: up to 4 KiB

  struct Node {
    Node* next;
  };
  // Trivially destructible, so it stays usable while other thread-local
  // objects are destroyed; `dead` sends late frees straight to the heap.
  struct Lists {
    Node* head[kClasses];
    bool reaper_armed;
    bool dead;
  };
  struct Reaper {
    ~Reaper() {
      Lists& l = lists();
      l.dead = true;
      for (std::size_t c = 0; c < kClasses; ++c) {
        while (Node* node = l.head[c]) {
          CACHEGEN_FRAME_UNPOISON(node, c * kGranule);
          l.head[c] = node->next;
          ::operator delete(node);
        }
      }
    }
  };

  static std::size_t Class(std::size_t n) { return (n + kGranule - 1) / kGranule; }
  static Lists& lists() {
    static thread_local Lists l{};
    return l;
  }
};

struct PromiseBase {
  static void* operator new(std::size_t n) { return FramePool::Allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::Free(p, n);
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  std::suspend_never initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      const std::coroutine_handle<> next = h.promise().continuation;
      return next ? next : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { error = std::current_exception(); }
  void Rethrow() const {
    if (error) std::rethrow_exception(error);
  }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object() noexcept;
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  T Take() {
    Rethrow();
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void Take() const { Rethrow(); }
};

}  // namespace task_detail

template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = task_detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) noexcept : h_(h) {}
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  // True once the task has run to its end (never for an empty Task).
  bool done() const { return h_ && h_.done(); }

  // The result of a finished task (rethrows its exception).
  T Get() && {
    if (!done()) {
      throw std::logic_error(
          "Task::Get: the task is suspended on an operation nothing inline "
          "completes");
    }
    return h_.promise().Take();
  }

  // Awaitable: resume the awaiter once this task has finished.
  bool await_ready() const noexcept { return h_.done(); }
  void await_suspend(std::coroutine_handle<> awaiter) noexcept {
    h_.promise().continuation = awaiter;
  }
  T await_resume() { return h_.promise().Take(); }

 private:
  Handle h_;
};

namespace task_detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace task_detail

}  // namespace cachegen
