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
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

namespace cachegen {

template <typename T = void>
class Task;

namespace task_detail {

struct PromiseBase {
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
