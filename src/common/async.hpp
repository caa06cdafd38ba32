// Sequential asynchronous loops and fan-in joins for callback-style code.
//
// run_steps() runs a loop one step at a time. Each step gets a `next`
// callback and calls it, now or from a later event, to go on; a step that
// drops `next` stops the loop. A `next` called before its step returns
// continues the loop in a `while` on the same frame, so stack depth does
// not grow with the number of steps. Only the pending `next` owns the
// loop's state and no closure refers to itself, so that state is freed as
// soon as the loop ends.
//
// Joiner merges N sub-operations into one completion with first-error-wins.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "common/status.hpp"

namespace storm {

/// Goes on to the loop's next step. Call it once, as the step's last act.
using Next = std::function<void()>;
/// One step of a loop: handles item `i`, then calls `next` to go on.
using Step = std::function<void(std::size_t i, Next next)>;

namespace detail {

struct StepLoop {
  Step step;
  std::size_t i = 0;
  bool in_step = false;  // a step is running on drive()'s frame
  bool again = false;    // ...and has already called its `next`

  static void drive(std::shared_ptr<StepLoop> loop) {
    do {
      loop->again = false;
      loop->in_step = true;
      loop->step(loop->i++, [loop] {
        if (loop->in_step) {
          loop->again = true;
        } else {
          drive(loop);
        }
      });
      loop->in_step = false;
    } while (loop->again);
  }
};

}  // namespace detail

/// Runs step(0, next), step(1, next), ... for as long as each step calls
/// its `next`: for loops whose length is not known up front.
inline void run_steps(Step step) {
  auto loop = std::make_shared<detail::StepLoop>();
  loop->step = std::move(step);
  detail::StepLoop::drive(std::move(loop));
}

/// Runs steps 0..n-1 one after another, then `finish`.
inline void run_steps(std::size_t n, Step step, std::function<void()> finish) {
  run_steps([n, step = std::move(step), finish = std::move(finish)](
                std::size_t i, Next next) {
    if (i == n) {
      finish();
      return;
    }
    step(i, std::move(next));
  });
}

/// Completion for one step of a loop that reports a Status: goes on with
/// `next` on success, otherwise stops the loop and hands the error to
/// `fail`.
inline std::function<void(Status)> next_or_fail(
    Next next, std::function<void(Status)> fail) {
  return [next = std::move(next), fail = std::move(fail)](Status status) {
    if (!status.is_ok()) {
      fail(status);
      return;
    }
    next();
  };
}

/// Joins N asynchronous sub-operations into one completion: `on_done`
/// runs once the join is sealed and every begun sub-operation finished,
/// with OK or the first error.
struct Joiner : std::enable_shared_from_this<Joiner> {
  int outstanding = 0;
  bool sealed = false;
  Status first_error = Status::ok();
  std::function<void(Status)> on_done;

  static std::shared_ptr<Joiner> make(std::function<void(Status)> done) {
    auto joiner = std::make_shared<Joiner>();
    joiner->on_done = std::move(done);
    return joiner;
  }

  /// Register one sub-operation; call the returned functor on completion.
  std::function<void(Status)> begin() {
    ++outstanding;
    return [self = shared_from_this()](Status status) {
      if (!status.is_ok() && self->first_error.is_ok()) {
        self->first_error = status;
      }
      --self->outstanding;
      self->maybe_fire();
    };
  }

  /// No more sub-operations will begin.
  void seal() {
    sealed = true;
    maybe_fire();
  }

  /// Record `status` as one failed sub-operation, then seal.
  void fail(Status status) {
    begin()(std::move(status));
    seal();
  }

 private:
  void maybe_fire() {
    if (sealed && outstanding == 0 && on_done) {
      auto done = std::move(on_done);
      on_done = nullptr;
      done(first_error);
    }
  }
};

}  // namespace storm
