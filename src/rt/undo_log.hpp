// Per-iteration undo log: speculative mutations register inverse actions,
// which run in reverse order if the iteration aborts (the "roll-back" of
// optimistic parallelization). Committed iterations simply discard the log.
//
// Rollback is TWO-PHASE exception-safe (DESIGN.md §8): an inverse that
// throws must not strand the inverses recorded before it — the unwind
// always runs to completion (phase 1), and only then are the collected
// per-action errors surfaced as one RollbackError (phase 2). Anything less
// leaks speculative state into the shared data structures, which the
// round-synchronous executor can never repair.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace optipar {

/// Raised after a completed unwind in which one or more inverses threw.
/// Carries per-action context: the record-order index of each failed
/// inverse and the message it threw with.
class RollbackError : public std::runtime_error {
 public:
  struct ActionError {
    std::size_t index;  ///< record-order index of the failing inverse
    std::string what;   ///< message of the exception it threw
  };

  explicit RollbackError(std::vector<ActionError> errors)
      : std::runtime_error(format(errors)), errors_(std::move(errors)) {}

  [[nodiscard]] const std::vector<ActionError>& errors() const noexcept {
    return errors_;
  }

 private:
  static std::string format(const std::vector<ActionError>& errors) {
    std::string msg = "rollback completed with " +
                      std::to_string(errors.size()) + " failed inverse(s):";
    for (const auto& e : errors) {
      msg += " [#" + std::to_string(e.index) + ": " + e.what + "]";
    }
    return msg;
  }

  std::vector<ActionError> errors_;
};

class UndoLog {
 public:
  /// Register the inverse of a mutation just performed. Recycles the slot
  /// storage of previous iterations: the arena resets a context's log with
  /// discard(), which rewinds the cursor without releasing the vector, so
  /// a steady-state task re-records into existing slots (and small-buffer
  /// std::function targets never touch the heap).
  void record(std::function<void()> inverse) {
    if (size_ < actions_.size()) {
      actions_[size_] = std::move(inverse);
    } else {
      actions_.push_back(std::move(inverse));
    }
    ++size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Abort path: run all inverses newest-first. The unwind is two-phase —
  /// every inverse runs even if earlier ones throw; collected failures are
  /// then surfaced as a single RollbackError with per-action context. The
  /// log is empty afterwards in both outcomes.
  void rollback() {
    std::vector<RollbackError::ActionError> errors;
    for (std::size_t i = size_; i-- > 0;) {
      try {
        actions_[i]();
      } catch (const std::exception& e) {
        errors.push_back({i, e.what()});
      } catch (...) {
        errors.push_back({i, "non-std exception"});
      }
    }
    size_ = 0;
    if (!errors.empty()) throw RollbackError(std::move(errors));
  }

  /// Commit path: forget the inverses. Keeps slot storage for recycling.
  void discard() noexcept { size_ = 0; }

 private:
  // Live prefix [0, size_) of actions_; slots past the cursor are retained
  // moved-from/stale functions kept only for storage reuse.
  std::vector<std::function<void()>> actions_;
  std::size_t size_ = 0;
};

}  // namespace optipar
