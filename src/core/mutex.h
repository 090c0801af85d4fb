#ifndef CRE_CORE_MUTEX_H_
#define CRE_CORE_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.h"

namespace cre {

/// Annotated wrapper over std::mutex. Declaring a member `Mutex mu_` (and
/// fields `CRE_GUARDED_BY(mu_)`) lets Clang's thread-safety analysis prove
/// at compile time that every guarded access happens under the lock. The
/// wrapper adds no state and no overhead; off Clang it behaves exactly
/// like std::mutex.
class CRE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CRE_ACQUIRE() { mu_.lock(); }
  void Unlock() CRE_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() CRE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop with std::condition_variable
  /// (CondVar below). Bypasses the analysis — don't lock it directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex (the annotated std::lock_guard/std::unique_lock
/// replacement). Supports mid-scope Unlock()/Lock() cycles — the pattern
/// used by code that drops the lock around expensive work (index builds,
/// plan rebinds, task execution) — with the analysis tracking the
/// capability through each transition.
class CRE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CRE_ACQUIRE(mu) : mu_(&mu), owned_(true) {
    mu_->Lock();
  }
  ~MutexLock() CRE_RELEASE() {
    if (owned_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the lock before scope end (e.g. to run a build outside the
  /// critical section). The destructor then does nothing unless Lock()
  /// re-acquires first.
  void Unlock() CRE_RELEASE() {
    mu_->Unlock();
    owned_ = false;
  }

  /// Re-acquires after Unlock().
  void Lock() CRE_ACQUIRE() {
    mu_->Lock();
    owned_ = true;
  }

  bool owns_lock() const { return owned_; }
  Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_;
  bool owned_;
};

/// Condition variable paired with Mutex/MutexLock. Wait takes the scoped
/// lock and atomically releases/re-acquires the underlying mutex; callers
/// keep the capability across the call from the analysis' point of view,
/// which is exactly right — the guarded predicate re-check after wakeup
/// happens with the lock held. Waits must be written as explicit
/// while-loops (not lambda predicates) so guarded reads stay inside the
/// annotated caller.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) CRE_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(lock.mutex()->native(),
                                        std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with `lock`
  }

  /// Returns false on timeout (lock re-held either way).
  template <typename Rep, typename Period>
  bool WaitFor(MutexLock& lock,
               const std::chrono::duration<Rep, Period>& timeout)
      CRE_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> native(lock.mutex()->native(),
                                        std::adopt_lock);
    const bool ok = cv_.wait_for(native, timeout) == std::cv_status::no_timeout;
    native.release();
    return ok;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cre

#endif  // CRE_CORE_MUTEX_H_
