// Copy-on-write over std::shared_ptr: an object held by more than one
// pointer is shared and never written in place; its holder clones it first.
#pragma once

#include <atomic>
#include <memory>

namespace rocks {

/// True when `held` is the only pointer to its object, so the caller may
/// write the object in place. use_count() is a relaxed read: the acquire
/// fence orders the caller's writes after everything another thread did
/// with the object before it dropped its last pointer (that drop is a
/// release decrement). This is what shared_ptr::unique() lacked.
template <class T>
[[nodiscard]] bool sole_holder(const std::shared_ptr<T>& held) {
  if (held.use_count() > 1) return false;
#if !defined(__SANITIZE_THREAD__)
  // ThreadSanitizer does not model fences (GCC warns under -Wtsan); it
  // sees this path as unsynchronized with or without one.
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
  return true;
}

}  // namespace rocks
