// Identifier allocation with reservation, used for PID/TID virtualization.
//
// Aurora restores processes with their checkpoint-time ("local") IDs while
// the kernel allocates fresh ("global") IDs for the rest of the system. The
// allocator supports reserving specific IDs at restore time, which mirrors
// the paper's PID/TID reservation kernel changes.
#ifndef SRC_BASE_ID_ALLOCATOR_H_
#define SRC_BASE_ID_ALLOCATOR_H_

#include <cstdint>
#include <set>

#include "src/base/result.h"

namespace aurora {

class IdAllocator {
 public:
  explicit IdAllocator(uint64_t first = 1, uint64_t last = UINT64_MAX)
      : first_(first), last_(last), next_(first) {}

  // Allocates the lowest free ID at or after the rotor position.
  [[nodiscard]] Result<uint64_t> Allocate() {
    for (uint64_t attempts = 0; attempts <= last_ - first_; attempts++) {
      uint64_t candidate = next_;
      next_ = (next_ >= last_) ? first_ : next_ + 1;
      if (used_.insert(candidate).second) {
        return candidate;
      }
    }
    return Status::Error(Errc::kNoSpace, "id space exhausted");
  }

  // Reserves a specific ID (restore path). Fails if already in use.
  [[nodiscard]] Status Reserve(uint64_t id) {
    if (id < first_ || id > last_) {
      return Status::Error(Errc::kOutOfRange, "id outside allocator range");
    }
    if (!used_.insert(id).second) {
      return Status::Error(Errc::kExists, "id already in use");
    }
    return Status::Ok();
  }

  void Release(uint64_t id) { used_.erase(id); }

 private:
  uint64_t first_;
  uint64_t last_;
  uint64_t next_;
  std::set<uint64_t> used_;
};

}  // namespace aurora

#endif  // SRC_BASE_ID_ALLOCATOR_H_
