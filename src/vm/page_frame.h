// The bytes of one 4 KiB page, shared by reference.
//
// A frame is a refcounted page of bytes. Copying a PageFrame shares the
// bytes; they are freed with the last owner. A shared frame is never written
// in place: a writer takes MutableData(), which first copies the bytes into
// a frame of its own when any other owner holds them. So the standby's image
// table and the VM objects restored from it hold one copy of each page until
// one side writes it. The simulation has one thread, so the count is plain.
#ifndef SRC_VM_PAGE_FRAME_H_
#define SRC_VM_PAGE_FRAME_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "src/base/units.h"

namespace aurora {

class PageFrame {
 public:
  PageFrame() = default;  // no bytes
  // A frame of zero bytes.
  static PageFrame Zeroed() {
    PageFrame frame(new Rep);
    std::memset(frame.rep_->bytes, 0, kPageSize);
    return frame;
  }
  // A frame holding a copy of the 4 KiB at `bytes`.
  static PageFrame CopyOf(const uint8_t* bytes) {
    PageFrame frame(new Rep);
    std::memcpy(frame.rep_->bytes, bytes, kPageSize);
    return frame;
  }

  PageFrame(const PageFrame& other) : rep_(other.rep_) {
    if (rep_ != nullptr) {
      rep_->refs++;
    }
  }
  PageFrame& operator=(const PageFrame& other) {
    PageFrame copy(other);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  PageFrame(PageFrame&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  PageFrame& operator=(PageFrame&& other) noexcept {
    PageFrame moved(std::move(other));
    std::swap(rep_, moved.rep_);
    return *this;
  }
  ~PageFrame() {
    if (rep_ != nullptr && --rep_->refs == 0) {
      delete rep_;
    }
  }

  // Whether this frame holds no bytes (a default-constructed one).
  bool empty() const { return rep_ == nullptr; }
  const uint8_t* data() const { return rep_->bytes; }
  // The bytes for writing: a private copy first when the frame is shared.
  uint8_t* MutableData() {
    if (rep_->refs > 1) {
      *this = CopyOf(rep_->bytes);
    }
    return rep_->bytes;
  }
  // How many owners share these bytes.
  uint32_t owners() const { return rep_ == nullptr ? 0 : rep_->refs; }

 private:
  struct Rep {
    uint32_t refs = 1;
    uint8_t bytes[kPageSize];
  };
  explicit PageFrame(Rep* rep) : rep_(rep) {}

  Rep* rep_ = nullptr;
};

}  // namespace aurora

#endif  // SRC_VM_PAGE_FRAME_H_
