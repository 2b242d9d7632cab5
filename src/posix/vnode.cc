#include "src/posix/vnode.h"

#include <algorithm>

#include "src/base/units.h"

namespace aurora {

Result<uint64_t> Vnode::Read(uint64_t off, void* out, uint64_t len) {
  return fs_->ReadAt(this, off, out, len);
}

Result<uint64_t> Vnode::Write(uint64_t off, const void* data, uint64_t len) {
  return fs_->WriteAt(this, off, data, len);
}

Status Vnode::Truncate(uint64_t new_size) { return fs_->Truncate(this, new_size); }

Status Vnode::Fsync() { return fs_->Fsync(this); }

std::shared_ptr<VmObject> Vnode::MakeVmObject() {
  Vnode* vn = this;
  auto obj = VmObject::CreateVnode(PageRound(size_), [vn](uint64_t pgidx) {
    uint64_t off = pgidx * kPageSize;
    if (off >= vn->size()) {
      return PageFrame();
    }
    // The file's tail page is read only up to its end, so the frame starts
    // zeroed.
    PageFrame frame = PageFrame::Zeroed();
    auto got = vn->Read(off, frame.MutableData(), std::min<uint64_t>(kPageSize, vn->size() - off));
    return got.ok() && *got > 0 ? frame : PageFrame();
  });
  obj->set_backing_ino(ino_);
  return obj;
}

}  // namespace aurora
