#include "src/posix/file.h"

namespace aurora {

uint64_t FileObject::next_kernel_id_ = 1;
uint64_t FileDescription::next_kernel_id_ = 1;

FileObject::FileObject() : kernel_id_(next_kernel_id_++) {}
FileDescription::FileDescription() : kernel_id(next_kernel_id_++) {}

Result<int> FdTable::Install(std::shared_ptr<FileDescription> desc, bool cloexec) {
  for (size_t i = 0; i < slots_.size(); i++) {
    if (slots_[i].desc == nullptr) {
      generation_++;
      slots_[i] = Slot{std::move(desc), cloexec};
      return static_cast<int>(i);
    }
  }
  if (slots_.size() >= static_cast<size_t>(kMaxFds)) {
    return Status::Error(Errc::kNoSpace, "descriptor table full");
  }
  generation_++;
  slots_.push_back(Slot{std::move(desc), cloexec});
  return static_cast<int>(slots_.size() - 1);
}

Status FdTable::InstallAt(int fd, std::shared_ptr<FileDescription> desc, bool cloexec) {
  if (fd < 0 || fd >= kMaxFds) {
    return Status::Error(Errc::kInvalidArgument, "fd outside the descriptor limit");
  }
  if (static_cast<size_t>(fd) >= slots_.size()) {
    slots_.resize(static_cast<size_t>(fd) + 1);
  }
  slots_[static_cast<size_t>(fd)] = Slot{std::move(desc), cloexec};
  generation_++;
  return Status::Ok();
}

Result<std::shared_ptr<FileDescription>> FdTable::Get(int fd) const {
  if (fd < 0 || static_cast<size_t>(fd) >= slots_.size() ||
      slots_[static_cast<size_t>(fd)].desc == nullptr) {
    return Status::Error(Errc::kNotFound, "bad file descriptor");
  }
  return slots_[static_cast<size_t>(fd)].desc;
}

Status FdTable::Close(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= slots_.size() ||
      slots_[static_cast<size_t>(fd)].desc == nullptr) {
    return Status::Error(Errc::kNotFound, "bad file descriptor");
  }
  slots_[static_cast<size_t>(fd)] = Slot{};
  generation_++;
  return Status::Ok();
}

void FdTable::CloseAll() {
  slots_.clear();
  generation_++;
}

Result<int> FdTable::Dup(int fd) {
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, Get(fd));
  return Install(std::move(desc));
}

FdTable FdTable::Clone() const {
  FdTable copy;
  copy.slots_ = slots_;  // descriptions shared, slots copied: fork semantics
  return copy;
}

}  // namespace aurora
