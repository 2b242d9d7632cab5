// Binary serialization for checkpoint records and on-disk structures.
//
// Every persistent Aurora object serializes through these writers/readers.
// The format is little-endian, length-prefixed for variable fields, and all
// readers bounds-check so corrupt checkpoint images fail cleanly rather than
// crash the restore path.
#ifndef SRC_BASE_SERIALIZER_H_
#define SRC_BASE_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"

namespace aurora {

class BinaryWriter {
 public:
  BinaryWriter() = default;
  // Appends to `data`, which the writer takes over until Take().
  explicit BinaryWriter(std::vector<uint8_t> data) : data_(std::move(data)) {}

  void PutU8(uint8_t v) { Append(&v, 1); }
  void PutU16(uint16_t v) { AppendLe(v); }
  void PutU32(uint32_t v) { AppendLe(v); }
  void PutU64(uint64_t v) { AppendLe(v); }
  void PutI64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  void PutBytes(const void* data, size_t len) {
    PutU64(len);
    Append(data, len);
  }
  void PutString(const std::string& s) { PutBytes(s.data(), s.size()); }

  // Raw append without a length prefix (fixed-size payloads, e.g. pages).
  void PutRaw(const void* data, size_t len) { Append(data, len); }

  // Overwrites the u64 at `pos`, for a field known only after what follows
  // it (a frame's length).
  void PatchU64(size_t pos, uint64_t v) {
    for (size_t i = 0; i < sizeof(v); i++) {
      data_[pos + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t> Take() { return std::move(data_); }
  size_t size() const { return data_.size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    uint8_t buf[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); i++) {
      buf[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Append(buf, sizeof(T));
  }
  void Append(const void* p, size_t len) {
    const auto* b = static_cast<const uint8_t*>(p);
    data_.insert(data_.end(), b, b + len);
  }

  std::vector<uint8_t> data_;
};

class BinaryReader {
 public:
  BinaryReader(const void* data, size_t len)
      : data_(static_cast<const uint8_t*>(data)), len_(len) {}
  explicit BinaryReader(const std::vector<uint8_t>& buf) : BinaryReader(buf.data(), buf.size()) {}

  [[nodiscard]] Result<uint8_t> U8() { return Fixed<uint8_t>(); }
  [[nodiscard]] Result<uint16_t> U16() { return Fixed<uint16_t>(); }
  [[nodiscard]] Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  [[nodiscard]] Result<uint64_t> U64() { return Fixed<uint64_t>(); }
  [[nodiscard]] Result<int64_t> I64() {
    auto r = Fixed<uint64_t>();
    if (!r.ok()) {
      return r.status();
    }
    return static_cast<int64_t>(*r);
  }
  [[nodiscard]] Result<bool> Bool() {
    auto r = U8();
    if (!r.ok()) {
      return r.status();
    }
    return *r != 0;
  }
  [[nodiscard]] Result<double> Double() {
    auto r = U64();
    if (!r.ok()) {
      return r.status();
    }
    double v;
    uint64_t bits = *r;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  [[nodiscard]] Result<std::vector<uint8_t>> Bytes() {
    auto len = U64();
    if (!len.ok()) {
      return len.status();
    }
    if (*len > Remaining()) {
      return Status::Error(Errc::kCorrupt, "byte field overruns buffer");
    }
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + *len);
    pos_ += *len;
    return out;
  }

  [[nodiscard]] Result<std::string> String() {
    auto b = Bytes();
    if (!b.ok()) {
      return b.status();
    }
    return std::string(b->begin(), b->end());
  }

  // Reads `len` raw bytes into `out` (fixed-size payloads). `out` may be
  // null when `len` is 0, as an empty vector's data() is.
  [[nodiscard]] Status Raw(void* out, size_t len) {
    if (len > Remaining()) {
      return Status::Error(Errc::kCorrupt, "raw field overruns buffer");
    }
    if (len != 0) {
      std::memcpy(out, data_ + pos_, len);
    }
    pos_ += len;
    return Status::Ok();
  }

  // Skips `len` bytes and returns where they start: a zero-copy read that
  // stays valid as long as the buffer does.
  [[nodiscard]] Result<const uint8_t*> View(size_t len) {
    if (len > Remaining()) {
      return Status::Error(Errc::kCorrupt, "view overruns buffer");
    }
    const uint8_t* at = data_ + pos_;
    pos_ += len;
    return at;
  }

  size_t Remaining() const { return len_ - pos_; }
  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  template <typename T>
  [[nodiscard]] Result<T> Fixed() {
    if (sizeof(T) > Remaining()) {
      return Status::Error(Errc::kCorrupt, "fixed field overruns buffer");
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); i++) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace aurora

#endif  // SRC_BASE_SERIALIZER_H_
