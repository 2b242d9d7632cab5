// Pluggable per-extent compression for the flush path (DESIGN.md section 17).
//
// A codec transforms one store block's payload before it is appended to the
// segment log. Codecs are identified by a stable one-byte id persisted in the
// extent metadata, so a store formatted with one codec set can be opened by
// any binary that registers the same ids. Codec output must be strictly
// smaller than the input to be used; otherwise the extent is stored raw
// (codec id 0), which keeps the read path's worst case at one block copy.
#ifndef SRC_OBJSTORE_EXTENT_CODEC_H_
#define SRC_OBJSTORE_EXTENT_CODEC_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/base/result.h"

namespace aurora {

// Stable on-media codec ids. kRaw never appears in a codec object; it is the
// extent marker for "payload stored verbatim".
enum class CodecId : uint8_t {
  kRaw = 0,
  kLz = 1,
};

class ExtentCodec {
 public:
  virtual ~ExtentCodec() = default;

  virtual CodecId id() const = 0;
  virtual const char* name() const = 0;

  // Compress `len` bytes of `src` into `dst` (sized by the caller to at
  // least `len`). Returns the compressed length, or 0 when the input does
  // not compress below `len` (the caller then stores the block raw).
  virtual size_t Compress(const uint8_t* src, size_t len, uint8_t* dst) const = 0;

  // Decompress `src_len` bytes into exactly `dst_len` bytes of `dst`.
  // Fails with kCorrupt when the stream does not reproduce dst_len bytes.
  [[nodiscard]] virtual Status Decompress(const uint8_t* src, size_t src_len,
                                          uint8_t* dst, size_t dst_len) const = 0;
};

// Byte-oriented LZSS-class codec over a 4 KiB sliding window: literals and
// (offset, length) copies of 3-18 bytes, tagged by a control byte every 8
// tokens. The match finder probes one candidate per position, the latest
// earlier position whose 3-byte prefix has the same hash, and takes the
// match whenever at least 3 bytes agree; it does not search for a longer
// one. Deterministic, allocation-free on the hot path, and self-contained —
// exactly enough to make checkpoint pages (zero runs, repeated records)
// shrink without pulling in an external library. The exact stream is part
// of the on-media format (stored lengths set device bytes), pinned by
// tests/extent_codec_test.cc.
class LzExtentCodec : public ExtentCodec {
 public:
  CodecId id() const override { return CodecId::kLz; }
  const char* name() const override { return "lz"; }
  size_t Compress(const uint8_t* src, size_t len, uint8_t* dst) const override;
  [[nodiscard]] Status Decompress(const uint8_t* src, size_t src_len, uint8_t* dst,
                                  size_t dst_len) const override;
};

// Resolve a persisted codec id to a process-wide codec instance (nullptr for
// kRaw or an unknown id — callers must treat unknown ids as corruption).
const ExtentCodec* FindExtentCodec(CodecId id);

}  // namespace aurora

#endif  // SRC_OBJSTORE_EXTENT_CODEC_H_
