// On-media bytes of the object store, pinned. The fixture store's device
// image comes from a fixed script (tests/store_fixture.h), and the CRC32C of
// every superblock slot, of the metadata blob each slot points at and of
// every journal block, and a 64-bit FNV-1a digest of the whole image, must
// match values generated before the store's formats moved into their own
// module. A changed encoder, or a change in what the store chooses to
// write, shows up as a changed digest.
//
// Only the public store API is used, and the few superblock fields needed
// to find a slot's metadata blob are read at their fixed offsets, so this
// test builds against any version of the store.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/checksum.h"
#include "tests/store_fixture.h"

namespace aurora {
namespace {

uint64_t LeField(const std::vector<uint8_t>& b, size_t off, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; i++) {
    v |= static_cast<uint64_t>(b[off + i]) << (8 * i);
  }
  return v;
}

// What the test pins: per superblock slot, the slot's CRC, the epoch it
// commits and its metadata blob's CRC; per journal block, its device block
// and CRC; and the whole image's digest.
struct ImageDigest {
  std::vector<uint32_t> slot_crc;
  std::vector<uint64_t> slot_epoch;
  std::vector<uint32_t> meta_crc;
  std::vector<std::pair<uint64_t, uint32_t>> journal;
  uint64_t image_fnv = 0;

  bool operator==(const ImageDigest&) const = default;

  std::string ToString() const {
    std::string out;
    char buf[96];
    for (size_t i = 0; i < slot_crc.size(); i++) {
      std::snprintf(buf, sizeof(buf), "  slot %zu: crc 0x%08x epoch %llu meta 0x%08x\n", i,
                    slot_crc[i], static_cast<unsigned long long>(slot_epoch[i]), meta_crc[i]);
      out += buf;
    }
    for (const auto& [lba, crc] : journal) {
      std::snprintf(buf, sizeof(buf), "  journal lba %llu: 0x%08x\n",
                    static_cast<unsigned long long>(lba), crc);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "  image 0x%016llx\n",
                  static_cast<unsigned long long>(image_fnv));
    return out + buf;
  }
};

// A sealed span ends in the CRC32C of the bytes before it, and a CRC run
// over a message and its own CRC always yields the same residue. So a
// sealed span is digested without its seal (which is the CRC of the rest
// anyway), followed by whatever padding comes after it.
uint32_t DigestSealed(const std::vector<uint8_t>& b, size_t seal_end) {
  uint32_t crc = Crc32c(b.data(), seal_end - sizeof(uint32_t));
  return Crc32c(b.data() + seal_end, b.size() - seal_end, crc);
}

// 64-bit FNV-1a, chained over `len` bytes. Unlike a CRC it has no residue:
// a CRC run over a sealed span (a message and its own CRC) ends in the same
// state whatever the message holds, so a whole-image CRC cannot see a
// changed span that was resealed, such as a metadata blob no slot points at.
uint64_t Fnv1a(const uint8_t* data, size_t len, uint64_t hash) {
  for (size_t i = 0; i < len; i++) {
    hash = (hash ^ data[i]) * 0x100000001b3ull;
  }
  return hash;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// The superblock's fixed layout: u64 epoch at 8, u64 metadata block at 28,
// u64 metadata length at 36, and the seal ending at 120.
constexpr size_t kSuperSealEnd = 120;

ImageDigest DigestImage(BlockDevice* device) {
  ImageDigest d;
  const uint32_t dev_bs = device->block_size();
  const uint64_t dev_per_store = FixtureStore::kBlock / dev_bs;
  std::vector<uint8_t> block(dev_bs);
  for (uint64_t slot = 0; slot < 8; slot++) {
    EXPECT_TRUE(device->ReadSync(slot, block.data(), 1).ok());
    d.slot_crc.push_back(DigestSealed(block, kSuperSealEnd));
    d.slot_epoch.push_back(LeField(block, 8, 8));
    uint64_t meta_block = LeField(block, 28, 8);
    uint64_t meta_len = LeField(block, 36, 8);
    if (meta_len == 0) {
      d.meta_crc.push_back(0);  // a slot no commit has reached yet
      continue;
    }
    std::vector<uint8_t> meta((meta_len + dev_bs - 1) / dev_bs * dev_bs);
    EXPECT_TRUE(device->ReadSync(meta_block * dev_per_store, meta.data(),
                                 static_cast<uint32_t>(meta.size() / dev_bs))
                    .ok());
    d.meta_crc.push_back(DigestSealed(meta, meta_len));
  }
  // Journal header and record blocks all start with the journal magic.
  const uint8_t magic[4] = {0x4a, 0x52, 0x55, 0x41};
  uint64_t image = kFnvBasis;
  for (uint64_t lba = 0; lba < device->block_count(); lba++) {
    EXPECT_TRUE(device->ReadSync(lba, block.data(), 1).ok());
    if (std::equal(magic, magic + 4, block.begin())) {
      d.journal.emplace_back(lba, Crc32c(block.data(), block.size()));
    }
    image = Fnv1a(block.data(), block.size(), image);
  }
  d.image_fnv = image;
  return d;
}

TEST(StoreGolden, FixtureImageIsByteIdentical) {
  auto f = BuildFixtureStore();
  ASSERT_GT(f->gc.blocks_relocated, 0u) << "the script must exercise the compactor";
  ASSERT_GT(f->before_reopen.dedup_hits, 0u);
  ASSERT_GT(f->before_reopen.bytes_compressed_saved, 0u);
  // Generated from the store's original inline encoders. Slots 2-6 and
  // metas 3-6 were regenerated when the flush's content hashing and
  // compression left the clock for the flush lanes: decoding both images
  // showed that only the committed_at times of the superblocks and
  // checkpoint records moved. The image digest replaced a whole-image CRC,
  // and was generated from the same image. Slots 1-6, metas 1-6 and the
  // image were regenerated for format version 5, whose blobs no longer
  // carry the bitmap, the segment table, the open meta segment or the store
  // size: decoding both images field by field showed every other field
  // equal except each blob's length (248 bytes shorter) and the
  // committed_at times the smaller serialize charge moved.
  ImageDigest want;
  want.slot_crc = {0xa732586e, 0x6d3e7b78, 0xd3f990d9, 0xbae12257,
                   0xc7643da3, 0x0c059114, 0x04baed5c, 0xa732586e};
  want.slot_epoch = {0, 1, 2, 3, 4, 5, 6, 0};
  want.meta_crc = {0x00000000, 0x3a9e56c0, 0xdd1d90e2, 0x0156afa3,
                   0xb8b6b186, 0x34d70a0c, 0x3be54b31, 0x00000000};
  want.journal = {{512, 0xfafb602c}, {513, 0xdf29d58d}, {514, 0x0491caa4}};
  want.image_fnv = 0x3647f3a77e014133;
  ImageDigest got = DigestImage(f->device.get());
  EXPECT_EQ(got, want) << "got:\n" << got.ToString() << "want:\n" << want.ToString();
}

}  // namespace
}  // namespace aurora
