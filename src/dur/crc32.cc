#include "src/dur/crc32.h"

namespace dur {

namespace {

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table and t[k][b]
// is the CRC of byte b followed by k zero bytes, so one step folds 8 input
// bytes with 8 independent lookups.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
};

const Crc32Tables kTables;

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  const auto& t = kTables.t;
  uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    uint32_t lo = c ^ LoadLe32(data);
    uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
        t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; data++, size--) {
    c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace dur
