// CRC-32 (IEEE 802.3 polynomial, reflected) for log-record and snapshot
// framing. Slicing-by-8 table lookups, no external dependency.
#ifndef SRC_DUR_CRC32_H_
#define SRC_DUR_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace dur {

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

}  // namespace dur

#endif  // SRC_DUR_CRC32_H_
