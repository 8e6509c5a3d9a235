#include "storage/checksum.h"

#include <array>
#include <cstring>
#include <string>

namespace cobra {
namespace {

// Slicing-by-8 tables for the Castagnoli polynomial (reflected 0x82F63B78).
// Table 0 is the classic byte-at-a-time table; table k advances a byte's
// contribution through k further zero bytes, so eight lookups fold eight
// input bytes into the CRC at once with the same result as eight bytewise
// steps.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

const Crc32cTables& Crc32cTable() {
  static const Crc32cTables tables = MakeCrc32cTables();
  return tables;
}

// Little-endian load, independent of host byte order and alignment.
uint32_t LoadLe32(const std::byte* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t LoadChecksum(const std::byte* page) {
  uint32_t v = 0;
  std::memcpy(&v, page, sizeof(v));
  return v;
}

#if defined(__x86_64__)
// SSE4.2's crc32 instruction computes exactly this CRC (reflected
// Castagnoli polynomial), eight bytes per instruction.  Compiled for
// SSE4.2 regardless of the build's target flags and called only when the
// CPU reports the feature.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const std::byte* data,
                                                       size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = __builtin_ia32_crc32di(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = __builtin_ia32_crc32qi(crc32, static_cast<uint8_t>(*data));
  }
  return crc32 ^ 0xFFFFFFFFu;
}
#endif

using Crc32cFn = uint32_t (*)(const std::byte*, size_t);

Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32c(const std::byte* data, size_t n) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, n);
}

uint32_t Crc32cPortable(const std::byte* data, size_t n) {
  const Crc32cTables& t = Crc32cTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<uint8_t>(*data)) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

void StampPageChecksum(std::byte* page, size_t page_size) {
  uint32_t crc =
      Crc32c(page + kPageChecksumSize, page_size - kPageChecksumSize);
  if (crc == 0) crc = 1;  // zero is the "unstamped" sentinel
  std::memcpy(page, &crc, sizeof(crc));
}

Status VerifyPageChecksum(const std::byte* page, size_t page_size,
                          uint64_t page_id) {
  uint32_t stored = LoadChecksum(page);
  if (stored == 0) return Status::OK();  // unstamped page
  uint32_t crc =
      Crc32c(page + kPageChecksumSize, page_size - kPageChecksumSize);
  if (crc == 0) crc = 1;
  if (crc != stored) {
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(page_id));
  }
  return Status::OK();
}

}  // namespace cobra
