// Page integrity: CRC32C checksums over buffer-managed pages.
//
// Every page layout that flows through the buffer manager (slotted heap
// pages, B+-tree nodes, the tree meta page) reserves its first
// kPageChecksumSize bytes for a CRC32C of the rest of the page.  The buffer
// manager stamps the checksum on write-back and verifies it when a page is
// faulted in, so a bit flip or torn write anywhere on the I/O path surfaces
// as Status::Corruption instead of propagating garbage tuples.  Verification
// costs CPU only — it never issues additional reads.
//
// A stored checksum of zero means "unstamped" (a page written to the disk
// directly, bypassing the buffer manager) and is accepted without
// verification; StampPageChecksum never stores zero for a stamped page.

#ifndef COBRA_STORAGE_CHECKSUM_H_
#define COBRA_STORAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace cobra {

// Bytes reserved at offset 0 of every buffer-managed page layout.
inline constexpr size_t kPageChecksumSize = 4;

// CRC32C (Castagnoli polynomial, the iSCSI/RocksDB/ext4 checksum).  Uses
// the SSE4.2 crc32 instruction when the CPU has it (checked once) and
// Crc32cPortable otherwise; both return identical values.
uint32_t Crc32c(const std::byte* data, size_t n);

// The portable slicing-by-8 implementation, on every CPU.  Exposed so tests
// can check it on hosts where Crc32c dispatches to the instruction.
uint32_t Crc32cPortable(const std::byte* data, size_t n);

// Computes the CRC32C of bytes [kPageChecksumSize, page_size) and stores it
// little-endian in bytes [0, kPageChecksumSize).  A computed value of zero
// is stored as one so a stamped page is never mistaken for an unstamped one.
void StampPageChecksum(std::byte* page, size_t page_size);

// Recomputes and compares.  Returns OK for a matching or unstamped
// (stored checksum zero) page, Corruption otherwise.  `page_id` is only
// used in the error message.
Status VerifyPageChecksum(const std::byte* page, size_t page_size,
                          uint64_t page_id);

}  // namespace cobra

#endif  // COBRA_STORAGE_CHECKSUM_H_
