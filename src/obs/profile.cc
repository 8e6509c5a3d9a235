#include "obs/profile.h"

#include <cstdio>

namespace cobra::obs {

ProfiledIterator::ProfiledIterator(std::unique_ptr<exec::Iterator> input,
                                   const Clock* clock)
    : input_(std::move(input)), clock_(OrDefault(clock)) {}

Status ProfiledIterator::Open() {
  next_calls_ = 0;
  rows_ = 0;
  total_nanos_ = 0;
  uint64_t start = clock_->NowNanos();
  Status status = input_->Open();
  total_nanos_ += clock_->NowNanos() - start;
  return status;
}

Result<size_t> ProfiledIterator::NextBatch(exec::RowBatch* out) {
  ++next_calls_;
  uint64_t start = clock_->NowNanos();
  Result<size_t> n = input_->NextBatch(out);
  total_nanos_ += clock_->NowNanos() - start;
  if (n.ok()) rows_ += *n;
  return n;
}

Status ProfiledIterator::Close() { return input_->Close(); }

std::string FormatNanos(uint64_t nanos) {
  char buf[32];
  // Each unit's range ends where its one-decimal rounding reaches 1000, so
  // 999,999ns prints "1.0ms", never "1000.0us".
  if (nanos < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(nanos));
  } else if (nanos < 999'950) {
    std::snprintf(buf, sizeof(buf), "%.1fus",
                  static_cast<double>(nanos) / 1e3);
  } else if (nanos < 999'950'000) {
    std::snprintf(buf, sizeof(buf), "%.1fms",
                  static_cast<double>(nanos) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs",
                  static_cast<double>(nanos) / 1e9);
  }
  return buf;
}

std::string ProfiledIterator::Summary() const {
  char fill[32];
  std::snprintf(fill, sizeof(fill), "%.1f", rows_per_batch());
  return "next=" + std::to_string(next_calls_) +
         " rows=" + std::to_string(rows_) + " rows/batch=" + fill +
         " time=" + FormatNanos(total_nanos_) +
         " avg=" + FormatNanos(nanos_per_next());
}

}  // namespace cobra::obs
