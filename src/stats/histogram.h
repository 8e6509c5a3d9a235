// Log-bucketed histograms.
//
// The paper reports averages; histograms expose *why* the averages move
// (elevator scheduling converts a few huge seeks plus many medium ones into
// a mass of near-zero seeks and a handful of sweep turnarounds).  Buckets
// are powers of two, so a histogram is 65 counters regardless of the value
// range — cheap enough to live on hot paths (the per-client latency totals
// of obs::QueryTracker are LogHistograms).
//
// LogHistogram is the generic distribution; SeekHistogram layers the
// seek-specific conveniences (building from a read trace, the text report)
// on top of it.

#ifndef COBRA_STATS_HISTOGRAM_H_
#define COBRA_STATS_HISTOGRAM_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "storage/disk.h"

namespace cobra {

class LogHistogram {
 public:
  LogHistogram();

  void Add(uint64_t value);

  // Accumulates `other` into this histogram (bucket-wise; counts, totals
  // and max combine exactly).  Partial runs merge into a whole.
  void Merge(const LogHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t total() const { return total_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  // Smallest value v such that at least `q` (in [0,1]) of the samples are
  // <= v.  Bucket-resolution (upper bucket bound).  An empty histogram
  // reports 0 for every quantile; a single sample answers every quantile
  // with its own bucket's upper bound.
  uint64_t Percentile(double q) const;

  // The standard reporting quantiles, bucket-resolution like Percentile().
  uint64_t P50() const { return Percentile(0.50); }
  uint64_t P95() const { return Percentile(0.95); }
  uint64_t P99() const { return Percentile(0.99); }
  uint64_t P999() const { return Percentile(0.999); }

  // Bucket access for exporters: bucket 0 counts value 0, bucket i counts
  // values in [2^(i-1), 2^i).
  size_t num_buckets() const { return buckets_.size(); }
  uint64_t bucket_count(size_t i) const { return buckets_[i]; }
  // Inclusive [lo, hi] value range of bucket i.
  static uint64_t BucketLo(size_t i);
  static uint64_t BucketHi(size_t i);

 protected:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t total_ = 0;
  uint64_t max_ = 0;
};

// Distribution of per-read seek distances.
class SeekHistogram : public LogHistogram {
 public:
  // Builds the histogram from a read trace (consecutive page distances),
  // starting from head position `start`.  Only valid for a single-spindle
  // device, where consecutive-page distance IS the charged arm travel.
  static SeekHistogram FromReadTrace(const std::vector<PageId>& trace,
                                     PageId start = 0);

  // Builds the histogram from already-charged per-read distances (the
  // disk's seek_trace()).  On a disk array the arms move independently, so
  // this — not FromReadTrace — reflects what each read actually cost.
  // Identical to FromReadTrace on one spindle.
  static SeekHistogram FromDistances(const std::vector<uint64_t>& distances);

  // "seek distance     count  cumulative%" rows, one per non-empty bucket.
  void Print(std::ostream& os) const;
};

}  // namespace cobra

#endif  // COBRA_STATS_HISTOGRAM_H_
