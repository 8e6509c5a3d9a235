// DiskArray: the array-aware face of SimulatedDisk.
//
// SimulatedDisk already carries the per-spindle mechanics (placement, one
// arm + DiskStats per spindle) so that decorators like FaultInjectingDisk
// inherit them for free.  DiskArray is the constructor-validated entry
// point experiments use when they mean "an N-spindle array": it rejects
// inconsistent geometry up front (instead of silently degenerating) and
// adds the control-plane conveniences the benches and tests want —
// a per-spindle stats snapshot and the conservation check that the
// spindle sums equal the global counters field by field.

#ifndef COBRA_STORAGE_DISK_ARRAY_H_
#define COBRA_STORAGE_DISK_ARRAY_H_

#include <vector>

#include "storage/disk.h"

namespace cobra {

// Normalizes and validates an array geometry: zero spindle/stripe counts
// become 1; clustered placement with spindles > 1 requires
// clustered_pages_per_spindle > 0 (there is no sane default — the extent
// size is workload-dependent).  Aborts on violation: geometry is
// experiment configuration, not runtime input.
DiskGeometry ValidateGeometry(DiskGeometry geometry);

class DiskArray : public SimulatedDisk {
 public:
  explicit DiskArray(DiskGeometry geometry, DiskOptions options = {});

  // True iff the per-spindle counters sum to the global stats() field by
  // field — the disk-level conservation invariant.  Tests assert it after
  // every workload; it can only fail through an accounting bug.
  bool SpindleStatsConserve() const;
};

// Control-plane: one DiskStats per spindle of `disk`, index == spindle.
std::vector<DiskStats> SpindleStats(const SimulatedDisk& disk);

// Free-function form of the conservation check so tests can apply it to
// any SimulatedDisk (including decorated ones) without a DiskArray cast.
bool SpindleStatsConserve(const SimulatedDisk& disk);

}  // namespace cobra

#endif  // COBRA_STORAGE_DISK_ARRAY_H_
