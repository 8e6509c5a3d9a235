#include "storage/disk_array.h"

#include <cstdio>
#include <cstdlib>

namespace cobra {

DiskGeometry ValidateGeometry(DiskGeometry geometry) {
  if (geometry.spindles == 0) geometry.spindles = 1;
  if (geometry.stripe_width == 0) geometry.stripe_width = 1;
  if (geometry.placement == PlacementKind::kClustered &&
      geometry.spindles > 1 && geometry.clustered_pages_per_spindle == 0) {
    std::fprintf(stderr,
                 "DiskArray: clustered placement over %u spindles requires "
                 "clustered_pages_per_spindle > 0\n",
                 geometry.spindles);
    std::abort();
  }
  return geometry;
}

namespace {

DiskOptions WithGeometry(DiskOptions options, DiskGeometry geometry) {
  options.geometry = ValidateGeometry(geometry);
  return options;
}

}  // namespace

DiskArray::DiskArray(DiskGeometry geometry, DiskOptions options)
    : SimulatedDisk(WithGeometry(options, geometry)) {}

std::vector<DiskStats> SpindleStats(const SimulatedDisk& disk) {
  std::vector<DiskStats> per_spindle;
  per_spindle.reserve(disk.num_spindles());
  for (uint32_t s = 0; s < disk.num_spindles(); ++s) {
    per_spindle.push_back(disk.spindle_stats(s));
  }
  return per_spindle;
}

bool DiskArray::SpindleStatsConserve() const {
  return cobra::SpindleStatsConserve(*this);
}

bool SpindleStatsConserve(const SimulatedDisk& disk) {
  DiskStats sum;
  for (uint32_t s = 0; s < disk.num_spindles(); ++s) {
    const DiskStats sp = disk.spindle_stats(s);
    sum.reads += sp.reads;
    sum.writes += sp.writes;
    sum.read_seek_pages += sp.read_seek_pages;
    sum.write_seek_pages += sp.write_seek_pages;
    sum.pages_read += sp.pages_read;
    sum.coalesced_runs += sp.coalesced_runs;
  }
  const DiskStats& global = disk.stats();
  return sum.reads == global.reads && sum.writes == global.writes &&
         sum.read_seek_pages == global.read_seek_pages &&
         sum.write_seek_pages == global.write_seek_pages &&
         sum.pages_read == global.pages_read &&
         sum.coalesced_runs == global.coalesced_runs;
}

}  // namespace cobra
