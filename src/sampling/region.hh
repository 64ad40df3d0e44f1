/**
 * @file
 * The sampled-simulation region schedule and trace checkpointing.
 *
 * The paper evaluates 10 detailed regions of 10 k instructions spread
 * uniformly 1 B instructions apart, with 30 k instructions of detailed
 * warming before each. We keep the same structure at a reduced spacing
 * (default 5 M) and expose the implied scale factor S so all interval
 * parameters and host costs scale together (DESIGN.md §5).
 */

#ifndef DELOREAN_SAMPLING_REGION_HH
#define DELOREAN_SAMPLING_REGION_HH

#include <map>
#include <memory>
#include <vector>

#include "workload/trace_source.hh"

namespace delorean::sampling
{

/** Placement of the detailed regions within the trace. */
struct RegionSchedule
{
    /** The paper's region spacing (1 B instructions). */
    static constexpr InstCount paper_spacing = 1'000'000'000;

    unsigned num_regions = 10;
    InstCount spacing = 5'000'000;
    InstCount region_len = 10'000;         //!< detailed region
    InstCount detailed_warming = 30'000;   //!< lukewarm window

    /** First instruction after region @p i (multiple of spacing). */
    InstCount regionEnd(unsigned i) const { return spacing * (i + 1); }

    /** First instruction of detailed region @p i. */
    InstCount
    detailedStart(unsigned i) const
    {
        return regionEnd(i) - region_len;
    }

    /** First instruction of the detailed-warming window of region @p i. */
    InstCount
    warmingStart(unsigned i) const
    {
        return detailedStart(i) - detailed_warming;
    }

    /** Total trace length covered by the schedule. */
    InstCount totalInstructions() const { return spacing * num_regions; }

    /** Interval scale factor S = paper spacing / spacing. */
    double
    scaleFactor() const
    {
        return double(paper_spacing) / double(spacing);
    }

    /** Scale a paper-scale interval parameter down by S (min 1). */
    InstCount scaleInterval(InstCount paper_value) const;

    void validate() const;
};

/**
 * Checkpoint store over a master trace — our stand-in for the library of
 * KVM snapshots the paper's passes boot from. prepare() snapshots the
 * generator at each requested position; at() hands out clones positioned
 * anywhere, advancing from the nearest checkpoint.
 *
 * A master with a stream identity (the registry's spec: traces) takes
 * its snapshots from the process-wide CheckpointLibrary, so each
 * position of each workload is fast-forwarded once per process, not
 * once per cell. Other masters (file-backed traces, whose skips are
 * seeks; hand-built generators) make a private forward pass.
 */
class TraceCheckpointer
{
  public:
    explicit TraceCheckpointer(const workload::TraceSource &master);

    /** Snapshot the requested positions (see the class comment). */
    void prepare(std::vector<InstCount> positions);

    /** @return a fresh trace positioned exactly at @p pos. */
    std::unique_ptr<workload::TraceSource> at(InstCount pos) const;

    std::size_t checkpoints() const { return snaps_.size(); }

  private:
    std::shared_ptr<const workload::TraceSource> origin_;
    /** Immutable and possibly shared with the library and other
     *  checkpointers; at() only ever clones them. */
    std::map<InstCount, std::shared_ptr<const workload::TraceSource>>
        snaps_;
};

/** All positions the DeLorean passes need for @p schedule. */
std::vector<InstCount>
checkpointPositions(const RegionSchedule &schedule,
                    const std::vector<InstCount> &horizons);

} // namespace delorean::sampling

#endif // DELOREAN_SAMPLING_REGION_HH
