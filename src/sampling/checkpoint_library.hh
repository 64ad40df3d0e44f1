/**
 * @file
 * The process-wide checkpoint library behind TraceCheckpointer.
 *
 * A synthetic trace cannot seek: its stream is path-dependent, so the
 * only way to reach instruction N is to run the generator N steps
 * (SyntheticTrace::skip, ~41 Minsts/s). The paper restores KVM
 * snapshots instead, and Live-points make the same point: checkpoint
 * once, then reuse. This library is that reuse. It keeps immutable
 * snapshots of every stream with a non-empty
 * TraceSource::streamIdentity(), one ladder of positions per
 * identity, shared by every TraceCheckpointer in the process: batch
 * cells, the daemon's workers, DSE sweeps, live-point recording.
 *
 *  - A requested position already on the ladder is a hit: the caller
 *    shares the snapshot (clones of one snapshot may run concurrently;
 *    clone() is const).
 *  - A missing position is fast-forwarded from the nearest earlier
 *    retained snapshot (or instruction 0), under one lock per identity
 *    (single flight: two threads never fast-forward the same stream at
 *    once, so a ladder is extended, never rebuilt), and is published
 *    only when complete.
 *  - At most `capacity` snapshots are retained across all identities;
 *    past that the least recently used one is evicted. Callers keep
 *    the snapshots they were handed, so eviction only costs a later
 *    fast-forward, never a result.
 *
 * Results are bit-identical to a private forward pass: by the
 * TraceSource contract, a clone continues the identical stream, so a
 * snapshot reached through any chain of earlier snapshots equals one
 * reached from instruction 0.
 */

#ifndef DELOREAN_SAMPLING_CHECKPOINT_LIBRARY_HH
#define DELOREAN_SAMPLING_CHECKPOINT_LIBRARY_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workload/trace_source.hh"

namespace delorean::sampling
{

class CheckpointLibrary
{
  public:
    /**
     * Retained snapshots, all identities together. A SyntheticTrace
     * snapshot of a SPEC-like profile measured 0.55-1.06 KiB of heap,
     * plus one shared ~23 KiB table set per identity, so a full
     * library holds under 2 MiB (docs/performance.md, "Checkpoint
     * library"). A 10-region schedule needs ~50 positions per
     * workload, so the cap holds every profile's ladder of a schedule
     * at once.
     */
    static constexpr std::size_t capacity = 1024;

    struct Stats
    {
        std::uint64_t hits = 0;     //!< positions served from the library
        std::uint64_t misses = 0;   //!< positions fast-forwarded
        std::uint64_t ff_insts = 0; //!< instructions fast-forwarded
        std::size_t retained = 0;   //!< snapshots held now
    };

    /** The one library of this process. */
    static CheckpointLibrary &instance();

    /**
     * Snapshots of @p origin's stream at each of @p positions (sorted,
     * unique), in order. @p origin must be at position 0 and carry a
     * non-empty streamIdentity().
     */
    std::vector<std::shared_ptr<const workload::TraceSource>>
    snapshots(const workload::TraceSource &origin,
              const std::vector<InstCount> &positions);

    Stats stats() const;

  private:
    CheckpointLibrary() = default;

    struct Ladder;

    /** One retained snapshot's place in the LRU order. */
    struct LruSlot
    {
        Ladder *ladder;
        InstCount pos;
    };

    struct Rung
    {
        std::shared_ptr<const workload::TraceSource> snap;
        std::list<LruSlot>::iterator lru;
    };

    struct Ladder
    {
        /** Held while fast-forwarding this identity (single flight). */
        std::mutex flight;
        /** Retained snapshots by position; guarded by mutex_. */
        std::map<InstCount, Rung> rungs;
    };

    /** The snapshot at @p pos if retained (a hit); needs mutex_. */
    std::shared_ptr<const workload::TraceSource>
    findLocked(Ladder &ladder, InstCount pos);

    /** Retain @p snap, evicting past the cap; needs mutex_. */
    void publishLocked(Ladder &ladder, InstCount pos,
                       std::shared_ptr<const workload::TraceSource> snap);

    mutable std::mutex mutex_;
    /**
     * One ladder per identity, never erased: identities come from the
     * spec registry, so there are at most as many as profiles.
     */
    std::map<std::string, Ladder> ladders_;
    std::list<LruSlot> lru_; //!< front = most recently used
    Stats stats_;
};

} // namespace delorean::sampling

#endif // DELOREAN_SAMPLING_CHECKPOINT_LIBRARY_HH
