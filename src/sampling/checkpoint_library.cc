#include "sampling/checkpoint_library.hh"

#include <iterator>

#include "base/logging.hh"

namespace delorean::sampling
{

CheckpointLibrary &
CheckpointLibrary::instance()
{
    static CheckpointLibrary library;
    return library;
}

std::shared_ptr<const workload::TraceSource>
CheckpointLibrary::findLocked(Ladder &ladder, InstCount pos)
{
    const auto it = ladder.rungs.find(pos);
    if (it == ladder.rungs.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    ++stats_.hits;
    return it->second.snap;
}

void
CheckpointLibrary::publishLocked(
    Ladder &ladder, InstCount pos,
    std::shared_ptr<const workload::TraceSource> snap)
{
    lru_.push_front({&ladder, pos});
    ladder.rungs.emplace(pos, Rung{std::move(snap), lru_.begin()});
    while (lru_.size() > capacity) {
        const LruSlot victim = lru_.back();
        victim.ladder->rungs.erase(victim.pos);
        lru_.pop_back();
    }
    stats_.retained = lru_.size();
}

std::vector<std::shared_ptr<const workload::TraceSource>>
CheckpointLibrary::snapshots(const workload::TraceSource &origin,
                             const std::vector<InstCount> &positions)
{
    const std::string &identity = origin.streamIdentity();
    panic_if(identity.empty(), "checkpoint library: unkeyed trace");
    panic_if(origin.position() != 0,
             "checkpoint library: origin must be at position 0");

    Ladder *ladder;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ladder = &ladders_[identity];
    }

    std::vector<std::shared_ptr<const workload::TraceSource>> out;
    out.reserve(positions.size());
    for (const InstCount pos : positions) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (auto snap = findLocked(*ladder, pos)) {
                out.push_back(std::move(snap));
                continue;
            }
        }

        // Single flight: whoever holds the flight lock is the only
        // one extending this ladder, so re-check first — the holder
        // we waited for may have published this very position.
        std::lock_guard<std::mutex> flight(ladder->flight);
        std::shared_ptr<const workload::TraceSource> base;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (auto snap = findLocked(*ladder, pos)) {
                out.push_back(std::move(snap));
                continue;
            }
            ++stats_.misses;
            const auto it = ladder->rungs.upper_bound(pos);
            if (it != ladder->rungs.begin()) {
                const auto prev = std::prev(it);
                lru_.splice(lru_.begin(), lru_, prev->second.lru);
                base = prev->second.snap;
            }
        }

        auto cursor = base ? base->clone() : origin.clone();
        const InstCount from = cursor->position();
        cursor->skip(pos - from);
        std::shared_ptr<const workload::TraceSource> snap =
            std::move(cursor);

        std::lock_guard<std::mutex> lock(mutex_);
        stats_.ff_insts += pos - from;
        publishLocked(*ladder, pos, snap);
        out.push_back(std::move(snap));
    }
    return out;
}

CheckpointLibrary::Stats
CheckpointLibrary::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace delorean::sampling
