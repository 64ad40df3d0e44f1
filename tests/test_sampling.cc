/**
 * @file
 * Tests for the sampling framework: region schedule, trace
 * checkpointing, the SMARTS and CoolSim methods, and metrics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>

#include "sampling/checkpoint_library.hh"
#include "sampling/coolsim.hh"
#include "sampling/metrics.hh"
#include "sampling/region.hh"
#include "sampling/smarts.hh"
#include "workload/spec_profiles.hh"
#include "workload/trace_registry.hh"

namespace
{

using namespace delorean;
using namespace delorean::sampling;

// -------------------------------------------------------------- schedule

TEST(RegionSchedule, PositionsAreConsistent)
{
    RegionSchedule s;
    s.num_regions = 10;
    s.spacing = 5'000'000;
    s.validate();
    for (unsigned r = 0; r < s.num_regions; ++r) {
        EXPECT_EQ(s.regionEnd(r), (r + 1) * s.spacing);
        EXPECT_EQ(s.detailedStart(r) + s.region_len, s.regionEnd(r));
        EXPECT_EQ(s.warmingStart(r) + s.detailed_warming,
                  s.detailedStart(r));
    }
    EXPECT_EQ(s.totalInstructions(), 50'000'000u);
    EXPECT_DOUBLE_EQ(s.scaleFactor(), 200.0);
}

TEST(RegionSchedule, ScaleInterval)
{
    RegionSchedule s;
    s.spacing = 5'000'000; // S = 200
    EXPECT_EQ(s.scaleInterval(1'000'000'000), 5'000'000u);
    EXPECT_EQ(s.scaleInterval(5'000'000), 25'000u);
    EXPECT_EQ(s.scaleInterval(100), 1u); // floored at 1
}

// ---------------------------------------------------------- checkpointer

TEST(TraceCheckpointer, ExactPositions)
{
    auto trace = workload::makeSpecTrace("bzip2");
    TraceCheckpointer cp(*trace);
    cp.prepare({1000, 5000, 20000});
    EXPECT_EQ(cp.checkpoints(), 3u);

    for (const InstCount pos : {0u, 1000u, 3000u, 5000u, 20001u}) {
        auto t = cp.at(pos);
        EXPECT_EQ(t->position(), pos);
    }
}

TEST(TraceCheckpointer, StreamsMatchDirectSkip)
{
    auto trace = workload::makeSpecTrace("namd");
    TraceCheckpointer cp(*trace);
    cp.prepare({10000, 40000});

    auto from_cp = cp.at(40000);
    auto direct = trace->clone();
    direct->skip(40000);
    for (int i = 0; i < 2000; ++i) {
        const auto a = from_cp->next();
        const auto b = direct->next();
        ASSERT_EQ(a.addr, b.addr);
        ASSERT_EQ(a.pc, b.pc);
    }
}

TEST(TraceCheckpointer, DuplicatePositionsDeduped)
{
    auto trace = workload::makeSpecTrace("namd");
    TraceCheckpointer cp(*trace);
    cp.prepare({100, 100, 200, 200, 200});
    EXPECT_EQ(cp.checkpoints(), 2u);
}

// ----------------------------------------------------- checkpoint library

/** Checkpoints at @p pos continue identically, by next() and memLines(). */
void
expectSameStreams(const TraceCheckpointer &got,
                  const TraceCheckpointer &want, InstCount pos)
{
    auto a = got.at(pos);
    auto b = want.at(pos);
    ASSERT_EQ(a->position(), pos);
    ASSERT_EQ(b->position(), pos);
    for (int i = 0; i < 300; ++i) {
        const auto x = a->next();
        const auto y = b->next();
        ASSERT_TRUE(x.type == y.type && x.pc == y.pc && x.addr == y.addr &&
                    x.target == y.target && x.taken == y.taken &&
                    x.dep_load == y.dep_load && x.latency == y.latency)
            << "position " << pos << " + " << i;
    }
    std::vector<Addr> la(4096), lb(4096);
    la.resize(std::size_t(a->memLines(la.data(), 4096)));
    lb.resize(std::size_t(b->memLines(lb.data(), 4096)));
    ASSERT_EQ(la, lb) << "position " << pos;
}

/** A private forward pass over @p name's stream: the reference. */
struct FreshCheckpoints
{
    FreshCheckpoints(const std::string &name,
                     const std::vector<InstCount> &positions)
        : trace(workload::specProfile(name)), cp(trace)
    {
        cp.prepare(positions);
    }
    workload::SyntheticTrace trace; //!< hand-built: no identity
    TraceCheckpointer cp;
};

CheckpointLibrary::Stats
libraryStats()
{
    return CheckpointLibrary::instance().stats();
}

TEST(CheckpointLibrary, ServedCheckpointsMatchFreshPrepare)
{
    const std::vector<InstCount> first{0, 12'345, 40'000, 90'001};
    // Interior, repeated and later positions: extends the ladder.
    const std::vector<InstCount> extended{5'000, 12'345, 60'000,
                                          90'001, 150'000};
    std::vector<InstCount> all = first;
    all.insert(all.end(), extended.begin(), extended.end());

    for (const auto &name : workload::specBenchmarkNames()) {
        SCOPED_TRACE(name);
        const FreshCheckpoints fresh(name, all);
        auto keyed = workload::makeTrace("spec:" + name);

        TraceCheckpointer a(*keyed);
        a.prepare(first);
        const auto before = libraryStats();
        TraceCheckpointer b(*keyed);
        b.prepare(extended);
        EXPECT_GE(libraryStats().hits - before.hits, 2u);

        for (const InstCount pos : first)
            expectSameStreams(a, fresh.cp, pos);
        for (const InstCount pos : extended)
            expectSameStreams(b, fresh.cp, pos);
    }
}

TEST(CheckpointLibrary, HandBuiltTraceNeverSharesALadder)
{
    // Same name as the registry's bzip2, different stream.
    auto profile = workload::specProfile("bzip2");
    profile.seed ^= 0x5eed;
    const workload::SyntheticTrace impostor(profile);
    const std::vector<InstCount> positions{25'000, 70'000};

    auto keyed = workload::makeTrace("spec:bzip2");
    TraceCheckpointer shared(*keyed);
    shared.prepare(positions);

    const auto before = libraryStats();
    TraceCheckpointer own(impostor);
    own.prepare(positions);
    const auto after = libraryStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);

    for (const InstCount pos : positions) {
        auto direct = impostor.clone();
        direct->skip(pos);
        auto from_own = own.at(pos);
        auto from_shared = shared.at(pos);
        bool differs = false;
        for (int i = 0; i < 200; ++i) {
            const auto x = from_own->next();
            const auto y = direct->next();
            ASSERT_EQ(x.pc, y.pc);
            ASSERT_EQ(x.addr, y.addr);
            differs |= x.addr != from_shared->next().addr;
        }
        EXPECT_TRUE(differs) << pos;
    }
}

TEST(CheckpointLibrary, ConcurrentPreparesFastForwardEachInstructionOnce)
{
    // Overlapping sets: thread t prepares the first 12 - 2t rungs of
    // one ladder, in a shuffled order.
    constexpr unsigned threads = 4;
    constexpr unsigned rungs = 12;
    std::vector<InstCount> grid;
    for (unsigned k = 1; k <= rungs; ++k)
        grid.push_back(InstCount(k) * 50'021);
    std::vector<std::vector<InstCount>> sets;
    std::mt19937 shuffle(7);
    for (unsigned t = 0; t < threads; ++t) {
        sets.emplace_back(grid.begin(), grid.end() - 2 * t);
        std::shuffle(sets.back().begin(), sets.back().end(), shuffle);
    }

    auto master = workload::makeTrace("spec:gobmk");
    std::vector<std::unique_ptr<TraceCheckpointer>> cps;
    for (unsigned t = 0; t < threads; ++t)
        cps.push_back(std::make_unique<TraceCheckpointer>(*master));

    const auto before = libraryStats();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] { cps[t]->prepare(sets[t]); });
    for (auto &th : pool)
        th.join();
    const auto after = libraryStats();

    // Single flight: the ladder is built once, whoever builds it.
    EXPECT_LE(after.ff_insts - before.ff_insts, grid.back());
    EXPECT_LE(after.misses - before.misses, rungs);
    EXPECT_LE(after.retained, CheckpointLibrary::capacity);

    const FreshCheckpoints fresh("gobmk", grid);
    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_EQ(cps[t]->checkpoints(), sets[t].size());
        for (const InstCount pos : sets[t])
            expectSameStreams(*cps[t], fresh.cp, pos);
    }
}

TEST(CheckpointLibrary, RetainsAtMostCapacity)
{
    constexpr std::size_t cap = CheckpointLibrary::capacity;
    std::vector<InstCount> positions;
    for (std::size_t i = 1; i <= cap + 100; ++i)
        positions.push_back(InstCount(i) * 997);
    const FreshCheckpoints fresh("lbm", positions);
    const InstCount probes[] = {positions.front(), positions[cap / 2],
                                positions.back()};

    auto master = workload::makeTrace("spec:lbm");
    TraceCheckpointer cp(*master);
    cp.prepare(positions);
    EXPECT_EQ(libraryStats().retained, cap);
    // The library evicted the earliest rungs; the checkpointer still
    // holds every snapshot it was handed.
    EXPECT_EQ(cp.checkpoints(), positions.size());
    for (const InstCount pos : probes)
        expectSameStreams(cp, fresh.cp, pos);

    // A second pass re-fast-forwards the evicted rungs: still
    // bounded, still identical.
    const auto before = libraryStats();
    TraceCheckpointer again(*master);
    again.prepare(positions);
    EXPECT_GT(libraryStats().misses, before.misses);
    EXPECT_EQ(libraryStats().retained, cap);
    for (const InstCount pos : probes)
        expectSameStreams(again, fresh.cp, pos);

    // Whatever schedules arrive, across workloads, the cap holds.
    std::mt19937_64 rng(11);
    const auto &names = workload::specBenchmarkNames();
    for (unsigned round = 0; round < 6; ++round) {
        std::vector<InstCount> schedule(300);
        for (auto &pos : schedule)
            pos = rng() % 300'000;
        auto trace =
            workload::makeTrace("spec:" + names[round * 5 % names.size()]);
        TraceCheckpointer varied(*trace);
        varied.prepare(schedule);
        EXPECT_LE(libraryStats().retained, cap);
    }
}

TEST(CheckpointPositions, CoverAllRegionsAndHorizons)
{
    RegionSchedule s;
    s.num_regions = 3;
    s.spacing = 500'000;
    const auto positions =
        checkpointPositions(s, {100'000, 400'000});
    // 3 regions x (warmingStart + 2 horizons).
    EXPECT_EQ(positions.size(), 9u);
}

// ---------------------------------------------------------------- methods

MethodConfig
quickConfig()
{
    MethodConfig cfg;
    cfg.schedule.num_regions = 3;
    cfg.schedule.spacing = 500'000;
    cfg.hier.llc.size = 2 * MiB;
    return cfg;
}

TEST(Smarts, ProducesSaneResults)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto r = SmartsMethod::run(*trace, quickConfig());
    EXPECT_EQ(r.method, "SMARTS");
    EXPECT_EQ(r.benchmark, "gamess");
    EXPECT_EQ(r.regions.size(), 3u);
    EXPECT_GT(r.cpi(), 0.1);
    EXPECT_LT(r.cpi(), 10.0);
    EXPECT_EQ(r.total.instructions, 30'000u);
    EXPECT_GT(r.wall_seconds, 0.0);
    EXPECT_GT(r.mips, 0.0);
    EXPECT_EQ(r.reuse_samples, 0u); // SMARTS collects none
}

TEST(Smarts, Deterministic)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto a = SmartsMethod::run(*trace, quickConfig());
    const auto b = SmartsMethod::run(*trace, quickConfig());
    EXPECT_DOUBLE_EQ(a.cpi(), b.cpi());
    EXPECT_EQ(a.total.llcMisses(), b.total.llcMisses());
}

TEST(CoolSim, ProducesSaneResults)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto r = CoolSimMethod::run(*trace, quickConfig());
    EXPECT_EQ(r.method, "CoolSim");
    EXPECT_EQ(r.regions.size(), 3u);
    EXPECT_GT(r.cpi(), 0.1);
    EXPECT_GT(r.reuse_samples, 1000u);
    EXPECT_GT(r.traps, 0u);
    // No SMARTS-style real misses: every LLC decision is statistical.
    EXPECT_EQ(r.total.classCount(cpu::AccessClass::RealMiss), 0u);
}

TEST(CoolSim, FasterThanSmartsInModeledTime)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto s = SmartsMethod::run(*trace, quickConfig());
    const auto c = CoolSimMethod::run(*trace, quickConfig());
    EXPECT_GT(speedupOver(s, c), 2.0);
}

TEST(CoolSim, AccuracyWithinBounds)
{
    auto trace = workload::makeSpecTrace("gamess");
    const auto cfg = quickConfig();
    const auto s = SmartsMethod::run(*trace, cfg);
    const auto c = CoolSimMethod::run(*trace, cfg);
    EXPECT_LT(cpiErrorPct(s, c), 30.0);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, RelativeError)
{
    EXPECT_NEAR(relativeErrorPct(2.0, 2.2), 10.0, 1e-9);
    EXPECT_NEAR(relativeErrorPct(2.0, 1.8), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(relativeErrorPct(0.0, 5.0), 0.0);
}

TEST(Metrics, Means)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Metrics, Speedup)
{
    MethodResult slow, fast;
    slow.wall_seconds = 100.0;
    fast.wall_seconds = 10.0;
    EXPECT_DOUBLE_EQ(speedupOver(slow, fast), 10.0);
}

} // namespace
