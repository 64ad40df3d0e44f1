#include "workload/spec_profiles.hh"

#include "base/logging.hh"
#include "base/units.hh"

namespace delorean::workload
{

namespace
{

using Kind = KernelSpec::Kind;

/*
 * Profile design notes (see DESIGN.md §2 and the header):
 *
 * The default schedule spaces regions 5 M instructions apart, so the
 * Explorer horizon bands (after flooring) are roughly:
 *   lukewarm <= 40 k < E1 <= 160 k < E2 <= 640 k < E3 <= 2.6 M < E4 <= 5 M
 * in instructions. A kernel structure re-swept every C kernel accesses
 * has a line reuse distance of about C / (w * m) instructions (w =
 * kernel weight, m = profile mem ratio), which places it in a band.
 *
 * Building blocks:
 *  - hot(ws):       8-32 KiB uniform "stack/locals" set; every reuse is
 *                   inside the lukewarm window.
 *  - blocked sweeps (block): within-block reuses stay lukewarm; the
 *                   block revisit after a full working-set cycle is the
 *                   key reuse, landing in a chosen Explorer band.
 *  - substream:     streaming with an 8/16-byte element stride: ~4-8
 *                   accesses per line (first misses, rest hit L1), so
 *                   MPKI stays realistic while lines sweep.
 *  - chase:         dependent pointer chasing (serializes misses in the
 *                   OoO model -> high CPI for mcf/omnetpp/...).
 *  - coldstream:    a 2 GiB stream that never wraps within the trace:
 *                   pure cold misses at EVERY cache size. These set the
 *                   flat MPKI floor and are *correctly* classified cold
 *                   by DSW and missing by SMARTS alike.
 *
 * Structures meant to be re-referenced are sized so their reuse
 * distance stays within the deepest Explorer horizon (~the region
 * spacing); anything larger is a coldstream. The large-cache knees of
 * Figure 13 use "xl" structures with reuse distances of 10-25 M
 * instructions, which resolve when the fig13/fig14 benches run at their
 * larger default spacing (25 M) — see EXPERIMENTS.md.
 */

KernelSpec
stream(std::uint64_t ws, std::uint64_t stride, double w, unsigned pcs = 4)
{
    KernelSpec k;
    k.kind = Kind::Stream;
    k.ws = ws;
    k.stride = stride;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

/** Never-wrapping cold-miss stream (2 GiB footprint). */
KernelSpec
coldstream(double w, unsigned pcs = 2)
{
    return stream(2 * GiB, 64, w, pcs);
}

KernelSpec
strided(std::uint64_t ws, std::uint64_t stride, double w, unsigned pcs = 1)
{
    KernelSpec k;
    k.kind = Kind::Stride;
    k.ws = ws;
    k.stride = stride;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

KernelSpec
hot(std::uint64_t ws, double w, unsigned pcs = 6)
{
    KernelSpec k;
    k.kind = Kind::Random;
    k.ws = ws;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

KernelSpec
uniform(std::uint64_t ws, double w, unsigned pcs = 4)
{
    KernelSpec k;
    k.kind = Kind::Random;
    k.ws = ws;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

KernelSpec
chase(std::uint64_t ws, double w, unsigned pcs = 2)
{
    KernelSpec k;
    k.kind = Kind::Chase;
    k.ws = ws;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

KernelSpec
block(std::uint64_t ws, std::uint64_t blk, unsigned repeats, double w,
      unsigned pcs = 6)
{
    KernelSpec k;
    k.kind = Kind::Block;
    k.ws = ws;
    k.block = blk;
    k.repeats = repeats;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

/** Block sweep landing its key reuses in the Explorer-1 band. */
KernelSpec
e1block(double w, unsigned pcs = 6)
{
    return block(32 * KiB, 4 * KiB, 16, w, pcs);
}

/** Explorer-2 band. */
KernelSpec
e2block(double w, unsigned pcs = 6)
{
    return block(128 * KiB, 4 * KiB, 16, w, pcs);
}

/** Explorer-3 band. */
KernelSpec
e3block(double w, unsigned pcs = 6)
{
    return block(512 * KiB, 8 * KiB, 16, w, pcs);
}

/** Explorer-4 band. */
KernelSpec
e4block(double w, unsigned pcs = 6)
{
    return block(1 * MiB, 8 * KiB, 16, w, pcs);
}

KernelSpec
hotcold(std::uint64_t hot_b, std::uint64_t cold_b, double hot_frac,
        bool interleaved, double w, unsigned pcs = 4)
{
    KernelSpec k;
    k.kind = Kind::HotCold;
    k.ws = hot_b;
    k.cold = cold_b;
    k.hot_frac = hot_frac;
    k.interleaved = interleaved;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

KernelSpec
epoch(std::uint64_t ws, unsigned regions, std::uint64_t epoch_len,
      double w, unsigned pcs = 3)
{
    KernelSpec k;
    k.kind = Kind::Epoch;
    k.ws = ws;
    k.regions = regions;
    k.epoch_len = epoch_len;
    k.weight = w;
    k.num_pcs = pcs;
    return k;
}

/**
 * Turn the profile's cold component (the last kernel, a coldstream)
 * into bursts: quiet most of the time, concentrated into short windows,
 * so only some detailed regions observe cold misses. This yields the
 * mid-range average Explorer engagement of Figure 8 while preserving
 * average MPKI. Burst placement is deliberately incommensurate with the
 * 5 M region spacing.
 */
void
coldBurst(BenchmarkProfile &p)
{
    std::vector<double> normal, burst;
    for (std::size_t i = 0; i < p.kernels.size(); ++i) {
        const bool is_cold = i + 1 == p.kernels.size();
        const double w = p.kernels[i].weight;
        normal.push_back(is_cold ? 0.0 : w);
        burst.push_back(is_cold ? w * 3.7 : w);
    }
    p.phases = {{1'000'000, normal}, {370'000, burst}};
}

BenchmarkProfile
base(const std::string &name, std::uint64_t seed)
{
    BenchmarkProfile p;
    p.name = name;
    p.seed = seed;
    return p;
}

/** Build the full profile table once. */
std::vector<BenchmarkProfile>
buildProfiles()
{
    std::vector<BenchmarkProfile> out;

    {   // perlbench: interpreter; strong locality, some heap chasing.
        auto p = base("perlbench", 101);
        p.mem_ratio = 0.38;
        p.branch_ratio = 0.18;
        p.code_footprint = 96 * KiB;
        p.kernels = {hot(16 * KiB, 0.48, 8), e1block(0.22),
                     e2block(0.17), chase(512 * KiB, 0.06),
                     coldstream(0.005)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // bzip2: block compression; mid-size sweeps.
        auto p = base("bzip2", 102);
        p.mem_ratio = 0.36;
        p.kernels = {hot(16 * KiB, 0.40), e1block(0.22),
                     stream(256 * KiB, 16, 0.16, 4), e2block(0.16),
                     coldstream(0.008)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // bwaves: tiny key sets with short reuses; the paper's 49x
        // best case (everything lukewarm or Explorer-1).
        auto p = base("bwaves", 103);
        p.mem_ratio = 0.40;
        p.branch_ratio = 0.08;
        p.fp_frac = 0.45;
        p.kernels = {hot(8 * KiB, 0.52, 4),
                     block(8 * KiB, 2 * KiB, 32, 0.30, 4),
                     stream(16 * KiB, 8, 0.18, 2)};
        out.push_back(p);
    }
    {   // gamess: compute-bound quantum chemistry; tiny footprint.
        auto p = base("gamess", 104);
        p.mem_ratio = 0.25;
        p.fp_frac = 0.50;
        p.kernels = {hot(16 * KiB, 0.52), e1block(0.30),
                     e2block(0.18)};
        out.push_back(p);
    }
    {   // mcf: pointer chasing; worst locality and highest CPI.
        auto p = base("mcf", 105);
        p.mem_ratio = 0.42;
        p.branch_ratio = 0.17;
        p.kernels = {hot(16 * KiB, 0.33), e1block(0.22),
                     uniform(1 * MiB, 0.12, 6), chase(8 * MiB, 0.10),
                     coldstream(0.055, 4)};
        out.push_back(p);
    }
    {   // zeusmp: CFD; grid sweeps across several bands up to E4.
        auto p = base("zeusmp", 106);
        p.mem_ratio = 0.40;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.38), e1block(0.20),
                     e3block(0.18), e4block(0.18),
                     coldstream(0.012)};
        out.push_back(p);
    }
    {   // gromacs: mostly local, with a thin long-reuse tail (few but
        // long key reuses -> engages deep Explorers for a few keys).
        auto p = base("gromacs", 107);
        p.mem_ratio = 0.33;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.46), e1block(0.28),
                     e2block(0.16),
                     block(256 * KiB, 8 * KiB, 16, 0.06),
                     coldstream(0.003)};
        out.push_back(p);
    }
    {   // cactusADM: structured grid; components at many scales give a
        // smooth working-set curve without a pronounced knee (Fig 13);
        // the xl stream adds a gentle large-cache slope at fig13 scale.
        auto p = base("cactusADM", 108);
        p.mem_ratio = 0.41;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.34), e1block(0.15),
                     e2block(0.13), e3block(0.13), e4block(0.17),
                     stream(24 * MiB, 8, 0.06, 4),
                     coldstream(0.007)};
        out.push_back(p);
    }
    {   // leslie3d: CFD; smoothly declining MPKI over many scales with
        // a relatively high miss floor.
        auto p = base("leslie3d", 109);
        p.mem_ratio = 0.42;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.30), e1block(0.13),
                     e2block(0.12), e3block(0.12), e4block(0.17),
                     stream(32 * MiB, 8, 0.10, 4),
                     coldstream(0.016)};
        out.push_back(p);
    }
    {   // namd: compute-bound MD; small hot set, low MPKI.
        auto p = base("namd", 110);
        p.mem_ratio = 0.24;
        p.fp_frac = 0.50;
        p.kernels = {hot(16 * KiB, 0.55), e1block(0.28),
                     e2block(0.16), coldstream(0.002)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // gobmk: game-tree search; branchy, scattered board state.
        auto p = base("gobmk", 111);
        p.mem_ratio = 0.32;
        p.branch_ratio = 0.22;
        p.hard_branch_frac = 0.30;
        p.code_footprint = 96 * KiB;
        p.kernels = {hot(32 * KiB, 0.44, 8), e1block(0.26),
                     e2block(0.18), chase(512 * KiB, 0.08),
                     coldstream(0.004)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // soplex: sparse LP; strided matrix traversals whose per-PC
        // reuse distributions skew long and mislead RSW (the paper's
        // CoolSim overestimation case), plus a real miss floor.
        auto p = base("soplex", 112);
        p.mem_ratio = 0.39;
        p.kernels = {hot(16 * KiB, 0.36), e1block(0.18),
                     strided(4 * MiB, 4096, 0.10, 1),
                     uniform(6 * MiB, 0.10, 4), e3block(0.08),
                     coldstream(0.022, 4)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // povray: small working set, but rare cold lines interleaved
        // into hot pages: long reuses + watchpoint false-positive
        // storms (the paper's 1.05x worst case).
        auto p = base("povray", 113);
        p.mem_ratio = 0.34;
        p.branch_ratio = 0.19;
        p.code_footprint = 96 * KiB;
        p.kernels = {hot(16 * KiB, 0.34),
                     hotcold(2 * MiB, 0, 0.9985, true, 0.42, 6),
                     e1block(0.22)};
        out.push_back(p);
    }
    {   // calculix: long reuses concentrated in a single detailed
        // region via a rare phase revisiting an epoch-rotated
        // structure; phase layout matches the default 10 x 5 M
        // schedule so exactly one region observes it.
        auto p = base("calculix", 114);
        p.mem_ratio = 0.35;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.46), e1block(0.26),
                     e2block(0.16),
                     epoch(8 * MiB, 8, 120'000, 0.10),
                     coldstream(0.003)};
        p.phases = {{46'000'000, {0.49, 0.28, 0.17, 0.0, 0.0}},
                    {4'000'000, {0.30, 0.16, 0.10, 0.40, 0.01}}};
        out.push_back(p);
    }
    {   // hmmer: extremely regular table scan; almost no LLC misses.
        auto p = base("hmmer", 115);
        p.mem_ratio = 0.45;
        p.branch_ratio = 0.10;
        p.kernels = {hot(16 * KiB, 0.42), stream(512 * KiB, 8, 0.34, 3),
                     e1block(0.24)};
        out.push_back(p);
    }
    {   // sjeng: chess search; branchy, scattered hash probes.
        auto p = base("sjeng", 116);
        p.mem_ratio = 0.30;
        p.branch_ratio = 0.21;
        p.hard_branch_frac = 0.25;
        p.kernels = {hot(32 * KiB, 0.42, 8), e1block(0.24),
                     e2block(0.14), chase(4 * MiB, 0.12),
                     coldstream(0.006)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // GemsFDTD: large grids with long reuses; engages all four
        // Explorers and carries a high miss floor (CoolSim
        // overestimates LLC misses here).
        auto p = base("GemsFDTD", 117);
        p.mem_ratio = 0.42;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.26), e2block(0.16),
                     e3block(0.14), e4block(0.16),
                     uniform(5 * MiB, 0.08, 4),
                     epoch(6 * MiB, 4, 60'000, 0.12),
                     coldstream(0.035, 4)};
        out.push_back(p);
    }
    {   // libquantum: pure streaming over a large vector; flat MPKI
        // until very large caches (sub-line stride keeps it realistic).
        auto p = base("libquantum", 118);
        p.mem_ratio = 0.30;
        p.branch_ratio = 0.12;
        p.kernels = {hot(8 * KiB, 0.40, 3),
                     stream(32 * MiB, 8, 0.44, 3),
                     e1block(0.16, 3)};
        out.push_back(p);
    }
    {   // h264ref: video encoding; blocked frame access, good locality.
        auto p = base("h264ref", 119);
        p.mem_ratio = 0.37;
        p.kernels = {hot(16 * KiB, 0.44, 8), e1block(0.26),
                     stream(512 * KiB, 16, 0.18, 4), e2block(0.10),
                     coldstream(0.003)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // tonto: quantum chemistry; blocked linear algebra.
        auto p = base("tonto", 120);
        p.mem_ratio = 0.33;
        p.fp_frac = 0.45;
        p.kernels = {hot(16 * KiB, 0.44), e1block(0.24),
                     e2block(0.16), e3block(0.12),
                     coldstream(0.004)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // lbm: lattice Boltzmann; 6 MiB blocked set (8 MiB knee) plus a
        // large sub-line-stride stream whose reuse resolves at fig13's
        // larger spacing (large-cache knee) and a cold miss floor.
        auto p = base("lbm", 121);
        p.mem_ratio = 0.45;
        p.branch_ratio = 0.06;
        p.kernels = {hot(8 * KiB, 0.26, 4),
                     block(6 * MiB, 32 * KiB, 6, 0.28),
                     stream(32 * MiB, 8, 0.38, 6),
                     coldstream(0.012, 4)};
        out.push_back(p);
    }
    {   // omnetpp: discrete event simulation; heap chase with a heavy
        // pointer-dependent miss component.
        auto p = base("omnetpp", 122);
        p.mem_ratio = 0.40;
        p.branch_ratio = 0.18;
        p.kernels = {hot(16 * KiB, 0.36), e1block(0.20),
                     chase(8 * MiB, 0.14), e3block(0.12),
                     coldstream(0.025, 4)};
        out.push_back(p);
    }
    {   // astar: path finding; mid-size chase plus local neighborhood.
        auto p = base("astar", 123);
        p.mem_ratio = 0.38;
        p.branch_ratio = 0.17;
        p.kernels = {hot(16 * KiB, 0.38), e1block(0.22),
                     chase(4 * MiB, 0.14), e2block(0.14),
                     coldstream(0.010)};
        coldBurst(p);
        out.push_back(p);
    }
    {   // xalancbmk: XML transformation; pointer-heavy and branchy.
        auto p = base("xalancbmk", 124);
        p.mem_ratio = 0.39;
        p.branch_ratio = 0.20;
        p.hard_branch_frac = 0.20;
        p.code_footprint = 96 * KiB;
        p.kernels = {hot(16 * KiB, 0.38, 8), e1block(0.20),
                     chase(2 * MiB, 0.16), e3block(0.14),
                     coldstream(0.008)};
        coldBurst(p);
        out.push_back(p);
    }

    for (auto &p : out)
        p.validate();
    return out;
}

const std::vector<BenchmarkProfile> &
profileTable()
{
    static const std::vector<BenchmarkProfile> table = buildProfiles();
    return table;
}

} // namespace

const std::vector<std::string> &
specBenchmarkNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const auto &p : profileTable())
            n.push_back(p.name);
        return n;
    }();
    return names;
}

BenchmarkProfile
specProfile(const std::string &name)
{
    for (const auto &p : profileTable()) {
        if (p.name == name)
            return p;
    }
    fatal("unknown SPEC-like benchmark '%s'", name.c_str());
    return {};
}

std::unique_ptr<TraceSource>
makeSpecTrace(const std::string &name)
{
    return std::make_unique<SyntheticTrace>(specProfile(name),
                                            "spec:" + name);
}

} // namespace delorean::workload
