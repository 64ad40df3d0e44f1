/**
 * @file
 * SPEC CPU2006-like benchmark profiles.
 *
 * The paper evaluates 24 SPEC CPU2006 benchmarks (reference inputs). We
 * cannot ship SPEC, so each benchmark is replaced by a synthetic profile
 * whose locality structure is engineered to reproduce the per-benchmark
 * observations the paper reports:
 *
 *  - bwaves:    tiny key-cacheline sets with short key reuses (all of
 *               them collectible by Explorer-1) — the 49x best case;
 *  - povray:    small working set, but rare cold lines that share pages
 *               with hot data — long reuses plus watchpoint
 *               false-positive storms (the 1.05x worst case);
 *  - GemsFDTD:  large working set with very long key reuses (engages all
 *               four Explorers; CoolSim overestimates misses);
 *  - calculix:  long reuses concentrated in a single detailed region
 *               (phase behaviour);
 *  - lbm:       working-set knees near 8 MiB and 512 MiB (Figure 13);
 *  - cactusADM / leslie3d: smooth working-set curves without a
 *               pronounced knee (Figure 13);
 *  - mcf/omnetpp/xalancbmk: pointer-chasing with poor locality and
 *               high CPI.
 *
 * Footprints are sized so the default 50M-instruction scaled trace
 * (DESIGN.md §5) re-references each structure at least a couple of times,
 * keeping the miss-rate-vs-cache-size *shape* of the paper's figures.
 */

#ifndef DELOREAN_WORKLOAD_SPEC_PROFILES_HH
#define DELOREAN_WORKLOAD_SPEC_PROFILES_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/benchmark_profile.hh"
#include "workload/synthetic_trace.hh"

namespace delorean::workload
{

/** @return the 24 benchmark names in the paper's figure order. */
const std::vector<std::string> &specBenchmarkNames();

/**
 * @return the profile for @p name (one of specBenchmarkNames()).
 * Calls fatal() for unknown names.
 */
BenchmarkProfile specProfile(const std::string &name);

/**
 * Construct the trace generator for @p name, with stream identity
 * "spec:NAME" (TraceSource::streamIdentity).
 */
std::unique_ptr<TraceSource> makeSpecTrace(const std::string &name);

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_SPEC_PROFILES_HH
