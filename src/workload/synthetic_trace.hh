/**
 * @file
 * The synthetic trace generator: executes a BenchmarkProfile.
 *
 * SyntheticTrace turns a profile into a deterministic dynamic instruction
 * stream. It is the workhorse TraceSource of the library and supports
 * cheap snapshots (deep copies of a few hundred bytes of state), which is
 * what makes multi-pass Time Traveling affordable in this reproduction.
 */

#ifndef DELOREAN_WORKLOAD_SYNTHETIC_TRACE_HH
#define DELOREAN_WORKLOAD_SYNTHETIC_TRACE_HH

#include <memory>
#include <vector>

#include "base/fastdiv.hh"
#include "workload/benchmark_profile.hh"
#include "workload/trace_source.hh"

namespace delorean::workload
{

/**
 * Deterministic instruction stream generated from a BenchmarkProfile.
 *
 * Layout decisions:
 *  - each kernel gets a page-aligned private data region, allocated
 *    sequentially from data_base with one guard page between regions;
 *  - code lives at code_base; branch and load/store PCs are drawn from
 *    the profile's code footprint so the L1-I sees a realistic working
 *    set; non-memory instructions sweep the code region sequentially.
 */
class SyntheticTrace : public TraceSource
{
  public:
    /** Start of the data address space used by kernels. */
    static constexpr Addr data_base = 0x1000'0000;

    /** Start of the code address space. */
    static constexpr Addr code_base = 0x40'0000;

    /**
     * @p identity is the streamIdentity() to report; only the spec
     * registry (makeSpecTrace) passes one, because it alone knows
     * that equal names mean equal profiles.
     */
    explicit SyntheticTrace(BenchmarkProfile profile,
                            std::string identity = {});

    Instruction next() override;
    InstCount position() const override { return pos_; }
    std::unique_ptr<TraceSource> clone() const override;
    void reset() override;
    const std::string &name() const override { return profile_->name; }
    const std::string &
    streamIdentity() const override
    {
        return identity_;
    }

    /**
     * Faster than the default n x next(): runs the same state
     * transitions (every RNG draw, kernel step, and cursor update must
     * happen — the stream is path-dependent, so a synthetic trace
     * cannot seek) but skips materializing the Instruction records.
     */
    void skip(InstCount n) override;

    /**
     * Explorer replay fast path: advances through step() like next()
     * and skip() do, materializing nothing but the cacheline number of
     * each memory access. Non-memory instructions cost skip()-speed.
     */
    InstCount memLines(Addr *lines, InstCount n) override;

    /** The profile this trace executes. */
    const BenchmarkProfile &profile() const { return *profile_; }

    /** Base address assigned to kernel @p idx (testing hook). */
    Addr kernelBase(std::size_t idx) const;

  private:
    SyntheticTrace(const SyntheticTrace &other);

    /** What step() materializes; state transitions never vary. */
    enum class StepMode
    {
        Full,    //!< write the whole Instruction record
        MemLine, //!< write only a memory access's cacheline number
        Skip,    //!< write nothing
    };

    /**
     * Advance the generator by one instruction, materializing what
     * @p Mode asks for. next(), skip() and memLines() all funnel
     * through this one function so their state transitions can never
     * diverge — the mode is a compile-time constant, so each caller
     * gets a specialization of the same source with the record writes
     * (and their branches) compiled out rather than tested per
     * instruction.
     *
     * @return true iff the instruction was a memory access
     */
    template <StepMode Mode>
    bool step(Instruction *out, Addr *mem_line);

    /** Immutable per-branch-PC behaviour, shared across clones. */
    struct BranchInfo
    {
        Addr pc;
        Addr target;
        double taken_bias;
    };

    /** Immutable tables shared by all clones of this trace. */
    struct Tables
    {
        std::vector<BranchInfo> branches;
        /** Load/store PCs, one table per kernel. */
        std::vector<std::vector<Addr>> mem_pcs;
        /** Per-phase cumulative kernel weights (index 0 = stationary). */
        std::vector<std::vector<double>> cum_weights;
        /** Phase end positions within one cycle; empty = stationary. */
        std::vector<InstCount> phase_ends;
        InstCount phase_cycle = 0;
        std::uint64_t code_slots = 1;
        // Precomputed reciprocals for every loop-invariant divisor the
        // per-instruction step() touches; a hardware divide here is
        // one of the most expensive instructions in Explorer replay.
        FastDiv branch_div;            //!< bound = branches.size()
        FastDiv code_slots_div;        //!< divisor = code_slots
        std::vector<FastDiv> pc_divs;  //!< divisor = mem_pcs[k].size()
        // Loop-invariant pieces of the non-memory fast path (see
        // step() for the equivalence argument).
        double mem_plus_branch = 0.0;  //!< mem_ratio + branch_ratio
        std::uint64_t call_m_bound = 0; //!< chance(call) as integer cmp
        std::uint64_t n_funcs = 1;
        std::uint64_t hot_funcs = 1;
        bool fp_draws = false;         //!< chance(fp_frac) draws at all
    };

    /** Pick the active phase's cumulative weight vector. */
    const std::vector<double> &activeWeights() const;

    /** Pick a kernel index from the active weight vector. */
    std::size_t pickKernel(double u) const;

    std::shared_ptr<const BenchmarkProfile> profile_;
    std::shared_ptr<const Tables> tables_;
    std::string identity_;

    /** Advance the position and the phase cursor together. */
    void
    advancePos()
    {
        ++pos_;
        const auto &t = *tables_;
        if (t.phase_cycle != 0) {
            if (++in_cycle_ == t.phase_cycle) {
                in_cycle_ = 0;
                phase_idx_ = 0;
            }
            // Zero-length phases make phase_ends non-strictly
            // increasing, hence a loop rather than a single bump.
            while (phase_idx_ + 1 < t.phase_ends.size() &&
                   in_cycle_ >= t.phase_ends[phase_idx_])
                ++phase_idx_;
        }
    }

    std::vector<std::unique_ptr<AccessKernel>> kernels_;
    std::vector<std::uint32_t> pc_cursor_; //!< round-robin per kernel
    Rng rng_;
    InstCount pos_;
    /**
     * pos_ % tables_->phase_cycle, maintained incrementally (0 when
     * the profile is stationary): phased profiles would otherwise pay
     * a 64-bit division per memory access in activeWeights(), one of
     * the hottest single instructions in Explorer replay.
     */
    InstCount in_cycle_ = 0;
    /**
     * Index into tables_->phase_ends of the phase containing
     * in_cycle_ (0 when stationary), maintained incrementally by
     * advancePos() so activeWeights() — called once per generated
     * memory access — is a table lookup instead of a scan.
     */
    std::size_t phase_idx_ = 0;
    std::uint64_t code_cursor_;
    std::uint64_t func_pos_ = 0;
};

} // namespace delorean::workload

#endif // DELOREAN_WORKLOAD_SYNTHETIC_TRACE_HH
