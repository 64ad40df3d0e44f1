#include "workload/synthetic_trace.hh"

#include <cmath>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace delorean::workload
{

namespace
{

/** Probability per non-branch, non-memory instruction of a call/return
 *  to a different function (see the fetch-locality comment in step). */
constexpr double step_call_prob = 0.001;

/** Instruction slots per synthetic "function" (4 KiB of code). */
constexpr std::uint64_t step_func_slots = 1024;

} // namespace

SyntheticTrace::SyntheticTrace(BenchmarkProfile profile,
                               std::string identity)
    : profile_(std::make_shared<const BenchmarkProfile>(std::move(profile))),
      identity_(std::move(identity)),
      rng_(profile_->seed),
      pos_(0),
      code_cursor_(0),
      func_pos_(0)
{
    profile_->validate();

    const auto &prof = *profile_;
    auto tables = std::make_shared<Tables>();

    // --- code layout -----------------------------------------------------
    tables->code_slots = prof.code_footprint / 4;

    // Branch PCs are spread over the code footprint. A hard_branch_frac
    // of them get a near-random bias; the rest behave like loop
    // back-edges with strong taken bias.
    Rng layout_rng(prof.seed ^ 0x9d5f);
    tables->branches.reserve(prof.num_branch_pcs);
    for (unsigned i = 0; i < prof.num_branch_pcs; ++i) {
        BranchInfo info;
        const std::uint64_t slot =
            layout_rng.nextBounded(tables->code_slots);
        info.pc = code_base + slot * 4;
        const bool hard =
            layout_rng.nextDouble() < prof.hard_branch_frac;
        if (hard) {
            info.taken_bias = 0.4 + 0.2 * layout_rng.nextDouble();
            info.target = info.pc + 4 * (8 + layout_rng.nextBounded(64));
        } else {
            // Loop-style branch: strongly taken, backward target.
            info.taken_bias = 0.90 + 0.08 * layout_rng.nextDouble();
            const Addr span = 4 * (4 + layout_rng.nextBounded(256));
            info.target = info.pc > span ? info.pc - span : code_base;
        }
        tables->branches.push_back(info);
    }

    // Load/store PCs per kernel, also inside the code footprint.
    tables->mem_pcs.resize(prof.kernels.size());
    for (std::size_t k = 0; k < prof.kernels.size(); ++k) {
        auto &pcs = tables->mem_pcs[k];
        pcs.reserve(prof.kernels[k].num_pcs);
        for (unsigned i = 0; i < prof.kernels[k].num_pcs; ++i) {
            const std::uint64_t slot =
                layout_rng.nextBounded(tables->code_slots);
            pcs.push_back(code_base + slot * 4);
        }
    }

    // --- kernel weights (stationary + per phase) --------------------------
    const auto cumulate = [&](const std::vector<double> &raw) {
        std::vector<double> cum(raw.size());
        double acc = 0.0;
        for (std::size_t i = 0; i < raw.size(); ++i) {
            acc += raw[i];
            cum[i] = acc;
        }
        for (auto &c : cum)
            c /= acc;
        return cum;
    };

    std::vector<double> stationary;
    stationary.reserve(prof.kernels.size());
    for (const auto &k : prof.kernels)
        stationary.push_back(k.weight);
    tables->cum_weights.push_back(cumulate(stationary));

    InstCount cycle = 0;
    for (const auto &ph : prof.phases) {
        tables->cum_weights.push_back(cumulate(ph.weights));
        cycle += ph.length;
        tables->phase_ends.push_back(cycle);
    }
    tables->phase_cycle = cycle;

    // --- precomputed reciprocals ------------------------------------------
    if (!tables->branches.empty())
        tables->branch_div = FastDiv(tables->branches.size());
    tables->code_slots_div = FastDiv(tables->code_slots);
    tables->pc_divs.reserve(tables->mem_pcs.size());
    for (const auto &pcs : tables->mem_pcs)
        tables->pc_divs.emplace_back(pcs.empty() ? FastDiv()
                                                 : FastDiv(pcs.size()));

    // --- non-memory fast-path invariants ----------------------------------
    tables->mem_plus_branch = prof.mem_ratio + prof.branch_ratio;
    // chance(call_prob) compares (r >> 11) * 2^-53 < call_prob. The
    // left side is exact (an integer scaled by a power of two), so the
    // whole predicate is an integer comparison against
    // ceil(call_prob * 2^53): equality with the double comparison for
    // every r is pinned in test_workload.cc.
    tables->call_m_bound =
        std::uint64_t(std::ceil(step_call_prob * 0x1.0p53));
    tables->n_funcs =
        std::max<std::uint64_t>(1, tables->code_slots / step_func_slots);
    tables->hot_funcs = std::min<std::uint64_t>(
        tables->n_funcs, 48 * KiB / (4 * step_func_slots));
    tables->fp_draws = prof.fp_frac > 0.0 && prof.fp_frac < 1.0;

    tables_ = std::move(tables);

    // A leading zero-length phase means position 0 already lies past
    // phase_ends[0]; sync the cached phase index the same way
    // advancePos() maintains it.
    while (phase_idx_ + 1 < tables_->phase_ends.size() &&
           in_cycle_ >= tables_->phase_ends[phase_idx_])
        ++phase_idx_;

    // --- data layout -------------------------------------------------------
    Addr next_base = data_base;
    kernels_.reserve(prof.kernels.size());
    pc_cursor_.assign(prof.kernels.size(), 0);
    for (std::size_t k = 0; k < prof.kernels.size(); ++k) {
        const auto &spec = prof.kernels[k];
        kernels_.push_back(makeKernel(spec, next_base,
                                      prof.seed * 1315423911u + k));
        std::uint64_t fp = spec.ws;
        if (spec.kind == KernelSpec::Kind::HotCold && !spec.interleaved)
            fp += spec.cold;
        // Page-align with one guard page so kernels never share pages;
        // only HotColdKernel deliberately mixes localities in a page.
        next_base += roundUp<Addr>(fp, page_size) + page_size;
    }
}

SyntheticTrace::SyntheticTrace(const SyntheticTrace &other)
    : profile_(other.profile_),
      tables_(other.tables_),
      identity_(other.identity_),
      pc_cursor_(other.pc_cursor_),
      rng_(other.rng_),
      pos_(other.pos_),
      in_cycle_(other.in_cycle_),
      phase_idx_(other.phase_idx_),
      code_cursor_(other.code_cursor_),
      func_pos_(other.func_pos_)
{
    kernels_.reserve(other.kernels_.size());
    for (const auto &k : other.kernels_)
        kernels_.push_back(k->clone());
}

std::unique_ptr<TraceSource>
SyntheticTrace::clone() const
{
    return std::unique_ptr<TraceSource>(new SyntheticTrace(*this));
}

void
SyntheticTrace::reset()
{
    rng_ = Rng(profile_->seed);
    pos_ = 0;
    in_cycle_ = 0;
    phase_idx_ = 0;
    while (phase_idx_ + 1 < tables_->phase_ends.size() &&
           in_cycle_ >= tables_->phase_ends[phase_idx_])
        ++phase_idx_;
    code_cursor_ = 0;
    func_pos_ = 0;
    pc_cursor_.assign(kernels_.size(), 0);
    for (auto &k : kernels_)
        k->reset();
}

Addr
SyntheticTrace::kernelBase(std::size_t idx) const
{
    panic_if(idx >= kernels_.size(), "kernelBase: index out of range");
    return kernels_[idx]->base();
}

const std::vector<double> &
SyntheticTrace::activeWeights() const
{
    const auto &t = *tables_;
    if (t.phase_ends.empty())
        return t.cum_weights[0];
    // phase_idx_ tracks in_cycle_ incrementally (see advancePos);
    // same selection as scanning phase_ends for the first end past
    // in_cycle_, without the per-access scan.
    return t.cum_weights[phase_idx_ + 1];
}

std::size_t
SyntheticTrace::pickKernel(double u) const
{
    const auto &cum = activeWeights();
    // Branchless form of "first i with u <= cum[i]": cum is
    // non-decreasing, so that index equals the count of entries below
    // u. u is always <= cum.back() (== 1.0 exactly after
    // normalization, while u < 1.0), but clamp anyway so a degenerate
    // table cannot index out of bounds. The early-exit scan this
    // replaces mispredicted on nearly every draw.
    std::size_t idx = 0;
    for (const double c : cum)
        idx += c < u;
    return std::min(idx, cum.size() - 1);
}

namespace
{

/**
 * Dispatch nextAddr on the profile's kernel kind instead of through
 * the vtable: the kinds are fixed at construction, the classes are
 * final, and the bodies are header-inline, so each case collapses to
 * straight-line code inside the decode loop. makeKernel guarantees
 * the kind <-> concrete-type mapping this relies on.
 */
inline Addr
dispatchNextAddr(KernelSpec::Kind kind, AccessKernel &k)
{
    switch (kind) {
      case KernelSpec::Kind::Stream:
        return static_cast<StreamKernel &>(k).nextAddr();
      case KernelSpec::Kind::Stride:
        return static_cast<StrideKernel &>(k).nextAddr();
      case KernelSpec::Kind::Random:
        return static_cast<RandomKernel &>(k).nextAddr();
      case KernelSpec::Kind::Chase:
        return static_cast<ChaseKernel &>(k).nextAddr();
      case KernelSpec::Kind::Block:
        return static_cast<BlockKernel &>(k).nextAddr();
      case KernelSpec::Kind::HotCold:
        return static_cast<HotColdKernel &>(k).nextAddr();
      case KernelSpec::Kind::Epoch:
        return static_cast<EpochKernel &>(k).nextAddr();
    }
    return k.nextAddr();
}

} // namespace

template <SyntheticTrace::StepMode Mode>
bool
SyntheticTrace::step(Instruction *out, Addr *mem_line)
{
    const auto &prof = *profile_;
    const auto &t = *tables_;

    // Every RNG draw, kernel step, and cursor update below happens
    // for every Mode — only the record writes are gated — so skip(n)
    // and memLines(n) leave the generator in exactly the state
    // n x next() would.
    const double u = rng_.nextDouble();

    if (u < prof.mem_ratio) {
        const std::size_t k = pickKernel(rng_.nextDouble());
        const bool store = rng_.chance(prof.store_frac);
        const Addr addr =
            dispatchNextAddr(prof.kernels[k].kind, *kernels_[k]);
        if constexpr (Mode == StepMode::Full) {
            out->type = store ? InstType::Store : InstType::Load;
            out->addr = addr;
            // Pointer-chase loads carry a value dependence on the
            // previous load (the next pointer), which the timing model
            // serializes.
            out->dep_load = !store &&
                prof.kernels[k].kind == KernelSpec::Kind::Chase;
            const auto &pcs = t.mem_pcs[k];
            // A kernel's PCs stand for distinct loops: stay on one PC
            // for a stretch of iterations rather than round-robin per
            // access — per-access rotation would give every PC an
            // artificial large stride and mislead the
            // limited-associativity model.
            out->pc = pcs[t.pc_divs[k].mod(pc_cursor_[k] / 64)];
            out->latency = 1;
        } else if constexpr (Mode == StepMode::MemLine) {
            *mem_line = lineOf(addr);
        }
        ++pc_cursor_[k];
        advancePos();
        return true;
    }

    // Non-memory instruction. Both arms draw the same *pattern* —
    // one raw value, a rarely-taken slow-path check, then (usually)
    // one more raw value — so the unpredictable branch/other split is
    // resolved with conditional selects instead of a mispredicting
    // branch around each arm's draws. Draw-for-draw this is the
    // original code:
    //
    //   branch:  r = nextBounded(branches.size())   [rejection loop]
    //            taken = chance(taken_bias)         [bias in (0,1):
    //                                                always draws]
    //   other:   if (chance(0.001)) { call path }   [rare]
    //            fp = chance(fp_frac)               [draws iff
    //                                                fp_frac in (0,1)]
    //
    // nextBounded's first draw is rejected iff r < threshold;
    // chance(0.001)'s draw triggers the call path iff
    // (r >> 11) < call_m_bound (exact integer form of the double
    // comparison). Both are one compare on the first raw value, so
    // one selected (key, bound) pair covers them.
    const bool is_branch = u < t.mem_plus_branch;
    const std::uint64_t n1 = rng_.next();
    const std::uint64_t rare_key = is_branch ? n1 : n1 >> 11;
    const std::uint64_t rare_bound =
        is_branch ? t.branch_div.negMod() : t.call_m_bound;
    std::uint64_t r1 = n1;
    if (rare_key < rare_bound) [[unlikely]] {
        if (is_branch) {
            // Rejected first draw: continue the rejection loop.
            do {
                r1 = rng_.next();
            } while (r1 < t.branch_div.negMod());
        } else {
            // Call/return to a different function; mostly hot code.
            // Execution stays inside a small "function" window, jumps
            // mostly between a few hot functions (covered by the 30 k
            // detailed warming), and only occasionally visits cold
            // code. A linear sweep would LRU-thrash the L1-I, which
            // real code does not.
            const std::uint64_t f = rng_.chance(0.98)
                                        ? rng_.nextBounded(t.hot_funcs)
                                        : rng_.nextBounded(t.n_funcs);
            code_cursor_ = f * step_func_slots;
            func_pos_ = 0;
        }
    }
    std::uint64_t n2 = 0;
    if (is_branch | t.fp_draws)
        n2 = rng_.next();
    if constexpr (Mode == StepMode::Full) {
        if (is_branch) {
            const auto &br = t.branches[t.branch_div.mod(r1)];
            out->type = InstType::Branch;
            out->pc = br.pc;
            out->target = br.target;
            out->taken = (n2 >> 11) * 0x1.0p-53 < br.taken_bias;
            out->latency = 1;
        } else {
            const bool fp =
                t.fp_draws ? (n2 >> 11) * 0x1.0p-53 < prof.fp_frac
                           : prof.fp_frac >= 1.0;
            out->type = InstType::Other;
            out->pc = code_base +
                      t.code_slots_div.mod(code_cursor_ + func_pos_) * 4;
            out->latency = fp ? std::uint8_t(4) : std::uint8_t(1);
        }
    } else {
        (void)r1;
        (void)n2;
    }
    // func_pos_ stays below step_func_slots, so adding 0 and masking
    // is the identity: a select, not a branch.
    func_pos_ = (func_pos_ + (is_branch ? 0 : 1)) & (step_func_slots - 1);

    advancePos();
    return false;
}

Instruction
SyntheticTrace::next()
{
    Instruction inst;
    step<StepMode::Full>(&inst, nullptr);
    return inst;
}

void
SyntheticTrace::skip(InstCount n)
{
    for (InstCount i = 0; i < n; ++i)
        step<StepMode::Skip>(nullptr, nullptr);
}

InstCount
SyntheticTrace::memLines(Addr *lines, InstCount n)
{
    InstCount m = 0;
    Addr line = 0;
    for (InstCount i = 0; i < n; ++i) {
        if (step<StepMode::MemLine>(nullptr, &line))
            lines[m++] = line;
    }
    return m;
}

} // namespace delorean::workload
