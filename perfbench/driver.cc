/**
 * @file
 * perfbench driver: runs one benchmark workload against the DeLorean
 * library and writes the raw measurements as one JSON object.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --ref SMARTS.tsv --service BATCH_SERVICE
 *                    --out RAW.json
 *   perfbench_driver --make-ref SMARTS.tsv
 *
 * Every layer is measured from outside, by timing calls into the
 * library's public functions (BatchPlan, BatchRunner, workloadIdentity,
 * ResultCache, makeTrace/memLines, ServiceClient)
 * and by reading the phase timers and counters each MethodResult
 * carries. The daemon is the `batch_service serve` binary, driven as a
 * child process. Statistics (medians, tails, span self time) are left
 * to run.py; this program only records samples, counters, checks and,
 * with --trace 1, spans.
 *
 * The working directory is the run's scratch directory: traces,
 * caches, the socket and the daemon log are created relative to it.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/random.hh"
#include "base/simd.hh"
#include "batch/cache_key.hh"
#include "batch/plan.hh"
#include "batch/result_cache.hh"
#include "batch/result_io.hh"
#include "batch/runner.hh"
#include "service/client.hh"
#include "workload/spec_profiles.hh"
#include "workload/synthetic_trace.hh"
#include "workload/trace_io.hh"
#include "workload/trace_registry.hh"

extern char **environ;

namespace
{

using namespace delorean;
namespace fs = std::filesystem;
using batch::BatchCell;
using batch::BatchPlan;
using batch::BatchRunner;
using sampling::MethodResult;

// ---------------------------------------------------------------------
// Fixed workload definitions. Changing any of these changes what the
// benchmark measures: regenerate the SMARTS reference afterwards.

/**
 * dse_sweep: one fits every LLC, one fits none, two fit only 8 MiB.
 * The plan keeps this order: BatchRunner::run hands its units (one
 * per profile) to the pool in plan order, not by cost, and mcf's is
 * the largest. Last is its worst place, which keeps that
 * dispatch-order cost in the figure.
 */
const std::vector<std::string> dse_profiles = {"bzip2", "astar",
                                               "xalancbmk", "mcf"};
const std::vector<std::pair<std::string, std::uint64_t>> dse_llcs = {
    {"l2", 2ull << 20}, {"l4", 4ull << 20}, {"l8", 8ull << 20}};
constexpr unsigned dse_regions = 6;

/** The valid operating range (5 M spacing) for every workload. */
constexpr InstCount spacing = 5'000'000;

/** recorded_trace / service_mix: a recording of this profile. */
const std::string recorded_profile = "bzip2";
constexpr InstCount recorded_insts = 10'000'000;
constexpr unsigned recorded_regions = 2;
const std::vector<std::pair<std::string, std::uint64_t>> recorded_llcs =
    {{"l2", 2ull << 20}, {"l8", 8ull << 20}};
const std::string recorded_file = "recorded.dlt";

constexpr unsigned runner_threads = 2;
/** service_mix: fresh jobs sweep this profile's LLC geometries. */
const std::string service_profile = "xalancbmk";
constexpr unsigned service_clients = 2;
constexpr std::uint64_t stream_chunk_bytes = 4ull << 20;

// ---------------------------------------------------------------------
// Small utilities.

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a 64 over a byte range, chained through @p h. */
std::uint64_t
fnv64(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}
constexpr std::uint64_t fnv_init = 0xcbf29ce484222325ull;

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** @p s as a JSON string literal. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    out += jsonEscape(s);
    out += '"';
    return out;
}

std::string
serialize(const MethodResult &r)
{
    std::ostringstream os;
    batch::writeMethodResult(os, r);
    return os.str();
}

/**
 * sim_stats_digest: FNV-1a over the serialized results with every
 * measured timing zeroed, so it covers every non-timing MethodResult
 * field (result_io writes them all) and nothing nondeterministic.
 */
std::string
statsDigest(const std::vector<MethodResult> &results)
{
    std::uint64_t h = fnv_init;
    for (MethodResult r : results) {
        r.cost.measured() = {};
        const std::string bytes = serialize(r);
        h = fnv64(h, bytes.data(), bytes.size());
    }
    return hex64(h);
}

/**
 * statsDigest over @p results (parallel to @p cells) taken in
 * (workload, config) order, which the seed's plan order does not move.
 */
std::string
cellOrderDigest(const std::vector<const BatchCell *> &cells,
                const std::vector<MethodResult> &results)
{
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return std::tie(cells[a]->workload, cells[a]->config_name) <
               std::tie(cells[b]->workload, cells[b]->config_name);
    });
    std::vector<MethodResult> sorted;
    for (const std::size_t i : order)
        sorted.push_back(results[i]);
    return statsDigest(sorted);
}

/** Sum of the five measured phases of @p r, in seconds. */
double
phaseSeconds(const MethodResult &r)
{
    return r.cost.measured().totalNs() * 1e-9;
}

/** One field ("rchar", "VmHWM", ...) of /proc/<pid>/<file>. */
std::uint64_t
procField(pid_t pid, const char *file, const std::string &key)
{
    const std::string path = "/proc/" +
        (pid ? std::to_string(pid) : std::string("self")) + "/" + file;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0 &&
            line.size() > key.size() && line[key.size()] == ':')
            return std::strtoull(line.c_str() + key.size() + 1, nullptr,
                                 10);
    }
    throw std::runtime_error("no " + key + " in " + path);
}

std::uint64_t rchar(pid_t pid) { return procField(pid, "io", "rchar"); }

double
peakRssMb(pid_t pid)
{
    return double(procField(pid, "status", "VmHWM")) / 1024.0;
}

/** utime + stime of @p pid, in seconds. */
double
cpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const auto close = text.rfind(')');
    if (close == std::string::npos)
        throw std::runtime_error("unreadable /proc/<pid>/stat");
    std::istringstream is(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && is >> field; ++i)
        if (i >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    return ticks / double(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------------
// Spans (trace mode) and checks.

/**
 * The traced run alternates: even iterations record spans, odd ones
 * do not, so run.py can compare the two halves to state the overhead
 * of tracing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(nowS()) {}

    /** True for the whole traced run, recording or not. */
    bool on() const { return on_; }

    /** Record spans in iteration @p it (even ones) or not. */
    void iteration(std::uint64_t it) { recording_ = on_ && it % 2 == 0; }

    /** Record every span from now on (the probes after the loop). */
    void probes() { recording_ = on_; }

    bool recording() const { return recording_; }

    /** Open a span; @return its index (or -1 when not recording). */
    long
    begin(const std::string &name, long parent, std::uint64_t id)
    {
        if (!recording_)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, parent, id, nowS() - t0_, 0.0});
        return long(spans_.size() - 1);
    }

    void
    end(long span)
    {
        if (span < 0)
            return;
        const double t = nowS() - t0_;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[std::size_t(span)].end = t;
    }

    std::string
    json() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += i ? ",[" : "[";
            out += quoted(s.name);
            for (const std::string &field :
                 {std::to_string(s.id), std::to_string(s.parent),
                  num(s.start), num(s.end)}) {
                out += ',';
                out += field;
            }
            out += ']';
        }
        return out + "]";
    }

  private:
    struct Span
    {
        std::string name;
        long parent;
        std::uint64_t id;
        double start;
        double end;
    };

    bool on_;
    std::atomic<bool> recording_{false};
    double t0_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span. */
class SpanGuard
{
  public:
    SpanGuard(Tracer &tracer, const std::string &name, long parent = -1,
              std::uint64_t id = 0)
        : tracer_(tracer), span_(tracer.begin(name, parent, id))
    {}
    ~SpanGuard() { tracer_.end(span_); }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

    long id() const { return span_; }

  private:
    Tracer &tracer_;
    long span_;
};

/** Operations and output checks, counted toward failed/attempted. */
class Ledger
{
  public:
    void
    check(bool ok, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failures_.size() < 20)
                failures_.push_back(what);
        }
    }

    /** A completed operation (its failure is an exception). */
    void op() { check(true, ""); }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    std::string
    failuresJson() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < failures_.size(); ++i) {
            out += i ? "," : "";
            out += quoted(failures_[i]);
        }
        return out + "]";
    }

  private:
    std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Named sample series and scalar values for the raw output. */
class Raw
{
  public:
    void
    add(const std::string &series, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        series_[series].push_back(v);
    }

    void
    set(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        values_[name] = v;
    }

    void
    text(const std::string &name, const std::string &v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        texts_[name] = v;
    }

    std::string
    json() const
    {
        std::string out;
        const auto section = [&](const char *name, const auto &map,
                                 const auto &render) {
            out += out.empty() ? "\"" : ",\"";
            out += name;
            out += "\":{";
            bool first = true;
            for (const auto &[key, v] : map) {
                out += first ? "\"" : ",\"";
                out += key;
                out += "\":";
                out += render(v);
                first = false;
            }
            out += "}";
        };
        section("series", series_, [](const std::vector<double> &vs) {
            std::string a = "[";
            for (std::size_t i = 0; i < vs.size(); ++i) {
                a += i ? "," : "";
                a += num(vs[i]);
            }
            return a + "]";
        });
        section("values", values_, [](double v) { return num(v); });
        section("texts", texts_, quoted);
        return out;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, std::vector<double>> series_;
    std::map<std::string, double> values_;
    std::map<std::string, std::string> texts_;
};

/**
 * Latency of one fresh operation. In the traced run it is also filed
 * under the half (spans recorded or not) it ran in.
 */
void
addFresh(Raw &raw, const Tracer &tr, double ms)
{
    raw.add("fresh_ms", ms);
    if (tr.on())
        raw.add(tr.recording() ? "fresh_ms_traced" : "fresh_ms_untraced",
                ms);
}

// ---------------------------------------------------------------------
// SMARTS reference (perfbench/smarts_ref.tsv).

/**
 * SMARTS CPI by the content cache key of the SMARTS cell. That key
 * covers the code version, the whole config and schedule, and the
 * workload's identity (a file's full content), so a row can only
 * match the cell it was simulated for.
 */
using Reference = std::map<std::string, double>;

/** @p manifest_text with every cell's method replaced by SMARTS. */
BatchPlan
smartsPlan(const std::string &manifest_text)
{
    return BatchPlan::fromManifestText(manifest_text + "methods smarts\n",
                                       "smarts");
}

Reference
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read SMARTS reference " + path);
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string key, label, config;
        double cpi = 0.0;
        if (!(is >> key >> label >> config >> cpi))
            throw std::runtime_error("malformed reference row: " + line);
        ref[key] = cpi;
    }
    return ref;
}

/**
 * Matches the cells of @p plan (expanded from @p manifest_text) to
 * reference rows once, and afterwards turns results into CPI errors.
 * A cell whose SMARTS twin has no row is a failed check and gets no
 * error figure: a stale reference is never silently reused.
 */
class Accuracy
{
  public:
    Accuracy(const Reference &ref, const std::string &manifest_text,
             const BatchPlan &plan, Ledger &ledger)
    {
        const BatchPlan smarts = smartsPlan(manifest_text);
        if (smarts.cells().size() != plan.cells().size())
            throw std::runtime_error("SMARTS plan does not mirror the plan");
        for (std::size_t i = 0; i < plan.cells().size(); ++i) {
            const BatchCell &cell = plan.cells()[i];
            const BatchCell &twin = smarts.cells()[i];
            if (twin.workload != cell.workload ||
                twin.config_name != cell.config_name)
                throw std::runtime_error("SMARTS plan order differs");
            const auto it = ref.find(twin.key.hex());
            ledger.check(it != ref.end(),
                         "SMARTS reference has no row for " + cell.workload +
                             " " + cell.config_name + " (key " +
                             twin.key.hex() +
                             "; regenerate: run.py smarts-ref)");
            if (it != ref.end())
                smarts_[cell.key.hex()] = it->second;
        }
    }

    /** Absolute CPI error in percent, or nullopt without a reference. */
    std::optional<double>
    errorPct(const BatchCell &cell, const MethodResult &r) const
    {
        const auto it = smarts_.find(cell.key.hex());
        if (it == smarts_.end())
            return std::nullopt;
        return std::fabs(r.cpi() - it->second) / it->second * 100.0;
    }

  private:
    std::map<std::string, double> smarts_;
};

void
reportAccuracy(Raw &raw, const std::vector<double> &errors)
{
    if (errors.empty())
        return;
    double sum = 0.0, max = 0.0;
    for (const double e : errors) {
        sum += e;
        max = std::max(max, e);
    }
    raw.set("cpi_err_mean_pct", sum / double(errors.size()));
    raw.set("cpi_err_max_pct", max);
}

// ---------------------------------------------------------------------
// Shared measurement helpers.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string ref;
    std::string service;
    std::string out;
    std::string make_ref;
};

/** Median of a few set-up repetitions is what run.py reports. */
constexpr unsigned setup_repeats = 3;
/** dse_sweep's set-up takes microseconds: repeat it more often. */
constexpr unsigned dse_setup_repeats = 101;

std::string
manifest(const std::vector<std::string> &workloads,
         const std::vector<std::pair<std::string, std::uint64_t>> &llcs,
         unsigned regions)
{
    std::string text;
    for (const auto &w : workloads)
        text += "workload " + w + "\n";
    for (const auto &[name, bytes] : llcs)
        text += "config " + name + " llc=" + std::to_string(bytes >> 10) +
                "KiB\n";
    text += "schedule s5 spacing=" + std::to_string(spacing) +
            " regions=" + std::to_string(regions) + "\n";
    return text;
}

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.nextBounded(i)]);
}

std::vector<const BatchCell *>
cellPtrs(const BatchPlan &plan)
{
    std::vector<const BatchCell *> out;
    for (const auto &c : plan.cells())
        out.push_back(&c);
    return out;
}

InstCount
scheduleInsts(const BatchPlan &plan)
{
    InstCount n = 0;
    for (const auto &c : plan.cells())
        n += c.config.schedule.totalInstructions();
    return n;
}

/**
 * Per-layer counters of one set of freshly simulated results: the
 * five phase timers (seconds) and the profiling/core event counts.
 * Accumulated over every fresh operation; run.py divides by the
 * operation count.
 */
struct CoreTotals
{
    profiling::PhaseTimings phases;
    Counter traps = 0, false_positives = 0, reuse_samples = 0;
    Counter keys_explored = 0, keys_unresolved = 0;
    std::uint64_t ops = 0;

    void
    add(const MethodResult &r)
    {
        phases.merge(r.cost.measured());
        traps += r.traps;
        false_positives += r.false_positives;
        reuse_samples += r.reuse_samples;
        keys_explored += r.keys_explored;
        keys_unresolved += r.keys_unresolved;
    }

    void
    publish(Raw &raw) const
    {
        if (ops == 0)
            return;
        const double per = 1.0 / double(ops);
        using profiling::HotPhase;
        const std::pair<const char *, HotPhase> names[] = {
            {"core.scout_s", HotPhase::Scout},
            {"core.explorer_replay_s", HotPhase::ExplorerReplay},
            {"core.vicinity_s", HotPhase::Vicinity},
            {"core.statstack_solve_s", HotPhase::StatStackSolve},
            {"core.analyze_s", HotPhase::Analyze}};
        for (const auto &[name, phase] : names)
            raw.set(name, phases.ns[std::size_t(phase)] * 1e-9 * per);
        raw.set("core.explorer_replay_minsts_per_s",
                phases.itemsPerSecond(HotPhase::ExplorerReplay) * 1e-6);
        raw.set("core.phases_s", phases.totalNs() * 1e-9 * per);
        raw.set("profiling.traps", double(traps) * per);
        raw.set("profiling.false_positive_share",
                traps ? double(false_positives) / double(traps) : 0.0);
        raw.set("profiling.reuse_samples", double(reuse_samples) * per);
        raw.set("core.keys_explored", double(keys_explored) * per);
        raw.set("core.keys_unresolved_share",
                keys_explored ? double(keys_unresolved) /
                                    double(keys_explored)
                              : 0.0);
    }
};

/** Time memLines over @p insts instructions of @p spec; Minsts/s. */
double
decodeRate(Tracer &tr, const std::string &spec, InstCount insts)
{
    auto trace = workload::makeTrace(spec);
    std::vector<Addr> lines(1u << 16);
    SpanGuard span(tr, "workload.memLines");
    const double t0 = nowS();
    for (InstCount done = 0; done < insts;) {
        const InstCount n = std::min<InstCount>(lines.size(), insts - done);
        trace->memLines(lines.data(), n);
        done += n;
    }
    return double(insts) / (nowS() - t0) * 1e-6;
}

/** Time ResultCache::store and ::load of @p results into a probe dir. */
void
cacheProbe(Tracer &tr, Raw &raw, Ledger &ledger, const BatchPlan &plan,
           const std::vector<MethodResult> &results)
{
    fs::remove_all("probe-cache");
    batch::ResultCache cache("probe-cache");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &key = plan.cells()[i].key;
        double t0 = nowS();
        {
            SpanGuard span(tr, "batch.cache_store");
            cache.store(key, results[i]);
        }
        raw.add("cache_store_ms", (nowS() - t0) * 1e3);
        t0 = nowS();
        std::optional<MethodResult> back;
        {
            SpanGuard span(tr, "batch.cache_load");
            back = cache.load(key);
        }
        raw.add("cache_load_ms", (nowS() - t0) * 1e3);
        ledger.check(back && *back == results[i],
                     "cache probe read-back differs");
    }
    fs::remove_all("probe-cache");
}

/**
 * The recorded_trace and service_mix input. The content is fixed (the
 * seed does not reach it) so its CPI error against the committed
 * SMARTS reference repeats exactly.
 */
void
recordProfileTrace(const std::string &path)
{
    workload::SyntheticTrace source(workload::specProfile(recorded_profile));
    workload::recordTrace(source, recorded_insts, path);
}

// ---------------------------------------------------------------------
// dse_sweep

void
runDseSweep(const Options &opt, Tracer &tr, Ledger &ledger, Raw &raw)
{
    // The seed orders the configs within each unit. The units keep the
    // order of dse_profiles: which units overlap on the two threads
    // sets the sweep's length and peak memory.
    Rng rng(opt.seed);
    std::vector<std::string> workloads;
    for (const auto &p : dse_profiles)
        workloads.push_back("spec:" + p);
    auto llcs = dse_llcs;
    shuffle(llcs, rng);
    const std::string text = manifest(workloads, llcs, dse_regions);

    // Set-up: expand the plan and match its cells to the reference.
    std::optional<BatchPlan> plan;
    std::optional<Accuracy> accuracy;
    for (unsigned rep = 0; rep < dse_setup_repeats; ++rep) {
        Ledger setup_ledger;
        const double t0 = nowS();
        plan.emplace(BatchPlan::fromManifestText(text, "dse_sweep"));
        raw.add("plan_ms", (nowS() - t0) * 1e3);
        accuracy.emplace(loadReference(opt.ref), text, *plan,
                         rep + 1 == dse_setup_repeats ? ledger
                                                      : setup_ledger);
        raw.add("setup_s", nowS() - t0);
    }
    const auto cells = cellPtrs(*plan);
    const InstCount insts = scheduleInsts(*plan);

    batch::BatchOptions bo;
    bo.threads = runner_threads;
    bo.use_cache = false;
    CoreTotals core;
    std::vector<MethodResult> first;
    double sweep_total_s = 0.0;
    const double t_start = nowS();
    for (std::uint64_t it = 0; it == 0 || nowS() - t_start < opt.seconds;
         ++it) {
        tr.iteration(it);
        std::vector<MethodResult> results(cells.size());
        const double t0 = nowS();
        {
            SpanGuard sweep(tr, "batch.run", -1, it);
            const auto report = BatchRunner::run(*plan, bo);
            for (const auto &o : report.outcomes)
                results[o.cell] = o.result;
        }
        const double secs = nowS() - t0;
        sweep_total_s += secs;
        addFresh(raw, tr, secs * 1e3);
        raw.add("fresh_minsts_per_s", double(insts) / secs * 1e-6);
        ledger.op();
        for (const auto &r : results)
            core.add(r);
        ++core.ops;

        if (first.empty())
            first = results;
        else
            ledger.check(results == first,
                         "sweep results differ between iterations");
    }
    raw.set("peak_rss_mb", peakRssMb(0));
    core.publish(raw);
    // Coverage: the phases' share of the runner's thread time.
    raw.set("core.coverage_span_s",
            sweep_total_s * runner_threads / double(core.ops));
    tr.probes();

    std::vector<double> errors;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (auto e = accuracy->errorPct(*cells[i], first[i]))
            errors.push_back(*e);
    reportAccuracy(raw, errors);

    raw.text("sim_stats_digest", cellOrderDigest(cells, first));

    if (tr.on()) {
        for (const auto &w : workloads)
            raw.add("synth_decode_minsts_per_s",
                    decodeRate(tr, w, spacing));
    }
}

// ---------------------------------------------------------------------
// recorded_trace

void
runRecordedTrace(const Options &opt, Tracer &tr, Ledger &ledger, Raw &raw)
{
    Rng rng(opt.seed);
    auto llcs = recorded_llcs;
    shuffle(llcs, rng);
    const std::string spec = "file:" + recorded_file;
    const std::string text = manifest({spec}, llcs, recorded_regions);

    // Set-up: record the trace and match its cells to the reference
    // (expanding the plans digests the file).
    std::optional<Accuracy> accuracy;
    for (unsigned rep = 0; rep < setup_repeats; ++rep) {
        Ledger setup_ledger;
        const double t0 = nowS();
        recordProfileTrace(recorded_file);
        accuracy.emplace(loadReference(opt.ref), text,
                         BatchPlan::fromManifestText(text, "recorded"),
                         rep + 1 == setup_repeats ? ledger : setup_ledger);
        raw.add("setup_s", nowS() - t0);
    }
    const double trace_bytes = double(fs::file_size(recorded_file));
    raw.set("trace_bytes", trace_bytes);

    CoreTotals core;
    std::vector<MethodResult> first;
    std::vector<const BatchCell *> first_cells;
    std::optional<BatchPlan> first_plan;
    double cold_total_s = 0.0;
    const double t_start = nowS();
    for (std::uint64_t it = 0; it == 0 || nowS() - t_start < opt.seconds;
         ++it) {
        tr.iteration(it);
        const std::string cache_dir = "rt-cache-" + std::to_string(it);
        fs::remove_all(cache_dir);
        batch::BatchOptions bo;
        bo.threads = runner_threads;
        bo.cache_dir = cache_dir;

        // Cold: plan (digests the file) + run into a fresh cache.
        const std::uint64_t r0 = rchar(0);
        double t0 = nowS();
        std::optional<BatchPlan> plan;
        batch::BatchReport cold;
        {
            SpanGuard iter(tr, "recorded.cold", -1, it);
            {
                SpanGuard span(tr, "batch.plan", iter.id(), it);
                const double p0 = nowS();
                plan.emplace(BatchPlan::fromManifestText(text, "recorded"));
                raw.add("plan_ms", (nowS() - p0) * 1e3);
            }
            SpanGuard span(tr, "batch.run", iter.id(), it);
            cold = BatchRunner::run(*plan, bo);
        }
        const double cold_s = nowS() - t0;
        cold_total_s += cold_s;
        const std::uint64_t r1 = rchar(0);
        addFresh(raw, tr, cold_s * 1e3);
        raw.add("rchar_cold", double(r1 - r0));
        ledger.op();
        ledger.check(cold.executed == plan->cells().size(),
                     "cold run served cells from a fresh cache");

        // Fully cached re-run: a new plan over the same cache.
        t0 = nowS();
        batch::BatchReport cached;
        {
            SpanGuard iter(tr, "recorded.cached", -1, it);
            std::optional<BatchPlan> plan2;
            {
                SpanGuard span(tr, "batch.plan", iter.id(), it);
                plan2.emplace(BatchPlan::fromManifestText(text, "recorded"));
            }
            SpanGuard span(tr, "batch.run", iter.id(), it);
            cached = BatchRunner::run(*plan2, bo);
        }
        raw.add("cached_ms", (nowS() - t0) * 1e3);
        raw.add("rchar_cached", double(rchar(0) - r1));
        ledger.op();

        std::vector<MethodResult> results;
        for (const auto &o : cold.outcomes) {
            results.push_back(o.result);
            core.add(o.result);
        }
        ++core.ops;
        raw.add("fresh_minsts_per_s",
                double(scheduleInsts(*plan)) / cold_s * 1e-6);

        // Output checks: the cached entry bytes are the cold run's
        // serialized result, and the cached run returns them.
        batch::ResultCache cache(cache_dir);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto bytes = cache.loadBytes(plan->cells()[i].key);
            ledger.check(bytes && *bytes == serialize(results[i]),
                         "cached bytes differ from the cold result");
            ledger.check(cached.outcomes[i].from_cache &&
                             cached.outcomes[i].result == results[i],
                         "cached re-run differs from the cold run");
        }
        if (first.empty()) {
            first = results;
            first_plan.emplace(*plan);
            first_cells = cellPtrs(*first_plan);
        } else {
            ledger.check(results == first,
                         "cold results differ between iterations");
        }
        fs::remove_all(cache_dir);
    }
    raw.set("peak_rss_mb", peakRssMb(0));
    core.publish(raw);
    raw.set("core.coverage_span_s", cold_total_s / double(core.ops));
    tr.probes();

    std::vector<double> errors;
    for (std::size_t i = 0; i < first_cells.size(); ++i)
        if (auto e = accuracy->errorPct(*first_cells[i], first[i]))
            errors.push_back(*e);
    reportAccuracy(raw, errors);

    raw.text("sim_stats_digest", cellOrderDigest(first_cells, first));

    if (tr.on()) {
        raw.add("file_decode_minsts_per_s",
                decodeRate(tr, spec, recorded_insts));
        for (int k = 0; k < 3; ++k) {
            SpanGuard span(tr, "batch.workloadIdentity");
            const double t0 = nowS();
            (void)batch::workloadIdentity(spec);
            raw.add("digest_mb_per_s", trace_bytes / (nowS() - t0) * 1e-6);
        }
        cacheProbe(tr, raw, ledger, *first_plan, first);
    }
    fs::remove(recorded_file);
}

// ---------------------------------------------------------------------
// service_mix

/** A `batch_service serve` child process; killed if still running. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket,
           const std::string &cache_dir)
        : socket_(socket)
    {
        const std::vector<std::string> args = {
            binary,      "serve",     "--socket", socket, "--cache-dir",
            cache_dir,   "--threads", "2",        "--quiet"};
        std::vector<char *> argv;
        for (const auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, "daemon.log",
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot start " + binary + ": " +
                                     std::strerror(rc));
        const double t0 = nowS();
        while (!service::ServiceClient::ping(socket_)) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("daemon exited at start-up "
                                         "(see daemon.log)");
            }
            if (nowS() - t0 > 30.0)
                throw std::runtime_error("daemon did not come up");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** Orderly SHUTDOWN; @return true if it exited cleanly in time. */
    bool
    stop()
    {
        service::ServiceClient(socket_).shutdown();
        const double t0 = nowS();
        while (nowS() - t0 < 60.0) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return WIFEXITED(status) && WEXITSTATUS(status) == 0;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** One 3-config job over one profile with seeded LLC geometries. */
struct JobSpec
{
    std::string manifest;
    BatchPlan plan; //!< local expansion: the keys to fetch
};

/** Every valid LLC geometry from 512 KiB to 32 MiB with 2..32 ways. */
std::vector<std::pair<std::uint64_t, unsigned>>
llcGeometries()
{
    std::vector<std::pair<std::uint64_t, unsigned>> out;
    for (unsigned assoc = 2; assoc <= 32; ++assoc)
        for (std::uint64_t sets = 1; sets <= (1u << 20); sets <<= 1) {
            const std::uint64_t size = sets * assoc * 64;
            if (size >= (512ull << 10) && size <= (32ull << 20))
                out.push_back({size, assoc});
        }
    return out;
}

/**
 * The fresh jobs of one run: job n sweeps the service profile over
 * three geometries of a seeded shuffle, so no cell repeats within a
 * run and job n's content depends only on the seed. Once every
 * geometry is used, the next pass sets the configs' window seed,
 * which keeps the cells fresh at the same cost.
 */
class JobGenerator
{
  public:
    explicit JobGenerator(std::uint64_t seed) : geometries_(llcGeometries())
    {
        Rng rng(seed ^ 0x5eed5e7713ull);
        shuffle(geometries_, rng);
    }

    JobSpec
    make(std::uint64_t n) const
    {
        const auto &g = geometries_;
        const std::uint64_t per_pass = g.size() / 3;
        const std::size_t base = std::size_t(n % per_pass) * 3;
        const std::uint64_t pass = n / per_pass;
        std::string text = "workload spec:" + service_profile + "\n";
        for (std::size_t k = 0; k < 3; ++k)
            text += "config g" + std::to_string(k) + " llc=" +
                    std::to_string(g[base + k].first >> 10) + "KiB assoc=" +
                    std::to_string(g[base + k].second) +
                    (pass ? " seed=" + std::to_string(pass) : "") + "\n";
        text += "schedule s5 spacing=" + std::to_string(spacing) +
                " regions=" + std::to_string(recorded_regions) + "\n";
        BatchPlan plan = BatchPlan::fromManifestText(text, "job");
        return {std::move(text), std::move(plan)};
    }

  private:
    std::vector<std::pair<std::uint64_t, unsigned>> geometries_;
};

struct ServiceRun
{
    ServiceRun(const Options &o, Tracer &t, Ledger &l, Raw &r, pid_t pid,
               double bytes)
        : opt(o), tr(t), ledger(l), raw(r), daemon(pid), trace_bytes(bytes),
          jobs(o.seed)
    {}

    const Options &opt;
    Tracer &tr;
    Ledger &ledger;
    Raw &raw;
    std::string socket = "svc.sock";
    pid_t daemon = -1;
    double deadline = 0.0;
    std::atomic<bool> stop{false};
    double trace_bytes = 0.0;
    JobGenerator jobs;

    std::mutex mutex;
    double last_done = 0.0;
    double sim_insts = 0.0;
    double polls = 0.0, requests = 0.0;
    std::map<std::uint64_t, std::vector<MethodResult>> fresh_results;
    std::vector<std::string> stream_bytes;
    /** Finished fresh jobs by number, with their first RESULT bytes. */
    std::map<std::uint64_t, std::pair<JobSpec, std::vector<std::string>>>
        done_jobs;
    CoreTotals core;

    void
    finished(double insts)
    {
        std::lock_guard<std::mutex> lock(mutex);
        last_done = std::max(last_done, nowS());
        sim_insts += insts;
    }
};

/** SUBMIT -> poll until done -> RESULT of every cell; @return bytes. */
std::vector<std::string>
runJob(ServiceRun &run, service::ServiceClient &client, const JobSpec &job,
       bool fresh, std::uint64_t id)
{
    const char *kind = fresh ? "service.job" : "service.job.cached";
    SpanGuard span(run.tr, kind, -1, id);
    const double t0 = nowS();
    double s0 = nowS();
    std::uint64_t job_id = 0;
    {
        SpanGuard sub(run.tr, "service.submit", span.id(), id);
        job_id = client.submit(job.manifest).job;
    }
    run.raw.add("submit_ms", (nowS() - s0) * 1e3);
    unsigned polls = 0;
    service::JobStatus status;
    for (unsigned wait_us = 100;; wait_us = std::min(wait_us * 2, 8000u)) {
        {
            SpanGuard poll(run.tr, "service.status", span.id(), id);
            status = client.jobStatus(job_id);
        }
        ++polls;
        if (status.complete())
            break;
        std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
    }
    std::vector<std::string> bytes;
    s0 = nowS();
    {
        SpanGuard res(run.tr, "service.result", span.id(), id);
        for (const auto &cell : job.plan.cells())
            bytes.push_back(client.resultBytes(cell.key));
    }
    const double now = nowS();
    run.raw.add("result_ms", (now - s0) * 1e3);
    if (fresh)
        addFresh(run.raw, run.tr, (now - t0) * 1e3);
    else
        run.raw.add("cached_ms", (now - t0) * 1e3);
    run.ledger.op();
    run.ledger.check(status.failed == 0,
                     "service job failed: " + status.first_error);
    {
        std::lock_guard<std::mutex> lock(run.mutex);
        run.polls += polls;
        run.requests += 1;
    }
    if (fresh) {
        std::vector<MethodResult> results;
        double compute = 0.0;
        for (const auto &b : bytes) {
            std::istringstream is(b);
            results.push_back(batch::readMethodResult(is));
            compute += phaseSeconds(results.back());
        }
        run.raw.add("job_compute_s", compute);
        std::lock_guard<std::mutex> lock(run.mutex);
        for (const auto &r : results)
            run.core.add(r);
        ++run.core.ops;
        run.fresh_results[id] = std::move(results);
    }
    run.finished(fresh ? double(scheduleInsts(job.plan)) : 0.0);
    return bytes;
}

/** TRACE-STREAM open, seeded-cut APPENDs, CLOSE, RESULT. */
void
runStream(ServiceRun &run, service::ServiceClient &client, Rng &rng,
          std::uint64_t id)
{
    const std::string directives =
        manifest({}, {recorded_llcs.front()}, recorded_regions);
    SpanGuard span(run.tr, "service.stream", -1, id);
    const std::uint64_t r0 = rchar(run.daemon);
    double t0 = nowS();
    std::uint64_t stream = 0;
    {
        SpanGuard s(run.tr, "service.stream_open", span.id(), id);
        stream = client.streamOpen(directives);
    }
    run.raw.add("stream_open_ms", (nowS() - t0) * 1e3);

    std::ifstream in(recorded_file, std::ios::binary);
    const auto size = std::uint64_t(run.trace_bytes);
    std::string chunk;
    double append_s = 0.0;
    // A seeded first cut, then 4 MiB chunks: the cuts land mid-record
    // and the largest APPEND (which bounds daemon memory) stays fixed.
    std::uint64_t len = 1 + rng.nextBounded(stream_chunk_bytes);
    for (std::uint64_t pos = 0; pos < size;
         pos += len, len = stream_chunk_bytes) {
        len = std::min(size - pos, len);
        chunk.resize(len);
        in.read(chunk.data(), std::streamsize(len));
        t0 = nowS();
        {
            SpanGuard s(run.tr, "service.stream_append", span.id(), id);
            client.streamAppend(stream, chunk);
        }
        const double dt = nowS() - t0;
        append_s += dt;
        run.raw.add("stream_append_ms", dt * 1e3);
        run.ledger.op();
    }
    run.raw.add("stream_append_mb_per_s", run.trace_bytes / append_s * 1e-6);

    t0 = nowS();
    service::ServiceClient::StreamCloseInfo closed;
    {
        SpanGuard s(run.tr, "service.stream_close", span.id(), id);
        closed = client.streamClose(stream);
    }
    run.raw.add("stream_close_ms", (nowS() - t0) * 1e3);
    run.raw.add("rchar_stream", double(rchar(run.daemon) - r0));
    std::string bytes;
    {
        SpanGuard s(run.tr, "service.result", span.id(), id);
        bytes = client.resultBytes(closed.key);
    }
    run.ledger.op();
    std::istringstream is(bytes);
    const MethodResult result = batch::readMethodResult(is);
    std::lock_guard<std::mutex> lock(run.mutex);
    run.stream_bytes.push_back(bytes);
    run.core.add(result);
    ++run.core.ops;
    run.sim_insts += double(recorded_insts);
    run.last_done = std::max(run.last_done, nowS());
}

/**
 * One closed-loop client. Each round starts with both clients at a
 * barrier, so their fresh jobs are on the daemon at the same time.
 * A client SUBMITs its fresh job, waits until it is done and fetches
 * its RESULTs, then re-submits one earlier job (a cache hit). Then
 * one client per round, in turn, streams the recorded trace while
 * the other waits for the next round.
 */
void
serviceClient(ServiceRun &run, std::barrier<std::function<void()>> &sync,
              unsigned c)
{
    service::ServiceClient client(run.socket);
    Rng rng(run.opt.seed * 31 + c + 1);
    for (std::uint64_t round = 0;; ++round) {
        sync.arrive_and_wait();
        if (run.stop)
            break;
        const std::uint64_t n = round * service_clients + c;
        JobSpec job = run.jobs.make(n);
        auto bytes = runJob(run, client, job, true, n);

        // The earlier job: one of an earlier round, or this one. Those
        // are all done, so the pick depends only on the seed.
        const std::uint64_t k = rng.nextBounded(round * service_clients + 1);
        const auto earlier = [&] {
            std::lock_guard<std::mutex> lock(run.mutex);
            run.done_jobs.emplace(n, std::make_pair(std::move(job),
                                                    std::move(bytes)));
            return run.done_jobs.at(k < round * service_clients ? k : n);
        }();
        const auto again = runJob(run, client, earlier.first, false,
                                  (1ull << 32) + n);
        run.ledger.check(again == earlier.second,
                         "cached job RESULT differs from its first fetch");

        if (round % service_clients == c)
            runStream(run, client, rng, round);
    }
}

void
runServiceMix(const Options &opt, Tracer &tr, Ledger &ledger, Raw &raw)
{
    // Set-up: record the trace and bring a daemon up, three times; the
    // last daemon serves the run.
    std::unique_ptr<Daemon> daemon;
    for (unsigned rep = 0; rep < setup_repeats; ++rep) {
        if (daemon)
            ledger.check(daemon->stop(), "daemon did not shut down");
        fs::remove_all("svc-cache");
        fs::remove("svc.sock");
        const double t0 = nowS();
        recordProfileTrace(recorded_file);
        daemon = std::make_unique<Daemon>(opt.service, "svc.sock",
                                          "svc-cache");
        raw.add("setup_s", nowS() - t0);
    }

    ServiceRun run(opt, tr, ledger, raw, daemon->pid(),
                   double(fs::file_size(recorded_file)));
    const double cpu0 = cpuSeconds(run.daemon);
    const double t_start = nowS();
    run.deadline = t_start + opt.seconds;
    // Stop at the first round boundary past the deadline, once one
    // whole round has run. A traced run records spans in even rounds.
    std::uint64_t rounds = 0;
    std::barrier<std::function<void()>> sync(service_clients, [&] {
        const std::uint64_t round = rounds++;
        if (round > 0 && nowS() >= run.deadline)
            run.stop = true;
        else
            tr.iteration(round);
    });
    std::vector<std::thread> clients;
    std::vector<std::exception_ptr> errors(service_clients);
    for (unsigned c = 0; c < service_clients; ++c)
        clients.emplace_back([&, c] {
            try {
                serviceClient(run, sync, c);
            } catch (...) {
                errors[c] = std::current_exception();
                // Let the other client leave the barrier loop.
                run.stop = true;
                sync.arrive_and_drop();
            }
        });
    for (auto &t : clients)
        t.join();
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);

    const double wall = run.last_done - t_start;
    raw.set("sim_minsts_per_s", run.sim_insts / wall * 1e-6);
    const double cpu = cpuSeconds(run.daemon) - cpu0;
    raw.set("service.daemon_cpu_s", cpu);
    raw.set("trace_bytes", run.trace_bytes);
    // Coverage on the daemon: phase time over daemon CPU time.
    raw.set("core.coverage_span_s", cpu / double(run.core.ops));
    raw.set("service.status_polls_per_job", run.polls / run.requests);
    raw.set("peak_rss_mb", peakRssMb(run.daemon));
    tr.probes();
    {
        service::ServiceClient client(run.socket);
        const double t0 = nowS();
        service::ServiceStats stats;
        {
            SpanGuard span(tr, "service.stats");
            stats = client.stats();
        }
        raw.add("stats_ms", (nowS() - t0) * 1e3);
        const double cells = double(stats.cells_cached + stats.cells_executed);
        raw.set("service.cache_hit_share",
                cells ? double(stats.cells_cached) / cells : 0.0);
        raw.set("service.cells_deduped", double(stats.cells_deduped));
    }
    ledger.check(daemon->stop(), "daemon did not shut down cleanly");
    run.core.publish(raw);

    // Output checks after the clock stops: every streamed result equals
    // the offline run of the same trace and plan, under the same key.
    const std::string offline_text = manifest(
        {"file:" + recorded_file}, {recorded_llcs.front()}, recorded_regions);
    const BatchPlan offline =
        BatchPlan::fromManifestText(offline_text, "offline");
    const MethodResult reference = BatchRunner::runCell(offline.cells()[0]);
    for (const auto &bytes : run.stream_bytes) {
        std::istringstream is(bytes);
        ledger.check(batch::readMethodResult(is) == reference,
                     "stream CLOSE result differs from the offline run");
    }

    const Accuracy accuracy(loadReference(opt.ref), offline_text, offline,
                            ledger);
    std::vector<double> errors_pct;
    if (auto e = accuracy.errorPct(offline.cells()[0], reference))
        errors_pct.push_back(*e);
    reportAccuracy(raw, errors_pct);

    // Digest: the stream result plus the first four fresh jobs, whose
    // content depends only on the seed.
    std::vector<MethodResult> digest{reference};
    for (const auto &[id, results] : run.fresh_results)
        if (id < 4)
            digest.insert(digest.end(), results.begin(), results.end());
    raw.text("sim_stats_digest", statsDigest(digest));
    fs::remove_all("svc-cache");
    fs::remove(recorded_file);
}

// ---------------------------------------------------------------------
// SMARTS reference generation.

/** Append a SMARTS row for every cell of @p text (methods replaced). */
void
referenceRows(std::ostream &os, const std::string &text)
{
    const BatchPlan plan = smartsPlan(text);
    batch::BatchOptions bo;
    bo.threads = runner_threads;
    bo.use_cache = false;
    const auto report = BatchRunner::run(plan, bo);
    for (const auto &o : report.outcomes) {
        const BatchCell &cell = plan.cells()[o.cell];
        os << cell.key.hex() << '\t' << cell.workload << '\t'
           << cell.config_name << '\t' << num(o.result.cpi()) << '\n';
    }
}

void
makeReference(const std::string &path)
{
    std::ostringstream os;
    os << "# SMARTS reference CPIs for the perfbench cells; regenerate "
          "with\n# `python3 perfbench/run.py smarts-ref`. A row is found "
          "by the SMARTS\n# cell's content cache key.\n"
          "# smarts_key\tworkload\tconfig\tsmarts_cpi\n";
    std::vector<std::string> workloads;
    for (const auto &p : dse_profiles)
        workloads.push_back("spec:" + p);
    referenceRows(os, manifest(workloads, dse_llcs, dse_regions));

    recordProfileTrace(recorded_file);
    referenceRows(os, manifest({"file:" + recorded_file}, recorded_llcs,
                               recorded_regions));
    fs::remove(recorded_file);

    std::ofstream out(path);
    out << os.str();
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N "
                 "--seconds S --trace 0|1\n"
                 "                        --ref TSV --service BIN "
                 "--out JSON\n"
                 "       perfbench_driver --make-ref TSV\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (arg == "--workload")
            opt.workload = v;
        else if (arg == "--seed")
            opt.seed = batch::parseCount(v);
        else if (arg == "--seconds")
            opt.seconds = batch::parseReal(v);
        else if (arg == "--trace")
            opt.trace = batch::parseCount(v) != 0;
        else if (arg == "--ref")
            opt.ref = v;
        else if (arg == "--service")
            opt.service = v;
        else if (arg == "--out")
            opt.out = v;
        else if (arg == "--make-ref")
            opt.make_ref = v;
        else
            usage();
    }
    return opt;
}

std::string
hostJson()
{
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    return std::string("\"host\":{\"compiler\":\"") +
           jsonEscape(__VERSION__) + "\",\"build_type\":\"" +
           jsonEscape(PERFBENCH_BUILD_TYPE) + "\",\"flags\":\"" +
           jsonEscape(PERFBENCH_BUILD_FLAGS) + "\",\"ndebug\":" +
           (ndebug ? "true" : "false") + ",\"simd\":\"" +
           simd::backendName() + "\",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build with "
                         "assertions on (NDEBUG unset)\n");
    return 2;
#endif
    try {
        if (!opt.make_ref.empty()) {
            makeReference(opt.make_ref);
            return 0;
        }
        if (opt.out.empty() || opt.ref.empty())
            usage();
        Tracer tr(opt.trace);
        Ledger ledger;
        Raw raw;
        if (opt.workload == "dse_sweep")
            runDseSweep(opt, tr, ledger, raw);
        else if (opt.workload == "recorded_trace")
            runRecordedTrace(opt, tr, ledger, raw);
        else if (opt.workload == "service_mix")
            runServiceMix(opt, tr, ledger, raw);
        else
            usage();

        std::ofstream out(opt.out);
        out << "{" << hostJson() << "," << raw.json()
            << ",\"attempted\":" << ledger.attempted()
            << ",\"failed\":" << ledger.failed()
            << ",\"failures\":" << ledger.failuresJson()
            << ",\"spans\":" << tr.json() << "}\n";
        if (!out.flush()) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.out.c_str());
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
