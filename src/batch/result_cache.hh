/**
 * @file
 * Persistent, content-addressed store of batch results.
 *
 * Layout: one file per result under the cache directory, named by the
 * cell's 32-hex-digit content key —
 *
 *   <dir>/<key>.res        serialized record (batch/result_io.hh)
 *   <dir>/stats.tsv        run counters (see RunStats)
 *
 * The directory defaults to ".delorean-cache" in the working directory
 * and can be overridden per call site or with the DELOREAN_CACHE_DIR
 * environment variable. Because keys are content hashes, the store
 * needs no index and no locking for correctness: concurrent writers of
 * the same key write identical bytes, and every store() goes through a
 * uniquely named temp file + atomic rename so readers never observe a
 * partial record. A corrupt or truncated entry (machine died
 * mid-write before the rename, disk fault) is reported as a miss and
 * overwritten by the next store.
 *
 * Invalidation is by *construction*: keys change whenever the inputs
 * change (including re-recorded file:/champsim: workload content and
 * batch_code_version bumps), so stale entries are never served — they
 * merely occupy disk until gc() removes everything a given plan no
 * longer references.
 *
 * RunStats counters are best-effort bookkeeping for `batch_run
 * status`, not a synchronization mechanism: concurrent shards may lose
 * increments. Result files themselves are always safe.
 */

#ifndef DELOREAN_BATCH_RESULT_CACHE_HH
#define DELOREAN_BATCH_RESULT_CACHE_HH

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "batch/cache_key.hh"
#include "batch/result_io.hh"

namespace delorean::batch
{

/**
 * ".tmp.<host>.<pid>.<serial>": a temp-file suffix no other writer
 * can share — hostname + pid disambiguate concurrent processes, also
 * on *different hosts* sharing one directory (where pids collide
 * freely), and the serial disambiguates threads within a process
 * writing the same path. Every write-then-rename publish uses it, so
 * two writers never share a temp inode.
 */
std::string uniqueTempSuffix();

class ResultCache
{
  public:
    /** Counters exposed by `batch_run status` (stored in stats.tsv). */
    struct RunStats
    {
        std::uint64_t last_run_executed = 0; //!< cells run, last run
        std::uint64_t last_run_cached = 0;   //!< cells served, last run
        std::uint64_t total_executed = 0;    //!< cells run, lifetime
        std::uint64_t total_cached = 0;      //!< cells served, lifetime

        bool operator==(const RunStats &other) const = default;
    };

    /**
     * Open (creating if needed) the cache at @p dir; an empty @p dir
     * selects defaultDir(). Throws BatchError if the directory cannot
     * be created.
     */
    explicit ResultCache(const std::string &dir = "");

    /** $DELOREAN_CACHE_DIR, or ".delorean-cache". */
    static std::string defaultDir();

    const std::string &dir() const { return dir_; }

    /** @return true if a (well- or ill-formed) entry exists for @p key. */
    bool contains(const CacheKey &key) const;

    /**
     * Load the MethodResult stored under @p key; nullopt on a missing
     * *or corrupt* entry (the latter also warn()s) — never throws for
     * bad cache contents.
     */
    std::optional<sampling::MethodResult> load(const CacheKey &key) const;

    /** Atomically store @p result under @p key (overwrites). */
    void store(const CacheKey &key,
               const sampling::MethodResult &result) const;

    /**
     * The raw serialized bytes of the MethodResult stored under
     * @p key, *validated by a full parse* before being returned —
     * what the batch service streams to RESULT clients. Because
     * serialization is deterministic and bitwise-exact, these bytes
     * equal writeMethodResult() of the original result; a corrupt
     * entry is a miss (warn()ed), exactly like load().
     */
    std::optional<std::string> loadBytes(const CacheKey &key) const;

    /** SizeCurve flavours of load/store (bench figure references). */
    std::optional<SizeCurve> loadCurve(const CacheKey &key) const;
    void storeCurve(const CacheKey &key, const SizeCurve &curve) const;

    /** Hex keys of every entry on disk (unordered). */
    std::vector<std::string> entries() const;

    /**
     * Delete every entry whose hex key is not in @p keep, plus any
     * orphaned temp files from writers that died before publishing.
     * Do not run concurrently with active stores (a live writer's
     * temp file is indistinguishable from an orphan).
     * @return the number of files removed.
     */
    std::size_t gc(const std::unordered_set<std::string> &keep) const;

    /** Fold one run's counts into stats.tsv (best effort). */
    void recordRun(std::uint64_t executed, std::uint64_t cached) const;

    /** Current counters (zeros if no run recorded yet). */
    RunStats stats() const;

  private:
    std::string entryPath(const CacheKey &key) const;
    void storeBytes(const CacheKey &key, const std::string &bytes) const;

    std::string dir_;
};

} // namespace delorean::batch

#endif // DELOREAN_BATCH_RESULT_CACHE_HH
