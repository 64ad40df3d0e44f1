/**
 * @file
 * ServiceClient: typed client side of the DLRNSRV1 protocol.
 *
 * One instance owns one connection to a running batch service and
 * turns the frame exchanges into typed calls. Server-side failures
 * (error replies) and transport failures both surface as ServiceError;
 * the CLI catches them and reports via fatal(), tests assert on them.
 *
 * Replies are structured `key=value` lines (the grammar is documented
 * in docs/service.md, "Reply grammar") and every accessor parses them
 * into a typed struct — status() → ServiceStatus, jobStatus() →
 * JobStatus, stats() → ServiceStats — so no caller outside the CLI's
 * display path ever string-matches raw reply text. The CLI renders
 * the raw text (statusText()/statsText()) because that text *is* the
 * human-readable format; everything programmatic goes through the
 * typed structs.
 *
 * A RESULT fetch parses the server's raw record bytes with the same
 * batch/result_io.hh reader the local cache uses, so the returned
 * MethodResult satisfies operator== against a direct BatchRunner run
 * of the same cell — the service adds transport, never drift.
 */

#ifndef DELOREAN_SERVICE_CLIENT_HH
#define DELOREAN_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "batch/cache_key.hh"
#include "sampling/results.hh"
#include "service/protocol.hh"
#include "service/queue.hh"

namespace delorean::service
{

/**
 * Fleet-coordinator counters, nested in ServiceStatus/ServiceStats
 * when the peer is a coordinator (detected by the units_ready= key,
 * which only coordinators emit). Single-host daemons leave it zeroed.
 */
struct FleetStats
{
    std::uint64_t cells_total = 0;
    std::uint64_t units_ready = 0;
    std::uint64_t units_leased = 0;
    std::uint64_t leases_granted = 0;
    std::uint64_t leases_renewed = 0; //!< STATS only
    std::uint64_t leases_expired = 0;
    std::uint64_t results_stored = 0;    //!< STATS only
    std::uint64_t results_discarded = 0; //!< STATS only
    std::uint64_t quota_rejections = 0;  //!< STATS only
    std::uint64_t streams = 0;           //!< fleet streams opened
    std::uint64_t stream_leases = 0;
    std::uint64_t stream_handoffs = 0; //!< STATS only
    std::uint64_t stream_windows = 0;  //!< windows committed via handoff
    std::uint64_t streams_finished = 0;
    std::uint64_t streams_failed = 0;
};

/**
 * Typed global STATUS reply. The daemon and the coordinator share the
 * job-level counters; the per-process execution counters live on the
 * daemon side and the lease/stream bookkeeping on the fleet side.
 */
struct ServiceStatus
{
    bool fleet = false; //!< reply came from a fleet coordinator

    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t job_failures = 0;
    std::uint64_t cells_deduped = 0;
    std::uint64_t cells_cached = 0;

    // Single-host daemon only.
    std::uint64_t queue_depth = 0;
    std::uint64_t running = 0;
    std::uint64_t cells_enqueued = 0;
    std::uint64_t cells_executed = 0;

    FleetStats fleet_stats; //!< meaningful when fleet

    std::vector<JobStatus> jobs; //!< submission order
};

/** Typed STATS reply (result-cache + service counters). */
struct ServiceStats
{
    bool fleet = false; //!< reply came from a fleet coordinator

    // Result-cache run counters (batch::ResultCache::stats()).
    std::uint64_t last_run_executed = 0;
    std::uint64_t last_run_cached = 0;
    std::uint64_t total_executed = 0;
    std::uint64_t total_cached = 0;

    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t job_failures = 0;
    std::uint64_t cells_deduped = 0;
    std::uint64_t cells_cached = 0;

    // Single-host daemon only.
    std::uint64_t cells_executed = 0;
    std::uint64_t cells_enqueued = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t running = 0;
    std::uint64_t spool_processed = 0;
    // The daemon process's checkpoint library
    // (sampling::CheckpointLibrary::Stats).
    std::uint64_t ckpt_hits = 0;
    std::uint64_t ckpt_misses = 0;
    std::uint64_t ckpt_ff_insts = 0;

    FleetStats fleet_stats; //!< meaningful when fleet
};

/**
 * Delay before poll attempt @p attempt (0-based): capped exponential
 * backoff with deterministic jitter. The base doubles per attempt and
 * saturates at @p cap_ms; jitter only ever *subtracts* (up to a
 * quarter of the delay), so the cap is a true upper bound — the
 * property tests/test_service.cc pins. @p seed decorrelates concurrent
 * pollers (e.g. the job id) without any global RNG state.
 */
unsigned pollBackoffMs(unsigned attempt, unsigned base_ms,
                       unsigned cap_ms, std::uint64_t seed);

class ServiceClient
{
  public:
    /** What SUBMIT came back with. */
    struct SubmitInfo
    {
        std::uint64_t job = 0;
        std::uint64_t cells = 0;
    };

    /** What LEASE came back with (idle == true means no work). */
    struct LeaseInfo
    {
        bool idle = true;
        std::uint64_t lease = 0;
        unsigned deadline_ms = 0;
        std::uint64_t job = 0;
        std::vector<std::size_t> cells; //!< plan cell indices
        /** The coordinator's content keys, parallel to cells; the
         *  worker verifies its re-expansion reproduces them. */
        std::vector<batch::CacheKey> keys;
        std::string manifest; //!< the owning job's manifest text
    };

    /** What COMPLETE came back with. */
    struct CompleteInfo
    {
        std::uint64_t stored = 0;    //!< results that won first write
        std::uint64_t discarded = 0; //!< duplicates acked + dropped
    };

    /** Connect to the service at @p socket_path; throws ServiceError. */
    explicit ServiceClient(const std::string &socket_path);
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /** @return true if something is accepting connections at @p path. */
    static bool ping(const std::string &socket_path);

    /** Submit manifest text; higher @p priority pops first. */
    SubmitInfo submit(
        const std::string &manifest_text,
        std::uint32_t priority = protocol::default_submit_priority);

    /** Typed global status (counters + one record per job). */
    ServiceStatus status();

    /**
     * The raw STATUS reply text, for the CLI's display path only —
     * the server's key=value rendering *is* the human-readable
     * format. Programmatic callers use status().
     */
    std::string statusText();

    /** One job's typed status; throws ServiceError for unknown ids. */
    JobStatus jobStatus(std::uint64_t job);

    /** @return true once the job completed (state done or failed). */
    bool jobDone(std::uint64_t job);

    /**
     * Poll jobDone with pollBackoffMs delays until the job completes
     * or @p timeout_s elapses. @return true when the job finished.
     */
    bool waitForJob(std::uint64_t job, double timeout_s);

    /** Pull one work unit from a coordinator (fleet workers only). */
    LeaseInfo lease(const std::string &worker_name = "");

    /** Extend a live lease. @return the fresh validity in ms. */
    unsigned renew(std::uint64_t lease);

    /** Return serialized MethodResult records (unit order) for a
     *  lease; payloads past the frame cap stream in chunks. */
    CompleteInfo complete(std::uint64_t lease,
                          const std::string &payload);

    /** Report a failed lease with a diagnostic instead of results. */
    CompleteInfo completeError(std::uint64_t lease,
                               const std::string &message);

    /** What STREAM-APPEND came back with. */
    struct StreamAppendInfo
    {
        std::uint64_t received = 0; //!< total stream bytes so far
        std::uint64_t records = 0;  //!< complete records spooled
        unsigned windows_fed = 0;   //!< schedule windows analyzed
    };

    /** What STREAM-CLOSE came back with. */
    struct StreamCloseInfo
    {
        batch::CacheKey key; //!< fetch the final result via result()
        unsigned windows = 0;
    };

    /** A stream STATUS poll (docs/service.md, "Streaming warming"). */
    struct StreamStatus
    {
        std::uint64_t records = 0;
        unsigned windows_fed = 0;
        unsigned windows_total = 0;
        double est_cpi = 0.0;  //!< running mean CPI (0 before data)
        double ci_error = 0.0; //!< 95% relative half-width
        double mpki = 0.0;     //!< running LLC misses per kilo-inst
        bool complete = false; //!< every declared record spooled
        /** Running miss-ratio curve over the fed windows: (cache
         *  bytes, miss ratio) points, ascending; empty before data. */
        std::vector<std::pair<std::uint64_t, double>> mrc;
    };

    /**
     * Open a TRACE-STREAM. @p directives is manifest text describing
     * at most one config and schedule — no workload line; the workload
     * is the trace subsequently appended. @return the stream id.
     */
    std::uint64_t streamOpen(const std::string &directives);

    /** Append raw DLRNTRC1 bytes (any chunking, even mid-record). */
    StreamAppendInfo streamAppend(std::uint64_t stream,
                                  const std::string &bytes);

    /** Close a complete stream; its result is cached under .key. */
    StreamCloseInfo streamClose(std::uint64_t stream);

    /** Poll the running estimate of an open stream. */
    StreamStatus streamStatus(std::uint64_t stream);

    /** What STREAM-LEASE came back with (idle == no stream work). */
    struct StreamLeaseInfo
    {
        bool idle = true;
        std::uint64_t lease = 0;
        unsigned deadline_ms = 0;
        std::uint64_t stream = 0;
        unsigned from = 0;      //!< windows already committed
        unsigned to = 0;        //!< feed [from, to)
        bool finish = false;    //!< also produce the final result
        std::uint64_t records = 0; //!< spooled records safe to read
        std::string trace;      //!< spool path (shared filesystem)
        std::string prefix;     //!< committed DLRNLVP1 path, "-" = none
        std::string directives; //!< the stream's open directives
    };

    /** What STREAM-HANDOFF came back with. */
    struct StreamHandoffInfo
    {
        unsigned committed = 0;      //!< stream's committed windows now
        std::uint64_t stored = 0;    //!< handoff won first write
        std::uint64_t discarded = 0; //!< stale duplicate acked
    };

    /** Pull one stream work unit from a coordinator (fleet workers). */
    StreamLeaseInfo streamLease(const std::string &worker_name = "");

    /**
     * Report a stream lease's outcome. @p prefix is the worker's
     * DLRNLVP1 file covering windows [0, @p windows) ("-" on a finish
     * lease, which ships @p payload — the serialized MethodResult —
     * instead). @p mrc is a pre-rendered formatMrcPoints() token value
     * (empty = omit).
     */
    StreamHandoffInfo streamHandoff(std::uint64_t lease,
                                    unsigned windows,
                                    const std::string &prefix,
                                    double est_cpi, double ci_error,
                                    double mpki, const std::string &mrc,
                                    const std::string &payload);

    /** Report a failed stream lease with a diagnostic. */
    StreamHandoffInfo streamHandoffError(std::uint64_t lease,
                                         const std::string &message);

    /** Raw serialized record bytes for @p key (result_io format). */
    std::string resultBytes(const batch::CacheKey &key);

    /** resultBytes parsed back into a MethodResult. */
    sampling::MethodResult result(const batch::CacheKey &key);

    /** Typed cache + service counters (docs/service.md). */
    ServiceStats stats();

    /** The raw STATS reply text (CLI display path only). */
    std::string statsText();

    /** Ask the daemon to drain and exit. */
    void shutdown();

    /** waitForJob's backoff band: 25 ms doubling up to 1 s. */
    static constexpr unsigned poll_base_ms = 25;
    static constexpr unsigned poll_cap_ms = 1000;

  private:
    /** One request/reply exchange; throws ServiceError on error replies. */
    std::string call(protocol::Opcode op, std::string body);

    /** Shared body of complete()/completeError() (chunked framing). */
    CompleteInfo completeCall(std::uint64_t lease, bool ok,
                              const std::string &payload);

    int fd_ = -1;
};

} // namespace delorean::service

#endif // DELOREAN_SERVICE_CLIENT_HH
