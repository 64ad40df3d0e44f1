#include "batch/result_cache.hh"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "batch/error.hh"
#include "batch/plan.hh"

namespace delorean::batch
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *entry_suffix = ".res";
constexpr const char *stats_name = "stats.tsv";

} // namespace

std::string
uniqueTempSuffix()
{
    static const std::string host = [] {
        char buf[256] = {};
        if (::gethostname(buf, sizeof(buf) - 1) != 0)
            return std::string("unknown");
        return std::string(buf);
    }();
    static std::atomic<std::uint64_t> serial{0};
    std::ostringstream os;
    os << ".tmp." << host << "." << ::getpid() << "."
       << serial.fetch_add(1, std::memory_order_relaxed);
    return os.str();
}

ResultCache::ResultCache(const std::string &dir)
    : dir_(dir.empty() ? defaultDir() : dir)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        throw BatchError("cannot create cache directory '" + dir_ +
                         "': " + ec.message());
}

std::string
ResultCache::defaultDir()
{
    if (const char *env = std::getenv("DELOREAN_CACHE_DIR"))
        if (*env)
            return env;
    return ".delorean-cache";
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    return dir_ + "/" + key.hex() + entry_suffix;
}

bool
ResultCache::contains(const CacheKey &key) const
{
    std::error_code ec;
    return fs::exists(entryPath(key), ec);
}

std::optional<sampling::MethodResult>
ResultCache::load(const CacheKey &key) const
{
    std::ifstream is(entryPath(key), std::ios::binary);
    if (!is)
        return std::nullopt;
    try {
        return readMethodResult(is);
    } catch (const std::exception &e) {
        // std::exception, not just BatchError: a corrupt file with an
        // intact header can still fail allocation (huge counts) and
        // corruption must read as a miss, never crash the run.
        warn("cache entry %s is corrupt (%s); treating as a miss",
             key.hex().c_str(), e.what());
        return std::nullopt;
    }
}

std::optional<std::string>
ResultCache::loadBytes(const CacheKey &key) const
{
    std::ifstream is(entryPath(key), std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream buffer(std::ios::binary);
    buffer << is.rdbuf();
    std::string bytes = buffer.str();
    try {
        // Serving a client means vouching for the payload: parse the
        // whole record so corruption surfaces here as a miss, not in
        // the client as a protocol-level surprise.
        std::istringstream check(bytes, std::ios::binary);
        (void)readMethodResult(check);
    } catch (const std::exception &e) {
        warn("cache entry %s is corrupt (%s); treating as a miss",
             key.hex().c_str(), e.what());
        return std::nullopt;
    }
    return bytes;
}

void
ResultCache::storeBytes(const CacheKey &key,
                        const std::string &bytes) const
{
    const std::string final_path = entryPath(key);
    const std::string tmp_path = final_path + uniqueTempSuffix();
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os)
            throw BatchError("cannot write cache entry '" + tmp_path +
                             "'");
        os.write(bytes.data(), std::streamsize(bytes.size()));
        os.flush();
        if (!os) {
            std::error_code ec;
            fs::remove(tmp_path, ec);
            throw BatchError("short write to cache entry '" + tmp_path +
                             "'");
        }
    }
    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        throw BatchError("cannot publish cache entry '" + final_path +
                         "'");
    }
}

void
ResultCache::store(const CacheKey &key,
                   const sampling::MethodResult &result) const
{
    std::ostringstream os(std::ios::binary);
    writeMethodResult(os, result);
    storeBytes(key, os.str());
}

std::optional<SizeCurve>
ResultCache::loadCurve(const CacheKey &key) const
{
    std::ifstream is(entryPath(key), std::ios::binary);
    if (!is)
        return std::nullopt;
    try {
        return readSizeCurve(is);
    } catch (const std::exception &e) {
        warn("cache entry %s is corrupt (%s); treating as a miss",
             key.hex().c_str(), e.what());
        return std::nullopt;
    }
}

void
ResultCache::storeCurve(const CacheKey &key, const SizeCurve &curve) const
{
    std::ostringstream os(std::ios::binary);
    writeSizeCurve(os, curve);
    storeBytes(key, os.str());
}

std::vector<std::string>
ResultCache::entries() const
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() == 32 + 4 &&
            name.compare(32, 4, entry_suffix) == 0)
            out.push_back(name.substr(0, 32));
    }
    return out;
}

std::size_t
ResultCache::gc(const std::unordered_set<std::string> &keep) const
{
    std::size_t removed = 0;
    for (const auto &hex : entries()) {
        if (keep.count(hex))
            continue;
        std::error_code ec;
        if (fs::remove(dir_ + "/" + hex + entry_suffix, ec))
            ++removed;
    }

    // Writers killed between opening a temp file and the publishing
    // rename leave "*.tmp.*" litter (result entries and stats.tsv
    // alike) that entries() never lists; reclaim it here. (Documented
    // caveat: don't gc a directory with stores in flight — a live
    // writer's temp file is indistinguishable from an orphan.)
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir_, ec)) {
        const std::string name = de.path().filename().string();
        if (name.find(".tmp.") != std::string::npos) {
            std::error_code rec;
            if (fs::remove(de.path(), rec))
                ++removed;
        }
    }
    return removed;
}

void
ResultCache::recordRun(std::uint64_t executed, std::uint64_t cached) const
{
    RunStats s = stats();
    s.last_run_executed = executed;
    s.last_run_cached = cached;
    s.total_executed += executed;
    s.total_cached += cached;

    const std::string path = dir_ + "/" + stats_name;
    const std::string tmp = path + uniqueTempSuffix();
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return; // counters are best-effort bookkeeping
        os << s.last_run_executed << '\t' << s.last_run_cached << '\t'
           << s.total_executed << '\t' << s.total_cached << '\n';
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fs::remove(tmp, ec);
}

ResultCache::RunStats
ResultCache::stats() const
{
    RunStats s;
    const std::string path = dir_ + "/" + stats_name;
    std::ifstream is(path);
    if (!is)
        return s;

    // Strict row parse: exactly four tab-separated decimal counters on
    // the first line. Stream extraction (`is >> a >> b >> ...`) would
    // happily pull fields across a truncated row's newline and report
    // shifted columns as if they were real counters; a malformed file
    // instead warns and reads as zeros (counters are best-effort
    // bookkeeping, so "fresh" is the safe fallback).
    std::string line;
    if (!std::getline(is, line)) {
        warn("%s: empty stats file ignored", path.c_str());
        return s;
    }
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t tab = line.find('\t', start);
        fields.push_back(line.substr(start, tab - start));
        if (tab == std::string::npos)
            break;
        start = tab + 1;
    }
    if (fields.size() != 4) {
        warn("%s: malformed stats row (%zu fields, expected 4) ignored",
             path.c_str(), fields.size());
        return s;
    }
    RunStats parsed;
    try {
        parsed.last_run_executed = parseCount(fields[0]);
        parsed.last_run_cached = parseCount(fields[1]);
        parsed.total_executed = parseCount(fields[2]);
        parsed.total_cached = parseCount(fields[3]);
    } catch (const BatchError &e) {
        warn("%s: malformed stats row ignored (%s)", path.c_str(),
             e.what());
        return s;
    }
    std::string extra;
    while (std::getline(is, extra)) {
        if (!extra.empty()) {
            warn("%s: trailing junk after stats row ignored",
                 path.c_str());
            break;
        }
    }
    return parsed;
}

} // namespace delorean::batch
