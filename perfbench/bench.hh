/**
 * @file
 * Shared plumbing of the XFM benchmark: host clocks, exact
 * percentiles, the benchmark's own host-time span log, metric
 * records, and the digest of the simulated metric snapshot.
 *
 * Everything here observes the simulator from outside; nothing in
 * the simulator is modified or instrumented.
 */

#ifndef XFM_PERFBENCH_BENCH_HH
#define XFM_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hh"
#include "compress/corpus.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Nearest-rank percentile of @p v (sorted in place); 0 if empty. */
inline double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Median; the mean of the two middle values for an even count. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t n = v.size();
    std::sort(v.begin(), v.end());
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

inline double
ratioOr0(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * The benchmark's own host-clock spans (access() calls, tREFI run
 * slices, swap calls, codec calls), kept in memory and written out
 * when the run ends. Each span names the innermost span open when it
 * was recorded as its parent. Recording is off unless enabled, so
 * untraced runs only pay a flag check.
 */
class HostSpans
{
  public:
    void
    enable(Clock::time_point origin)
    {
        on_ = true;
        origin_ = origin;
    }

    /** Open a span; spans recorded before close() are its children. */
    void
    open(const char *name, Clock::time_point t)
    {
        if (!on_)
            return;
        open_.push_back(spans_.size());
        spans_.push_back({name, ns(t), ns(t), parent()});
    }

    /** Close the innermost open span. */
    void
    close(Clock::time_point t)
    {
        if (!on_)
            return;
        spans_[open_.back()].end = ns(t);
        open_.pop_back();
    }

    /** Record a finished span under the innermost open span. */
    void
    add(const char *name, Clock::time_point a, Clock::time_point b)
    {
        if (on_)
            spans_.push_back({name, ns(a), ns(b), parent()});
    }

    std::size_t size() const { return spans_.size(); }

    /** One JSON object per line: id, parent (-1: none), span name,
     *  start_ns (since enable()), dur_ns. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int64_t parent;
    };

    std::int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    std::int64_t
    parent() const
    {
        return open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    }

    bool on_ = false;
    Clock::time_point origin_{};
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Metric values by name (units live in main.cc's tables). */
using Values = std::map<std::string, double>;

/**
 * What one workload run reports: the correctness fields of the
 * result line, the metrics, and the simulated digest.
 */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Values endToEnd;
    Values perLayer;
    /** Simulated-clock figures only: a pure function of the seed,
     *  compared across trials and by the self-test. */
    Values sim;
    /** FNV-1a over the simulated metric snapshot(s). */
    std::uint64_t digest = 0;

    void
    fail(const std::string &why)
    {
        correct = false;
        std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    }
};

/** 64-bit FNV-1a, chainable through @p h. */
inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** fnv1a() over a canonical rendering of @p v, chained. */
inline std::uint64_t
fnv1a(const Values &v, std::uint64_t h)
{
    char buf[64];
    for (const auto &[name, value] : v) {
        std::snprintf(buf, sizeof buf, "=%.17g;", value);
        h = fnv1a(name + buf, h);
    }
    return h;
}

inline bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
           && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
                  == 0;
}

/** Sum of the snapshot leaves named `<prefix>...<suffix>`. */
double sumLeaves(const xfm::obs::Snapshot &s, const std::string &prefix,
                 const std::string &suffix);

/** Value of a leaf, or 0 when the registry does not carry it. */
inline double
leaf(const xfm::obs::Snapshot &s, const std::string &name)
{
    return s.has(name) ? s.value(name) : 0.0;
}

/**
 * Simulated-latency percentiles per lifecycle stage from an
 * obs::Tracer's retained spans, as per-layer metrics
 * `stage.<name>_ns.{p50,p99}`.
 */
void stageMetrics(const xfm::obs::Tracer &tracer, Values &out);

/**
 * Per-layer figures of one XfmBackend read from its registry
 * entries under @p prefix (e.g. "svc.backend."): the xfm, nma,
 * dram and modelled-codec layers over the measured window between
 * the snapshots @p start and @p end.
 */
void backendLayers(const xfm::obs::Snapshot &start,
                   const xfm::obs::Snapshot &end,
                   const std::string &prefix, Values &out);

/** SplitMix64 mixer for deriving sub-seeds from the run seed. */
inline std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/**
 * Run the benchmark's own fixed host-speed reference work once
 * (reference.cc) and return its host seconds.
 */
double referenceSlice();

/**
 * referenceSlice()'s median host seconds on the host the benchmark
 * was calibrated on (a quiet 4-vCPU x86-64 VM, Xeon at 2.0 GHz).
 */
constexpr double referenceNominalS = 0.019;

/**
 * The host-clock figures of a run, at the reference speed. @p parts
 * holds the host seconds of each untraced trial's parts, which every
 * trial repeats exactly, and @p reference the referenceSlice() times
 * taken between that trial's parts. Each trial's parts are rescaled
 * by referenceNominalS over the median of its reference times; the
 * window's host time is then the sum over parts of the fastest
 * trial's time for that part, since other tenants of a shared host
 * can only add time. @p setups are rescaled by the run's median
 * reference time.
 *
 * Writes swaps_per_s, sim_us_per_s and setup_s (end to end) and
 * host.reference_ms and host.measured_swaps_per_s (per layer: the
 * reference's median and the throughput as measured).
 */
void hostFigures(const std::vector<std::vector<double>> &parts,
                 const std::vector<std::vector<double>> &reference,
                 const std::vector<double> &setups, double swaps,
                 double simUs, Result &r);

/**
 * Codec replay: pushes pages through the configured codec's
 * compressInto/decompressInto, cut into the backend's per-DIMM
 * shards (splitPageInto), and checks every round trip byte for
 * byte. Pages may be fed in batches; report() emits
 * `compress.replay_{comp,decomp}_mbps` and `compress.bytes_{in,out}`.
 */
class CodecReplay
{
  public:
    CodecReplay(xfm::compress::Algorithm algo, std::size_t dimms,
                HostSpans &spans);

    void add(const std::vector<xfm::Bytes> &pages);
    /** Shards whose round trip did not match. */
    std::uint64_t mismatches() const { return mismatches_; }
    void report(Values &out) const;

  private:
    std::unique_ptr<xfm::compress::Compressor> codec_;
    std::size_t dimms_;
    HostSpans &spans_;
    std::vector<xfm::Bytes> shards_;
    xfm::Bytes block_, back_;
    double comp_s_ = 0.0, decomp_s_ = 0.0;
    std::uint64_t raw_ = 0, stored_ = 0, mismatches_ = 0;
};

/** Corpus bytes of @p pages whole pages of @p kind, paginated. */
inline std::vector<xfm::Bytes>
corpusPages(xfm::compress::CorpusKind kind, std::uint64_t seed,
            std::size_t pages)
{
    return xfm::compress::paginate(
        xfm::compress::generateCorpus(kind, seed, pages * xfm::pageBytes),
        xfm::pageBytes);
}

/** Workload parameters that the command line selects. */
struct RunOptions
{
    std::uint64_t seed = 1;
    /** Host seconds of measurement to aim for: trials repeat until
     *  their measured windows add up to this (within bounds). */
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its span logs into (empty:
     *  write none). */
    std::string traceDir;
    /** Trial count bounds (the self-test pins both to 1). */
    std::size_t minTrials = 3;
    std::size_t maxTrials = 6;
    /** Set-ups timed per run, counting the trials' own. */
    std::size_t minSetups = 3;
};

/** Size of a fleet workload. */
struct FleetShape
{
    std::string name;
    std::size_t tenants;
    double touchesPerSec;  ///< per tenant
    double warmupMs;       ///< simulated, part of set-up
    double windowMs;       ///< simulated length of one window part
    std::size_t windows;   ///< window parts measured per trial
    /** obs::Tracer ring slots for the traced trial (none drop). */
    std::size_t traceCapacity;
};

/** Size of the closed-loop CPU swap workload. */
struct CpuSwapShape
{
    std::size_t pages;   ///< pages swapped per batch
    std::size_t cycles;  ///< out/in/rewrite cycles per trial
    /** obs::Tracer ring slots for the traced trial (none drop). */
    std::size_t traceCapacity;
};

Result runFleet(const FleetShape &shape, const RunOptions &opt);
Result runCpuSwap(const CpuSwapShape &shape, const RunOptions &opt);

} // namespace perfbench

#endif // XFM_PERFBENCH_BENCH_HH
