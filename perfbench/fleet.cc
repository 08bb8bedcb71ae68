/**
 * @file
 * Fleet workloads (fleet_steady, fleet_surge): one FarMemoryService
 * over 8 XFM DIMMs serving the heterogeneous tenant mix, driven by
 * the benchmark's own open-loop touch streams.
 *
 * Every tenant touches zipf-chosen pages at Poisson arrivals
 * scheduled on the EventQueue. The measured window advances the
 * queue one tREFI slice at a time so the per-slice host cost and the
 * NMA backlogs can be sampled from outside between slices.
 */

#include <cmath>

#include "bench.hh"
#include "dram/ddr_config.hh"
#include "service/service.hh"
#include "workload/fleet.hh"

namespace perfbench
{

using namespace xfm;

namespace
{

constexpr std::size_t fleetDimms = 8;
constexpr std::uint64_t pagesPerTenant = 128;
const std::string backendPrefix = "svc.backend.";
/** 50 us steps the audit waits for the devices to drain. */
constexpr int quiesceRounds = 2000;

service::ServiceConfig
serviceConfig(std::size_t tenants)
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = tenants;
    cfg.registry.pagesPerShard = 512;
    cfg.system.numDimms = fleetDimms;
    cfg.system.dimmMem.rank.device = dram::ddr5Device32Gb();
    cfg.system.dimmMem.channels = 1;
    cfg.system.dimmMem.dimmsPerChannel = 1;
    cfg.system.dimmMem.ranksPerDimm = 1;
    cfg.system.sfmBase = gib(1);
    cfg.system.sfmBytes = mib(16);
    cfg.system.device.spmBytes = mib(2);
    cfg.system.device.queueDepth = 64;
    cfg.batchSpmCapBytes = mib(4);
    return cfg;
}

/**
 * Demand-fault latency histogram merged bucket by bucket over all
 * tenants: [underflow, buckets..., overflow].
 */
struct FaultHist
{
    double lo = 0.0, hi = 0.0;
    std::vector<std::uint64_t> counts;

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (auto c : counts)
            t += c;
        return t;
    }

    /** Same rank rule as stats::Histogram::percentile. */
    double
    percentile(double p) const
    {
        const std::uint64_t n = total();
        if (n == 0)
            return lo;
        const auto target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(p * static_cast<double>(n))));
        const std::size_t buckets = counts.size() - 2;
        const double width = (hi - lo) / static_cast<double>(buckets);
        std::uint64_t seen = counts[0];
        if (seen >= target)
            return lo;
        for (std::size_t i = 0; i < buckets; ++i) {
            seen += counts[i + 1];
            if (seen >= target)
                return lo + width * static_cast<double>(i + 1);
        }
        return hi;
    }
};

/**
 * Everything one measured window observed. The window is cut into
 * equal consecutive parts, which every trial repeats exactly.
 */
struct Window
{
    double hostS = 0.0;
    double simUs = 0.0;
    std::vector<double> partHostS;
    /** referenceSlice() times, one after each part. */
    std::vector<double> referenceS;
    double accessHostS = 0.0;
    std::uint64_t events = 0;
    std::size_t pendingMax = 0;
    std::vector<double> sliceUs;
    std::vector<double> spmBacklog;
    std::vector<double> pendingReads;
    obs::Snapshot start, end;
    FaultHist faults;  ///< samples taken inside the window only
};

/** One built fleet: service, admitted tenants, touch streams. */
class Fleet
{
  public:
    Fleet(const FleetShape &shape, std::uint64_t seed)
        : shape_(shape), svc_("svc", eq_, serviceConfig(shape.tenants))
    {
        workload::FleetConfig fcfg;
        fcfg.numTenants = shape.tenants;
        fcfg.pagesPerTenant = pagesPerTenant;
        fcfg.accessesPerSecond = shape.touchesPerSec;
        fcfg.seed = seed;
        const Tick mean_gap =
            static_cast<Tick>(seconds(1.0) / shape.touchesPerSec);
        for (auto &spec : workload::heterogeneousFleet(fcfg)) {
            const service::TenantId id = svc_.addTenant(spec.cfg);
            XFM_ASSERT(id != service::invalidTenant,
                       "benchmark tenant not admitted");
            const auto pages =
                corpusPages(spec.corpus, spec.seed, spec.cfg.pages);
            for (std::size_t p = 0; p < pages.size(); ++p)
                svc_.writePage(id, p, pages[p]);
            const std::uint64_t stream_seed =
                mixSeed(seed * 0x10001ull + id);
            tenants_.push_back({id, std::move(spec), mean_gap,
                                Rng(stream_seed)});
        }
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Start the service and the touch streams; run the warm-up.
     * A @p tracer stays attached until the window closes, so spans
     * of requests begun in the warm-up are recorded as they finish.
     */
    void
    warmUp(obs::Tracer *tracer = nullptr)
    {
        svc_.setTracer(tracer);
        svc_.start();
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            eq_.scheduleIn(gap(tenants_[i]), [this, i] { touch(i); });
        if (shape_.warmupMs > 0.0)
            eq_.run(milliseconds(shape_.warmupMs));
    }

    Window
    measure(HostSpans &spans)
    {
        Window w;
        const Tick first = milliseconds(shape_.warmupMs);
        const Tick part = milliseconds(shape_.windowMs);
        const Tick last = first + part * shape_.windows;
        const Tick trefi = svc_.config().system.dimmMem.rank.device.tREFI();
        xfmsys::XfmBackend &be = svc_.backend();

        w.start = svc_.metrics().snapshot();
        const FaultHist faults0 = faultHist();
        const std::uint64_t executed0 = eq_.executed();
        spans_ = &spans;
        access_host_s_ = 0.0;

        const auto begin = Clock::now();
        spans.open("window", begin);
        auto part_begin = begin;
        for (Tick t = first, part_end = first + part; t < last;) {
            t = std::min(t + trefi, part_end);
            const auto a = Clock::now();
            spans.open("run_slice", a);
            eq_.run(t);
            const auto b = Clock::now();
            spans.close(b);
            w.sliceUs.push_back(secondsBetween(a, b) * 1e6);
            std::size_t spm = 0, reads = 0;
            for (std::size_t d = 0; d < fleetDimms; ++d) {
                const nma::XfmDevice &dev = be.driver(d).device();
                spm += dev.spm().entryCount();
                reads += dev.pendingReads();
            }
            w.spmBacklog.push_back(static_cast<double>(spm));
            w.pendingReads.push_back(static_cast<double>(reads));
            w.pendingMax = std::max(w.pendingMax, eq_.pending());
            if (t == part_end) {
                const auto now = Clock::now();
                w.partHostS.push_back(secondsBetween(part_begin, now));
                w.referenceS.push_back(referenceSlice());
                part_begin = Clock::now();
                spans.add("reference", now, part_begin);
                part_end += part;
            }
        }
        for (double s : w.partHostS)
            w.hostS += s;
        spans.close(Clock::now());

        svc_.setTracer(nullptr);
        spans_ = nullptr;
        w.end = svc_.metrics().snapshot();
        w.events = eq_.executed() - executed0;
        w.simUs = ticksToUs(last - first);
        w.accessHostS = access_host_s_;
        w.faults = faultHist();
        for (std::size_t i = 0; i < w.faults.counts.size(); ++i)
            w.faults.counts[i] -= faults0.counts[i];
        return w;
    }

    /**
     * End-of-run integrity audit. Stops the touch streams and lets
     * every swap-in in flight finish, so none is left half written
     * back. It then overwrites the local frames of every
     * far page with a poison pattern (swap-outs leave the frames
     * intact) and faults each page back in through access(), the
     * tenants' own demand path, which also starts the offloaded
     * prefetches. Every page must then equal its seeded content, so
     * each restored page, by the NMA or by the CPU, was rebuilt from
     * its compressed copy. Every page also feeds @p replay.
     *
     * @return pages that mismatched or could not be restored, plus
     *         one if the swap-ins in flight did not drain.
     */
    std::uint64_t
    audit(CodecReplay &replay, std::uint64_t &checked)
    {
        touching_ = false;
        const auto begin = Clock::now();
        const Tick drain0 = eq_.now();
        const bool quiet = quiesce();
        const double drain_ms = ticksToUs(eq_.now() - drain0) / 1000.0;
        const double drain_s = secondsSince(begin);
        xfmsys::XfmBackend &be = svc_.backend();
        const std::uint64_t nma_ins0 = be.xfmStats().offloadedSwapIns;
        const Bytes poison(pageBytes, 0xA5);
        struct FarPage
        {
            std::size_t tenant;
            sfm::VirtPage page;
        };
        std::vector<FarPage> far;
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            for (sfm::VirtPage p = 0; p < pagesPerTenant; ++p)
                if (isFar(i, p)) {
                    far.push_back({i, p});
                    be.writePage(basePage(i) + p, poison);
                }
        const std::uint64_t poisoned = far.size();
        for (const FarPage &f : far)
            if (isFar(f.tenant, f.page))
                svc_.access(tenants_[f.tenant].id, f.page);
        // A demand swap-in settles in ~10 us, but an offloaded
        // prefetch waits for its SPM write-back's refresh turn: allow
        // one full tREFW (32 ms) plus margin.
        Tick t = eq_.now();
        for (int round = 0; round < 800 && !far.empty(); ++round) {
            t += microseconds(50.0);
            eq_.run(t);
            std::erase_if(far, [&](const FarPage &f) {
                if (!isFar(f.tenant, f.page))
                    return true;
                svc_.access(tenants_[f.tenant].id, f.page);
                return false;
            });
        }
        const std::uint64_t nma_ins =
            be.xfmStats().offloadedSwapIns - nma_ins0;
        std::uint64_t mismatched = 0;
        for (const Tenant &tenant : tenants_) {
            const workload::FleetTenantSpec &spec = tenant.spec;
            const auto pages =
                corpusPages(spec.corpus, spec.seed, spec.cfg.pages);
            for (std::size_t p = 0; p < pages.size(); ++p)
                mismatched += svc_.readPage(tenant.id, p) != pages[p];
            checked += pages.size();
            replay.add(pages);
        }
        std::printf("  audit (%.2f s): swap-ins %s in %.2f ms "
                    "simulated (%.2f s), %llu far pages poisoned and "
                    "faulted back in (%llu by the NMA), %zu not "
                    "restored, %llu of %llu pages mismatched\n",
                    secondsSince(begin), quiet ? "drained" : "NOT DRAINED",
                    drain_ms, drain_s,
                    static_cast<unsigned long long>(poisoned),
                    static_cast<unsigned long long>(nma_ins),
                    far.size(),
                    static_cast<unsigned long long>(mismatched),
                    static_cast<unsigned long long>(checked));
        return far.size() + mismatched + (quiet ? 0 : 1);
    }

    compress::Algorithm algorithm() const
    {
        return svc_.config().system.algorithm;
    }

  private:
    struct Tenant
    {
        service::TenantId id;
        workload::FleetTenantSpec spec;
        Tick meanGap;
        Rng rng;
    };

    /** Exponential inter-arrival gap around the tenant's rate. */
    static Tick
    gap(Tenant &t)
    {
        const double u = t.rng.uniformReal();
        return std::max<Tick>(
            1, static_cast<Tick>(-std::log(1.0 - u)
                                 * static_cast<double>(t.meanGap)));
    }

    void
    touch(std::size_t i)
    {
        if (!touching_)
            return;
        Tenant &t = tenants_[i];
        const sfm::VirtPage page =
            t.rng.zipf(t.spec.cfg.pages, t.spec.zipfTheta);
        const auto a = Clock::now();
        svc_.access(t.id, page);
        const auto b = Clock::now();
        access_host_s_ += secondsBetween(a, b);
        if (spans_)
            spans_->add("access", a, b);
        eq_.scheduleIn(gap(t), [this, i] { touch(i); });
    }

    sfm::VirtPage
    basePage(std::size_t i) const
    {
        return svc_.registry().basePage(tenants_[i].id);
    }

    bool
    isFar(std::size_t i, sfm::VirtPage p)
    {
        return svc_.backend().pageState(basePage(i) + p)
               == sfm::PageState::Far;
    }

    /**
     * Run the queue until no DIMM holds a swap-in: no queued
     * request, no pending read, and nothing in the SPM but finished
     * swap-out write-backs. Only accesses start swap-ins, so once
     * the touch streams stop this state holds for good, and no page
     * is left with some shards written back and others not. CPU
     * swap-ins, drops and redos write their frames at once.
     *
     * @return false if the swap-ins did not drain within the limit.
     */
    bool
    quiesce()
    {
        xfmsys::XfmBackend &be = svc_.backend();
        const auto drained = [&be] {
            for (std::size_t d = 0; d < fleetDimms; ++d) {
                const nma::XfmDevice &dev = be.driver(d).device();
                if (dev.queuedRequests() || dev.pendingReads())
                    return false;
                const nma::ScratchPad &spm = dev.spm();
                const auto ids = spm.writebackIds();
                if (ids.size() != spm.entryCount())
                    return false;
                for (nma::OffloadId id : ids)
                    if (spm.entry(id).kind != nma::OffloadKind::Compress)
                        return false;
            }
            return true;
        };
        Tick t = eq_.now();
        for (int round = 0; round < quiesceRounds; ++round) {
            if (drained())
                return true;
            t += microseconds(50.0);
            eq_.run(t);
        }
        return drained();
    }

    FaultHist
    faultHist() const
    {
        FaultHist f;
        for (const Tenant &t : tenants_) {
            const stats::Histogram &h =
                svc_.registry().stats(t.id).faultLatencyNs;
            if (f.counts.empty()) {
                f.lo = h.lo();
                f.hi = h.hi();
                f.counts.assign(h.buckets() + 2, 0);
            }
            f.counts.front() += h.underflow();
            for (std::size_t b = 0; b < h.buckets(); ++b)
                f.counts[b + 1] += h.bucketCount(b);
            f.counts.back() += h.overflow();
        }
        return f;
    }

    FleetShape shape_;
    EventQueue eq_;
    service::FarMemoryService svc_;
    std::vector<Tenant> tenants_;
    bool touching_ = true;
    double access_host_s_ = 0.0;
    HostSpans *spans_ = nullptr;
};

/** Window-only change of the summed `svc.*<suffix>` leaves. */
double
deltaSum(const Window &w, const std::string &suffix)
{
    return sumLeaves(w.end, "svc.", suffix)
           - sumLeaves(w.start, "svc.", suffix);
}

double
deltaLeaf(const Window &w, const std::string &name)
{
    return leaf(w.end, name) - leaf(w.start, name);
}

/** Simulated-clock figures of a window: a pure function of seed. */
Values
simValues(const Window &w)
{
    const auto d = [&](const char *n) {
        return deltaLeaf(w, backendPrefix + n);
    };
    Values v;
    const double swaps = d("swapOuts") + d("swapIns");
    v["swaps"] = swaps;
    v["cpu_fraction"] =
        ratioOr0(d("cpuSwapOuts") + d("cpuSwapIns"), swaps);
    v["cpu_cycles_per_swap"] = ratioOr0(d("cpuCycles"), swaps);
    v["stored_ratio"] = ratioOr0(
        leaf(w.end, backendPrefix + "pagesFar") * pageBytes,
        leaf(w.end, backendPrefix + "storedCompressedBytes")
            + leaf(w.end, backendPrefix + "fragmentationBytes"));
    v["failed_ops"] = deltaSum(w, ".faultedOps")
                      + deltaSum(w, ".quotaRejects")
                      + deltaSum(w, ".shedRejects")
                      + deltaSum(w, ".abuseRejects");
    v["fault_p50_ns"] = w.faults.percentile(0.50);
    v["fault_p99_ns"] = w.faults.percentile(0.99);
    v["fault_samples"] = static_cast<double>(w.faults.total());
    v["events"] = static_cast<double>(w.events);
    v["pending_max"] = static_cast<double>(w.pendingMax);
    v["spm_backlog_max"] =
        *std::max_element(w.spmBacklog.begin(), w.spmBacklog.end());
    v["pending_reads_max"] =
        *std::max_element(w.pendingReads.begin(), w.pendingReads.end());
    return v;
}

/** Digest of the window's snapshots and simulated figures. */
std::uint64_t
digestOf(const Window &w, const Values &sim)
{
    return fnv1a(sim, fnv1a(w.end.toJson(), fnv1a(w.start.toJson())));
}

/** Mean arbiter queueing delay over the lanes' window samples. */
double
arbiterWaitMean(const Window &w)
{
    const std::string count = ".arbiter.waitNs.count";
    double samples = 0.0, total = 0.0;
    for (const obs::Snapshot *s : {&w.end, &w.start}) {
        const double sign = s == &w.end ? 1.0 : -1.0;
        for (const auto &l : s->leaves()) {
            if (!endsWith(l.name, count))
                continue;
            const std::string mean_name =
                l.name.substr(0, l.name.size() - 5) + "mean";
            samples += sign * l.asDouble();
            total += sign * l.asDouble() * leaf(*s, mean_name);
        }
    }
    return ratioOr0(total, samples);
}

/** Per-layer figures of one untraced window. */
void
layerValues(const Window &w, Values &out)
{
    out["sim.events"] = static_cast<double>(w.events);
    out["sim.events_per_s"] = ratioOr0(w.events, w.hostS);
    out["sim.pending_max"] = static_cast<double>(w.pendingMax);

    out["service.access_host_s"] = w.accessHostS;
    out["service.arbiter.dispatched"] =
        deltaLeaf(w, "svc.arbiter.dispatched");
    out["service.arbiter.preemptions"] =
        deltaLeaf(w, "svc.arbiter.preemptions");
    out["service.arbiter.throttled_windows"] =
        deltaLeaf(w, "svc.arbiter.throttledWindows");
    out["service.arbiter.wait_ns_mean"] = arbiterWaitMean(w);
    out["service.quota_rejects"] = deltaSum(w, ".quotaRejects");
    out["service.shed_rejects"] = deltaSum(w, ".shedRejects");

    out["sfm.scans"] =
        deltaSum(w, ".kstaled.scans") + deltaSum(w, ".senpai.intervals");
    out["sfm.cold_pages_found"] = deltaSum(w, ".kstaled.coldPagesFound");
    out["sfm.swap_outs_initiated"] =
        deltaSum(w, ".kstaled.swapOutsInitiated")
        + deltaSum(w, ".senpai.reclaimed");
    out["sfm.prefetch_hits"] = deltaSum(w, ".prefetchHits");

    backendLayers(w.start, w.end, backendPrefix, out);

    std::vector<double> slices = w.sliceUs;
    out["nma.slice_host_us.p50"] = percentile(slices, 0.50);
    out["nma.slice_host_us.p99"] = percentile(slices, 0.99);
    out["nma.spm_backlog.mean"] = mean(w.spmBacklog);
    out["nma.spm_backlog.max"] =
        *std::max_element(w.spmBacklog.begin(), w.spmBacklog.end());
    out["nma.pending_reads.mean"] = mean(w.pendingReads);
    out["nma.pending_reads.max"] =
        *std::max_element(w.pendingReads.begin(), w.pendingReads.end());
}

} // namespace

Result
runFleet(const FleetShape &shape, const RunOptions &opt)
{
    Result r;
    std::vector<double> setup_s;
    // Per untraced trial: part host times and reference times.
    std::vector<std::vector<double>> parts, reference;
    Values base_sim;
    Window host_window;  // last untraced window: host per-layer figures
    HostSpans spans, quiet;  // quiet stays disabled
    std::uint64_t audited = 0, bad_pages = 0, replay_bad = 0;
    double measured = 0.0, traced_s = 0.0;

    // Trials are identical: every one must reproduce trial 0's
    // simulated figures. A traced run puts the traced trial between
    // two untraced ones, so a steady drift of the host's speed
    // cancels out of the tracing overhead.
    for (std::size_t k = 0;; ++k) {
        const bool traced = opt.trace && k == 1;
        std::unique_ptr<obs::Tracer> tracer;
        if (traced)
            tracer = std::make_unique<obs::Tracer>(shape.traceCapacity);
        const auto t0 = Clock::now();
        auto fleet = std::make_unique<Fleet>(shape, opt.seed);
        fleet->warmUp(tracer.get());
        setup_s.push_back(secondsSince(t0));

        if (traced)
            spans.enable(Clock::now());
        Window w = fleet->measure(traced ? spans : quiet);

        const Values sim = simValues(w);
        const std::uint64_t digest = digestOf(w, sim);
        if (k == 0) {
            base_sim = sim;
            r.digest = digest;
        } else if (sim != base_sim || digest != r.digest) {
            r.fail(shape.name + ": trial " + std::to_string(k)
                   + " diverged from trial 0 in simulated metrics");
        }
        std::printf("  trial %zu%s: setup %.3f s, window %.3f s "
                    "(%.2f ms simulated in %zu parts), digest %016llx\n",
                    k, traced ? " (traced)" : "", setup_s.back(),
                    w.hostS, w.simUs / 1000.0, w.partHostS.size(),
                    static_cast<unsigned long long>(digest));

        if (traced) {
            stageMetrics(*tracer, r.perLayer);
            r.perLayer["trace.dropped"] =
                static_cast<double>(tracer->dropped());
            traced_s = w.hostS;
            std::printf("  trace: %llu sim events recorded, %llu dropped,"
                        " %zu host spans\n",
                        static_cast<unsigned long long>(
                            tracer->recorded()),
                        static_cast<unsigned long long>(
                            tracer->dropped()),
                        spans.size());
        } else {
            measured += w.hostS;
            parts.push_back(w.partHostS);
            reference.push_back(w.referenceS);
            host_window = std::move(w);
        }

        const bool more =
            opt.trace ? k < 2
                      : k + 1 < opt.minTrials
                            || (measured < opt.seconds
                                && k + 1 < opt.maxTrials);
        if (!more) {
            CodecReplay replay(fleet->algorithm(), fleetDimms, spans);
            bad_pages = fleet->audit(replay, audited);
            replay_bad = replay.mismatches();
            replay.report(r.perLayer);
            break;
        }
    }
    if (opt.trace)
        r.perLayer["trace.overhead_frac"] = traced_s / (measured / 2) - 1.0;
    while (!opt.trace && setup_s.size() < opt.minSetups) {
        const auto t0 = Clock::now();
        Fleet fleet(shape, opt.seed);
        fleet.warmUp();
        setup_s.push_back(secondsSince(t0));
    }

    if (bad_pages)
        r.fail(shape.name + ": " + std::to_string(bad_pages)
               + " pages failed the integrity audit");
    if (replay_bad)
        r.fail(shape.name + ": " + std::to_string(replay_bad)
               + " shards failed the codec round trip");

    const double failed_ops = base_sim.at("failed_ops");
    r.attempted = static_cast<std::uint64_t>(base_sim.at("swaps")
                                             + failed_ops)
                  + audited;
    r.failed = static_cast<std::uint64_t>(failed_ops) + bad_pages
               + replay_bad;
    r.sim = base_sim;

    hostFigures(parts, reference, setup_s, base_sim.at("swaps"),
                shape.windowMs * 1000.0
                    * static_cast<double>(shape.windows),
                r);
    r.endToEnd["peak_rss_mb"] = peakRssMb();
    for (const char *n : {"cpu_fraction", "cpu_cycles_per_swap",
                          "stored_ratio"})
        r.endToEnd[n] = base_sim.at(n);

    layerValues(host_window, r.perLayer);
    for (const char *n : {"fault_p50_ns", "fault_p99_ns", "fault_samples"})
        r.perLayer[n] = base_sim.at(n);
    r.perLayer["failed_ops_frac"] =
        ratioOr0(static_cast<double>(r.failed),
                 static_cast<double>(r.attempted));
    // The fleets never call swapOut/swapIn themselves: the tenants'
    // controllers do, inside the event queue.
    r.perLayer["xfm.swap_out_host_us.p50"] = 0.0;
    r.perLayer["xfm.swap_out_host_us.p99"] = 0.0;
    r.perLayer["xfm.swap_in_host_us.p50"] = 0.0;
    r.perLayer["xfm.swap_in_host_us.p99"] = 0.0;

    if (opt.trace && !opt.traceDir.empty()) {
        const std::string path =
            opt.traceDir + "/" + shape.name + ".host_spans.jsonl";
        if (!spans.write(path))
            r.fail("cannot write " + path);
        else
            std::printf("  host spans written to %s\n", path.c_str());
    }
    return r;
}

} // namespace perfbench
