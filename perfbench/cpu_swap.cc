/**
 * @file
 * cpu_swap: the CPU-fallback / baseline-SFM path (paper Fig. 12).
 *
 * An 8-DIMM XfmBackend with offload disabled runs closed-loop
 * batches: swap every page out, drain, overwrite the local frames
 * with a poison pattern, swap every page back in, drain, and check
 * that each page came back byte for byte. Every page is then
 * rewritten with fresh content (a new corpus seed per cycle), so no
 * page content ever repeats. Refresh is never started: the NMA,
 * DRAM-refresh and service layers do no work here, the codec and
 * the shard split/placement do.
 */

#include "bench.hh"
#include "dram/ddr_config.hh"
#include "xfm/xfm_backend.hh"

namespace perfbench
{

using namespace xfm;

namespace
{

constexpr std::size_t cpuDimms = 8;
constexpr std::size_t cpuWorkers = 2;
const std::string backendPrefix = "backend.";

/** The fleet's eight corpora plus the two extremes. */
constexpr compress::CorpusKind cpuKinds[] = {
    compress::CorpusKind::KeyValue,    compress::CorpusKind::Json,
    compress::CorpusKind::HeapObjects, compress::CorpusKind::LogLines,
    compress::CorpusKind::EnglishText, compress::CorpusKind::SourceCode,
    compress::CorpusKind::NumericColumns, compress::CorpusKind::Html,
    compress::CorpusKind::ZeroHeavy,   compress::CorpusKind::RandomBytes,
};
constexpr std::size_t numKinds = std::size(cpuKinds);

xfmsys::XfmSystemConfig
systemConfig(std::size_t pages)
{
    xfmsys::XfmSystemConfig cfg;
    cfg.numDimms = cpuDimms;
    cfg.dimmMem.rank.device = dram::ddr5Device32Gb();
    cfg.dimmMem.channels = 1;
    cfg.dimmMem.dimmsPerChannel = 1;
    cfg.dimmMem.ranksPerDimm = 1;
    cfg.localPages = pages;
    cfg.sfmBase = gib(1);
    cfg.sfmBytes = mib(16);
    cfg.workers = cpuWorkers;
    return cfg;
}

/** Page contents of one cycle: page i holds corpus i % numKinds. */
std::vector<Bytes>
cycleContent(std::uint64_t seed, std::size_t cycle, std::size_t pages)
{
    std::vector<Bytes> out(pages);
    for (std::size_t k = 0; k < numKinds; ++k) {
        const std::size_t count = (pages + numKinds - 1 - k) / numKinds;
        if (count == 0)
            continue;
        const auto src = corpusPages(
            cpuKinds[k], mixSeed(seed * 1000003ull + cycle * 64 + k),
            count);
        for (std::size_t j = 0; j < count; ++j)
            out[j * numKinds + k] = src[j];
    }
    return out;
}

/** What one trial of closed-loop cycles observed. */
struct Trial
{
    double hostS = 0.0;  ///< swap calls plus drains
    std::vector<double> cycleHostS;  ///< the same, per cycle
    std::vector<double> referenceS;  ///< referenceSlice() after each cycle
    double simUs = 0.0;
    std::uint64_t events = 0;
    std::size_t pendingMax = 0;
    std::uint64_t failedOps = 0;
    std::uint64_t mismatches = 0;
    double rawBytes = 0.0, storedBytes = 0.0;
    /** Same-offset padding with every page far (last cycle). */
    double fragmentation = 0.0;
    /** Chained digest of the registry with every page far. */
    std::uint64_t farDigest = 0;
    std::vector<double> outUs, inUs, faultNs;
    obs::Snapshot start, end;
};

class CpuSwap
{
  public:
    CpuSwap(const CpuSwapShape &shape, std::uint64_t seed)
        : shape_(shape), seed_(seed),
          be_("backend", eq_, systemConfig(shape.pages))
    {
        be_.registerMetrics(reg_);
        content_ = cycleContent(seed_, 0, shape_.pages);
        for (std::size_t p = 0; p < shape_.pages; ++p)
            be_.writePage(p, content_[p]);
    }

    CpuSwap(const CpuSwap &) = delete;
    CpuSwap &operator=(const CpuSwap &) = delete;

    /** Run every cycle of the shape once. */
    Trial
    run(obs::Tracer *tracer, HostSpans &spans)
    {
        Trial t;
        t.start = reg_.snapshot();
        const std::uint64_t executed0 = eq_.executed();
        const Tick tick0 = eq_.now();
        be_.setTracer(tracer);
        const Bytes poison(pageBytes, 0xA5);
        for (std::size_t c = 0; c < shape_.cycles; ++c) {
            const double host0 = t.hostS;
            const auto out0 = Clock::now();
            spans.open("cycle", out0);
            for (sfm::VirtPage p = 0; p < shape_.pages; ++p) {
                const auto a = Clock::now();
                be_.swapOut(p, false, [&t](const sfm::SwapOutcome &o) {
                    t.failedOps += !o.success;
                });
                const auto b = Clock::now();
                spans.add("swap_out", a, b);
                t.outUs.push_back(secondsBetween(a, b) * 1e6);
            }
            t.pendingMax = std::max(t.pendingMax, eq_.pending());
            drain(spans);
            t.hostS += secondsSince(out0);

            t.farDigest = fnv1a(reg_.snapshot().toJson(), t.farDigest);
            t.rawBytes += static_cast<double>(be_.farPageCount())
                          * pageBytes;
            t.fragmentation =
                static_cast<double>(be_.fragmentationBytes());
            t.storedBytes += static_cast<double>(
                be_.storedCompressedBytes()) + t.fragmentation;
            // Swap-in must restore every byte: nothing of the page
            // may survive in its local frame.
            for (sfm::VirtPage p = 0; p < shape_.pages; ++p)
                be_.writePage(p, poison);

            const auto in0 = Clock::now();
            const Tick submit = eq_.now();
            for (sfm::VirtPage p = 0; p < shape_.pages; ++p) {
                const auto a = Clock::now();
                be_.swapIn(p, false,
                           [&t, submit](const sfm::SwapOutcome &o) {
                    if (o.success)
                        t.faultNs.push_back(
                            ticksToNs(o.completed - submit));
                    else
                        ++t.failedOps;
                });
                const auto b = Clock::now();
                spans.add("swap_in", a, b);
                t.inUs.push_back(secondsBetween(a, b) * 1e6);
            }
            t.pendingMax = std::max(t.pendingMax, eq_.pending());
            drain(spans);
            t.hostS += secondsSince(in0);
            t.cycleHostS.push_back(t.hostS - host0);
            const auto ref0 = Clock::now();
            t.referenceS.push_back(referenceSlice());
            spans.add("reference", ref0, Clock::now());

            spans.close(Clock::now());
            for (sfm::VirtPage p = 0; p < shape_.pages; ++p)
                t.mismatches += be_.readPage(p) != content_[p];
            if (c + 1 == shape_.cycles)
                break;
            content_ = cycleContent(seed_, c + 1, shape_.pages);
            for (sfm::VirtPage p = 0; p < shape_.pages; ++p)
                be_.writePage(p, content_[p]);
        }
        be_.setTracer(nullptr);
        t.end = reg_.snapshot();
        t.events = eq_.executed() - executed0;
        t.simUs = ticksToUs(eq_.now() - tick0);
        return t;
    }

    compress::Algorithm algorithm() const
    {
        return be_.config().algorithm;
    }

  private:
    void
    drain(HostSpans &spans)
    {
        const auto a = Clock::now();
        eq_.run();
        spans.add("drain", a, Clock::now());
    }

    CpuSwapShape shape_;
    std::uint64_t seed_;
    EventQueue eq_;
    xfmsys::XfmBackend be_;
    obs::MetricRegistry reg_;
    std::vector<Bytes> content_;
};

Values
simValues(const Trial &t)
{
    const auto d = [&](const char *n) {
        return leaf(t.end, backendPrefix + n)
               - leaf(t.start, backendPrefix + n);
    };
    Values v;
    const double swaps = d("swapOuts") + d("swapIns");
    std::vector<double> faults = t.faultNs;
    v["swaps"] = swaps;
    v["cpu_fraction"] =
        ratioOr0(d("cpuSwapOuts") + d("cpuSwapIns"), swaps);
    v["cpu_cycles_per_swap"] = ratioOr0(d("cpuCycles"), swaps);
    v["stored_ratio"] = ratioOr0(t.rawBytes, t.storedBytes);
    v["fragmentation_bytes"] = t.fragmentation;
    v["failed_ops"] = static_cast<double>(t.failedOps);
    v["fault_p50_ns"] = percentile(faults, 0.50);
    v["fault_p99_ns"] = percentile(faults, 0.99);
    v["fault_samples"] = static_cast<double>(faults.size());
    v["events"] = static_cast<double>(t.events);
    v["pending_max"] = static_cast<double>(t.pendingMax);
    v["sim_us"] = t.simUs;
    return v;
}

} // namespace

Result
runCpuSwap(const CpuSwapShape &shape, const RunOptions &opt)
{
    Result r;
    std::vector<double> setup_s;
    // Per untraced trial: cycle host times and reference times.
    std::vector<std::vector<double>> cycles, reference;
    std::size_t trials = 0;
    Values base_sim;
    Trial host_trial;  // last untraced trial: host per-layer figures
    HostSpans spans, quiet;  // quiet stays disabled
    std::uint64_t mismatches = 0, replay_bad = 0;
    double measured = 0.0, traced_s = 0.0;

    // As for the fleets: identical trials, and a traced run puts the
    // traced trial between two untraced ones.
    for (std::size_t k = 0;; ++k) {
        const bool traced = opt.trace && k == 1;
        const auto t0 = Clock::now();
        auto bench = std::make_unique<CpuSwap>(shape, opt.seed);
        setup_s.push_back(secondsSince(t0));

        std::unique_ptr<obs::Tracer> tracer;
        if (traced) {
            tracer = std::make_unique<obs::Tracer>(shape.traceCapacity);
            spans.enable(Clock::now());
        }
        Trial t = bench->run(tracer.get(), traced ? spans : quiet);
        ++trials;
        mismatches += t.mismatches;

        const Values sim = simValues(t);
        const std::uint64_t digest =
            fnv1a(sim, fnv1a(t.end.toJson(), t.farDigest));
        if (k == 0) {
            base_sim = sim;
            r.digest = digest;
        } else if (sim != base_sim || digest != r.digest) {
            r.fail("cpu_swap: trial " + std::to_string(k)
                   + " diverged from trial 0 in simulated metrics");
        }
        std::printf("  trial %zu%s: setup %.3f s, window %.3f s, "
                    "digest %016llx\n",
                    k, traced ? " (traced)" : "", setup_s.back(),
                    t.hostS, static_cast<unsigned long long>(digest));

        if (traced) {
            stageMetrics(*tracer, r.perLayer);
            r.perLayer["trace.dropped"] =
                static_cast<double>(tracer->dropped());
            traced_s = t.hostS;
            std::printf("  trace: %llu sim events recorded, %llu dropped,"
                        " %zu host spans\n",
                        static_cast<unsigned long long>(
                            tracer->recorded()),
                        static_cast<unsigned long long>(
                            tracer->dropped()),
                        spans.size());
        } else {
            measured += t.hostS;
            cycles.push_back(t.cycleHostS);
            reference.push_back(t.referenceS);
            host_trial = std::move(t);
        }
        const bool more =
            opt.trace ? k < 2
                      : k + 1 < opt.minTrials
                            || (measured < opt.seconds
                                && k + 1 < opt.maxTrials);
        if (!more) {
            // Replay the page sets of every cycle through the codec.
            CodecReplay replay(bench->algorithm(), cpuDimms, spans);
            for (std::size_t c = 0; c < shape.cycles; ++c)
                replay.add(cycleContent(opt.seed, c, shape.pages));
            replay_bad = replay.mismatches();
            replay.report(r.perLayer);
            break;
        }
    }
    if (opt.trace)
        r.perLayer["trace.overhead_frac"] = traced_s / (measured / 2) - 1.0;
    while (!opt.trace && setup_s.size() < opt.minSetups) {
        const auto t0 = Clock::now();
        CpuSwap bench(shape, opt.seed);
        setup_s.push_back(secondsSince(t0));
    }

    if (mismatches)
        r.fail("cpu_swap: " + std::to_string(mismatches)
               + " pages came back different from their latest write");
    if (replay_bad)
        r.fail("cpu_swap: " + std::to_string(replay_bad)
               + " shards failed the codec round trip");

    const double swaps = base_sim.at("swaps");
    const double failed_ops = base_sim.at("failed_ops");
    const double checked =
        static_cast<double>(shape.pages * shape.cycles * trials);
    r.attempted = static_cast<std::uint64_t>(swaps + failed_ops + checked);
    r.failed = static_cast<std::uint64_t>(failed_ops) + mismatches
               + replay_bad;
    r.sim = base_sim;

    hostFigures(cycles, reference, setup_s, swaps, base_sim.at("sim_us"), r);
    r.endToEnd["peak_rss_mb"] = peakRssMb();
    for (const char *n : {"cpu_fraction", "cpu_cycles_per_swap",
                          "stored_ratio"})
        r.endToEnd[n] = base_sim.at(n);

    Values &l = r.perLayer;
    l["sim.events"] = base_sim.at("events");
    l["sim.events_per_s"] = base_sim.at("events") / host_trial.hostS;
    l["sim.pending_max"] = base_sim.at("pending_max");
    backendLayers(host_trial.start, host_trial.end, backendPrefix, l);
    // Every page is local again at the trial's end; report the
    // padding while they were all far.
    l["xfm.fragmentation_bytes"] = base_sim.at("fragmentation_bytes");
    for (const char *n : {"fault_p50_ns", "fault_p99_ns", "fault_samples"})
        l[n] = base_sim.at(n);
    l["failed_ops_frac"] = ratioOr0(static_cast<double>(r.failed),
                                    static_cast<double>(r.attempted));
    // No service, reclaim controller or refresh-window scheduling
    // runs here.
    for (const char *n :
         {"service.access_host_s", "service.arbiter.dispatched",
          "service.arbiter.preemptions",
          "service.arbiter.throttled_windows",
          "service.arbiter.wait_ns_mean", "service.quota_rejects",
          "service.shed_rejects", "sfm.scans", "sfm.cold_pages_found",
          "sfm.swap_outs_initiated", "sfm.prefetch_hits",
          "nma.slice_host_us.p50", "nma.slice_host_us.p99",
          "nma.spm_backlog.mean", "nma.spm_backlog.max",
          "nma.pending_reads.mean", "nma.pending_reads.max"})
        l[n] = 0.0;
    l["xfm.swap_out_host_us.p50"] = percentile(host_trial.outUs, 0.50);
    l["xfm.swap_out_host_us.p99"] = percentile(host_trial.outUs, 0.99);
    l["xfm.swap_in_host_us.p50"] = percentile(host_trial.inUs, 0.50);
    l["xfm.swap_in_host_us.p99"] = percentile(host_trial.inUs, 0.99);

    if (opt.trace && !opt.traceDir.empty()) {
        const std::string path = opt.traceDir + "/cpu_swap.host_spans.jsonl";
        if (!spans.write(path))
            r.fail("cannot write " + path);
        else
            std::printf("  host spans written to %s\n", path.c_str());
    }
    return r;
}

} // namespace perfbench
