#include <sys/resource.h>

#include <utility>

#include "bench.hh"
#include "xfm/multichannel.hh"

namespace perfbench
{

using namespace xfm;

bool
HostSpans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"parent\":%lld,\"span\":\"%s\","
                     "\"start_ns\":%lld,\"dur_ns\":%lld}\n",
                     i, static_cast<long long>(s.parent), s.name,
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end - s.start));
    }
    return std::fclose(f) == 0;
}

double
sumLeaves(const obs::Snapshot &s, const std::string &prefix,
          const std::string &suffix)
{
    double total = 0.0;
    for (const auto &l : s.leaves())
        if (l.name.size() >= prefix.size() + suffix.size()
            && l.name.compare(0, prefix.size(), prefix) == 0
            && endsWith(l.name, suffix))
            total += l.asDouble();
    return total;
}

void
stageMetrics(const obs::Tracer &tracer, Values &out)
{
    static constexpr obs::Stage stages[] = {
        obs::Stage::Queue,     obs::Stage::WindowWait,
        obs::Stage::Engine,    obs::Stage::SpmStage,
        obs::Stage::Writeback, obs::Stage::CpuCompute,
    };
    std::map<obs::Stage, std::vector<double>> ns;
    for (const auto &ev : tracer.events())
        ns[ev.stage].push_back(ticksToNs(ev.end - ev.start));
    for (obs::Stage st : stages) {
        auto &v = ns[st];
        const std::string base =
            std::string("stage.") + obs::stageName(st) + "_ns.";
        out[base + "p50"] = percentile(v, 0.50);
        out[base + "p99"] = percentile(v, 0.99);
    }
}

void
backendLayers(const obs::Snapshot &start, const obs::Snapshot &end,
              const std::string &prefix, Values &out)
{
    const auto d = [&](const std::string &n) {
        return leaf(end, prefix + n) - leaf(start, prefix + n);
    };
    const auto dimms = [&](const std::string &suffix) {
        return sumLeaves(end, prefix + "dimm", "." + suffix)
               - sumLeaves(start, prefix + "dimm", "." + suffix);
    };

    const double off_out = d("offloadedSwapOuts");
    const double off_in = d("offloadedSwapIns");
    out["xfm.offloaded_swap_outs"] = off_out;
    out["xfm.offloaded_swap_ins"] = off_in;
    out["xfm.cpu_swap_outs"] = d("cpuSwapOuts");
    out["xfm.cpu_swap_ins"] = d("cpuSwapIns");
    out["xfm.nma_fraction"] =
        ratioOr0(off_out + off_in, d("swapOuts") + d("swapIns"));
    out["xfm.fallback_capacity"] = d("fallbackCapacity");
    out["xfm.fallback_deadline"] = d("fallbackDeadline");
    out["xfm.fallback_alloc"] = d("fallbackAlloc");
    out["xfm.offload_retries"] = d("offloadRetries");
    out["xfm.fragmentation_bytes"] =
        leaf(end, prefix + "fragmentationBytes");

    static constexpr std::pair<const char *, const char *> counters[] = {
        {"nma.windows", "windows"},
        {"nma.compress_offloads", "compressOffloads"},
        {"nma.decompress_offloads", "decompressOffloads"},
        {"nma.deferred_executions", "deferredExecutions"},
        {"nma.deadline_drops", "deadlineDrops"},
        {"nma.queue_rejects", "queueRejects"},
    };
    for (const auto &[name, leaf_name] : counters)
        out[name] = dimms(leaf_name);
    const double random = dimms("randomAccesses");
    const double retries = dimms("subarrayConflictRetries");
    out["nma.random_accesses"] = random;
    out["nma.conditional_accesses"] = dimms("conditionalAccesses");
    out["nma.subarray_conflict_retries"] = retries;
    out["nma.conflict_retry_ratio"] = ratioOr0(retries, random + retries);

    const double energy = dimms("accessEnergyNanojoules");
    const double saved = dimms("energySavedNanojoules");
    out["dram.nma_bytes_read"] = dimms("dramBytesRead");
    out["dram.nma_bytes_written"] = dimms("dramBytesWritten");
    out["dram.access_energy_nj"] = energy;
    out["dram.energy_saved_fraction"] = ratioOr0(saved, energy + saved);

    out["compress.model_cpu_cycles"] = d("cpuCycles");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace
{

/** Sum over parts of the fastest trial's time for that part. */
double
fastestPartsSum(const std::vector<std::vector<double>> &trials)
{
    double total = 0.0;
    for (std::size_t j = 0; j < trials.at(0).size(); ++j) {
        double best = trials[0][j];
        for (const auto &t : trials)
            best = std::min(best, t.at(j));
        total += best;
    }
    return total;
}

} // namespace

void
hostFigures(const std::vector<std::vector<double>> &parts,
            const std::vector<std::vector<double>> &reference,
            const std::vector<double> &setups, double swaps,
            double simUs, Result &r)
{
    std::vector<std::vector<double>> scaled = parts;
    std::vector<double> all_reference;
    for (std::size_t k = 0; k < parts.size(); ++k) {
        const double speed = referenceNominalS / median(reference.at(k));
        for (double &p : scaled[k])
            p *= speed;
        all_reference.insert(all_reference.end(), reference[k].begin(),
                             reference[k].end());
    }
    const double window = fastestPartsSum(scaled);
    const double measured = fastestPartsSum(parts);
    const double reference_s = median(all_reference);
    std::printf("  host: window %.3f s as measured, %.3f s at the "
                "reference speed (reference median %.2f ms)\n",
                measured, window, reference_s * 1e3);
    r.endToEnd["swaps_per_s"] = swaps / window;
    r.endToEnd["sim_us_per_s"] = simUs / window;
    r.endToEnd["setup_s"] = median(setups) * referenceNominalS / reference_s;
    r.perLayer["host.reference_ms"] = reference_s * 1e3;
    r.perLayer["host.measured_swaps_per_s"] = swaps / measured;
}

CodecReplay::CodecReplay(compress::Algorithm algo, std::size_t dimms,
                         HostSpans &spans)
    : codec_(compress::makeCompressor(algo)), dimms_(dimms),
      spans_(spans)
{
}

void
CodecReplay::add(const std::vector<Bytes> &pages)
{
    spans_.open("codec_replay", Clock::now());
    for (const Bytes &page : pages) {
        xfmsys::splitPageInto(page, dimms_, xfmsys::defaultInterleave,
                              shards_);
        for (const Bytes &shard : shards_) {
            const auto t0 = Clock::now();
            codec_->compressInto(shard, block_);
            const auto t1 = Clock::now();
            codec_->decompressInto(block_, back_);
            const auto t2 = Clock::now();
            spans_.add("codec.compress", t0, t1);
            spans_.add("codec.decompress", t1, t2);
            comp_s_ += secondsBetween(t0, t1);
            decomp_s_ += secondsBetween(t1, t2);
            raw_ += shard.size();
            stored_ += block_.size();
            mismatches_ += back_ != shard;
        }
    }
    spans_.close(Clock::now());
}

void
CodecReplay::report(Values &out) const
{
    const double mb = static_cast<double>(raw_) / 1e6;
    out["compress.replay_comp_mbps"] = ratioOr0(mb, comp_s_);
    out["compress.replay_decomp_mbps"] = ratioOr0(mb, decomp_s_);
    out["compress.bytes_in"] = static_cast<double>(raw_);
    out["compress.bytes_out"] = static_cast<double>(stored_);
}

} // namespace perfbench
