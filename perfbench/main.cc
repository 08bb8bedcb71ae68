/**
 * @file
 * xfm_perfbench: the repository's benchmark.
 *
 *   xfm_perfbench --workload fleet_steady|fleet_surge|cpu_swap
 *                 --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * A run prints a human-readable report, then as its last line one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end table below; with
 * --trace 1 they are the per-layer table, from a traced trial
 * between two untraced trials of the same workload. Exit status is 0
 * only when every correctness check held.
 */

#include <cmath>
#include <cstdlib>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

struct Column
{
    const char *name;
    const char *unit;
};

const Column endToEndColumns[] = {
    {"swaps_per_s", "1/s"},
    {"sim_us_per_s", "us/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"cpu_fraction", "fraction"},
    {"cpu_cycles_per_swap", "cycles"},
    {"stored_ratio", "ratio"},
};

const Column perLayerColumns[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.pending_max", "count"},
    {"service.access_host_s", "s"},
    {"service.arbiter.dispatched", "count"},
    {"service.arbiter.preemptions", "count"},
    {"service.arbiter.throttled_windows", "count"},
    {"service.arbiter.wait_ns_mean", "ns"},
    {"service.quota_rejects", "count"},
    {"service.shed_rejects", "count"},
    {"fault_p50_ns", "ns"},
    {"fault_p99_ns", "ns"},
    {"fault_samples", "count"},
    {"failed_ops_frac", "fraction"},
    {"sfm.scans", "count"},
    {"sfm.cold_pages_found", "count"},
    {"sfm.swap_outs_initiated", "count"},
    {"sfm.prefetch_hits", "count"},
    {"xfm.offloaded_swap_outs", "count"},
    {"xfm.offloaded_swap_ins", "count"},
    {"xfm.cpu_swap_outs", "count"},
    {"xfm.cpu_swap_ins", "count"},
    {"xfm.nma_fraction", "fraction"},
    {"xfm.fallback_capacity", "count"},
    {"xfm.fallback_deadline", "count"},
    {"xfm.fallback_alloc", "count"},
    {"xfm.offload_retries", "count"},
    {"xfm.fragmentation_bytes", "bytes"},
    {"xfm.swap_out_host_us.p50", "us"},
    {"xfm.swap_out_host_us.p99", "us"},
    {"xfm.swap_in_host_us.p50", "us"},
    {"xfm.swap_in_host_us.p99", "us"},
    {"nma.slice_host_us.p50", "us"},
    {"nma.slice_host_us.p99", "us"},
    {"nma.spm_backlog.mean", "count"},
    {"nma.spm_backlog.max", "count"},
    {"nma.pending_reads.mean", "count"},
    {"nma.pending_reads.max", "count"},
    {"nma.windows", "count"},
    {"nma.compress_offloads", "count"},
    {"nma.decompress_offloads", "count"},
    {"nma.deferred_executions", "count"},
    {"nma.deadline_drops", "count"},
    {"nma.queue_rejects", "count"},
    {"nma.random_accesses", "count"},
    {"nma.conditional_accesses", "count"},
    {"nma.subarray_conflict_retries", "count"},
    {"nma.conflict_retry_ratio", "fraction"},
    {"dram.nma_bytes_read", "bytes"},
    {"dram.nma_bytes_written", "bytes"},
    {"dram.access_energy_nj", "nJ"},
    {"dram.energy_saved_fraction", "fraction"},
    {"compress.bytes_in", "bytes"},
    {"compress.bytes_out", "bytes"},
    {"compress.model_cpu_cycles", "cycles"},
    {"compress.replay_comp_mbps", "MB/s"},
    {"compress.replay_decomp_mbps", "MB/s"},
    {"stage.queue_ns.p50", "ns"},
    {"stage.queue_ns.p99", "ns"},
    {"stage.window_wait_ns.p50", "ns"},
    {"stage.window_wait_ns.p99", "ns"},
    {"stage.engine_ns.p50", "ns"},
    {"stage.engine_ns.p99", "ns"},
    {"stage.spm_stage_ns.p50", "ns"},
    {"stage.spm_stage_ns.p99", "ns"},
    {"stage.writeback_ns.p50", "ns"},
    {"stage.writeback_ns.p99", "ns"},
    {"stage.cpu_compute_ns.p50", "ns"},
    {"stage.cpu_compute_ns.p99", "ns"},
    {"trace.overhead_frac", "fraction"},
    {"trace.dropped", "count"},
    {"host.reference_ms", "ms"},
    {"host.measured_swaps_per_s", "1/s"},
};

// Workload sizes. Simulated horizons are fixed so every simulated
// figure is a pure function of the seed; --seconds only decides how
// many identical trials the host-clock figures are taken over.
const FleetShape steadyShape{"fleet_steady", 64, 100000.0, 5.0, 1.0, 6,
                             std::size_t(1) << 20};
const FleetShape surgeShape{"fleet_surge", 128, 50000.0, 0.0, 1.0, 9,
                            std::size_t(1) << 20};
const CpuSwapShape cpuShape{1024, 6, std::size_t(1) << 17};

// Tiny sizes for the determinism self-test: long enough for the
// first reclaim scans to swap pages out and back in.
const FleetShape tinyFleet{"selftest_fleet", 8, 100000.0, 2.0, 0.5, 2,
                           std::size_t(1) << 16};
const CpuSwapShape tinyCpu{40, 2, std::size_t(1) << 12};

/** Run one workload by name with the given options. */
Result
runWorkload(const std::string &w, const RunOptions &opt)
{
    if (w == "fleet_steady")
        return runFleet(steadyShape, opt);
    if (w == "fleet_surge")
        return runFleet(surgeShape, opt);
    return runCpuSwap(cpuShape, opt);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: xfm_perfbench --workload "
                 "fleet_steady|fleet_surge|cpu_swap --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n");
}

/** Print the report table, then the JSON result line. */
bool
emit(const Result &r, bool trace)
{
    bool complete = true;
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    const auto add = [&](const Column &c, const Values &from,
                         bool to_json) {
        const auto it = from.find(c.name);
        double v = it == from.end() ? NAN : it->second;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: metric %s missing\n",
                         c.name);
            complete = false;
            v = 0.0;
        }
        std::printf("  %-36s %18.6f %s\n", c.name, v, c.unit);
        if (!to_json)
            return;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.back() == '{' ? "" : ", ", c.name, v, c.unit);
        json += buf;
    };
    std::printf("end-to-end:\n");
    for (const Column &c : endToEndColumns)
        add(c, r.endToEnd, !trace);
    std::printf("per-layer:\n");
    for (const Column &c : perLayerColumns)
        // Untraced runs lack the trace-derived columns; show the rest.
        if (trace || r.perLayer.count(c.name))
            add(c, r.perLayer, trace);
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(r.digest));
    json += "}}";
    std::printf("%s\n", json.c_str());
    return complete;
}

/**
 * Tiny-size determinism self-test: each workload family twice with
 * one seed (identical simulated figures and digest required) and
 * once with the next seed (a different digest required).
 *
 * @return true when every check held.
 */
bool
selfTest(std::uint64_t seed)
{
    RunOptions opt;
    opt.seed = seed;
    opt.seconds = 0.0;
    opt.minTrials = opt.maxTrials = opt.minSetups = 1;
    bool ok = true;
    const auto check = [&](const char *what, auto run) {
        RunOptions other = opt;
        other.seed = seed + 1;
        const Result a = run(opt), b = run(opt), c = run(other);
        const bool same = a.sim == b.sim && a.digest == b.digest;
        // The digest covers the snapshots and every simulated figure;
        // single figures such as slot-quantized ratios may coincide.
        const bool differs = a.digest != c.digest;
        const bool correct = a.correct && b.correct && c.correct;
        std::printf("selftest %s: same seed %s, other seed %s, "
                    "checks %s\n",
                    what, same ? "identical" : "DIVERGED",
                    differs ? "differs" : "IDENTICAL",
                    correct ? "pass" : "FAIL");
        ok &= same && differs && correct;
    };
    check("fleet", [](const RunOptions &o) {
        return runFleet(tinyFleet, o);
    });
    check("cpu_swap", [](const RunOptions &o) {
        return runCpuSwap(tinyCpu, o);
    });
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_dir;
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            opt.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            opt.trace = std::atoi(argv[++i]) != 0;
        } else if (a == "--trace-dir" && has_value) {
            opt.traceDir = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (workload != "fleet_steady" && workload != "fleet_surge"
        && workload != "cpu_swap") {
        usage();
        return 2;
    }

    if (workload != "cpu_swap") {
        // A fleet trial measures 5-20 s of host time; two trials
        // give every part a second copy to take the faster of.
        opt.minTrials = 2;
        opt.maxTrials = 4;
    }
    std::printf("workload %s, seed %llu, trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0);
    const bool self_ok = selfTest(opt.seed);
    Result r = runWorkload(workload, opt);
    if (!self_ok)
        r.fail("determinism self-test failed");
    const bool complete = emit(r, opt.trace);
    return r.correct && complete ? 0 : 1;
}
