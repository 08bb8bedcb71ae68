/**
 * @file
 * Determinism property tests: a (seed, fault plan, workload) triple
 * must be perfectly reproducible. Two full-system runs with the
 * same seeds produce byte-identical end-of-run statistics — fault
 * injections included — while changing the fault seed changes the
 * injected sequence. A separate engine-level check pins down the
 * modeled-size path, which once relied on process-wide state and
 * silently diverged between same-seed runs.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "nma/engine.hh"
#include "obs/tracer.hh"
#include "system/system.hh"

namespace xfm
{
namespace
{

using system::BackendKind;
using system::System;
using system::SystemConfig;

SystemConfig
faultedConfig(std::uint64_t fault_seed)
{
    SystemConfig cfg;
    cfg.backend = BackendKind::Xfm;
    cfg.pages = 96;
    cfg.sfmBytes = mib(8);
    cfg.controller.coldThreshold = milliseconds(5.0);
    cfg.controller.scanInterval = milliseconds(1.0);
    cfg.controller.maxSwapOutsPerScan = 16;
    cfg.faultPlan.seed = fault_seed;
    cfg.faultPlan.site(fault::FaultSite::SpmReserveFail).probability =
        0.15;
    cfg.faultPlan.site(fault::FaultSite::EngineStall).probability =
        0.05;
    cfg.faultPlan.site(fault::FaultSite::MmioDoorbellLoss)
        .probability = 0.20;
    return cfg;
}

struct RunResult
{
    std::string stats;            ///< rendered end-of-run stats
    std::string json;             ///< JSON snapshot export
    std::string trace;            ///< JSON-lines trace export
    std::uint64_t injections;     ///< total injected faults
    std::uint64_t shardCpuFallbacks;   ///< breaker-routed CPU shards
    std::uint64_t watchdogShardRedos;  ///< watchdog-redone shards
};

/** How runSystem configures the three-tier hierarchy. */
enum class TierMode
{
    Default,       ///< default-constructed TierConfig (disabled)
    ConfiguredOff, ///< every knob populated, enabled = false
    On,            ///< three tiers + spill scan armed
};

/** How runSystem configures per-page preset dictionaries. */
enum class DictMode
{
    Default,       ///< config never mentions dictionaries
    ConfiguredOff, ///< shardDict = false, dictBytes spelled out
    On,            ///< shardDict = true
};

/** One complete demote/promote run under the given fault seed.
 *  @p armed_health turns on the breakers, a short watchdog and a
 *  quarantine cap, plus uncorrectable ECC faults to fill it. */
RunResult
runSystem(std::uint64_t fault_seed, std::size_t workers = 1,
          std::uint32_t sq_depth = 1, std::uint32_t cq_coalesce = 1,
          TierMode tier_mode = TierMode::Default,
          DictMode dict_mode = DictMode::Default,
          bool armed_health = false)
{
    EventQueue eq;
    SystemConfig cfg = faultedConfig(fault_seed);
    cfg.workers = workers;
    cfg.xfmDevice.sqDepth = sq_depth;
    cfg.xfmDevice.cqCoalesce = cq_coalesce;
    if (tier_mode != TierMode::Default) {
        // Every tier knob spelled out; only `enabled` differs
        // between the configured-off and the tiered run.
        cfg.tier.enabled = tier_mode == TierMode::On;
        cfg.tier.policy = sfm::TierPolicy::Auto;
        cfg.tier.promoteWatermark = 2;
        cfg.tier.scanInterval = milliseconds(1.0);
        cfg.tier.spillColdThreshold = milliseconds(5.0);
        cfg.tier.maxSpillsPerScan = 16;
        cfg.tier.dfmBytes = mib(1);
        cfg.tier.faults = cfg.faultPlan;
        cfg.tier.retry = cfg.retry;
    }
    if (dict_mode != DictMode::Default) {
        // Both knobs spelled out; only `shardDict` differs between
        // the configured-off and the dict-enabled run.
        cfg.shardDict = dict_mode == DictMode::On;
        cfg.dictBytes = 2048;
    }
    if (armed_health) {
        cfg.health.enabled = true;
        cfg.health.window = 8;
        cfg.health.failConsecutive = 2;
        cfg.health.cooldown = microseconds(20.0);
        cfg.xfmDevice.watchdogWindows = 4;
        cfg.quarantineCap = 2;
        cfg.faultPlan.site(fault::FaultSite::EccUncorrectable)
            .probability = 0.05;
    }
    System sys("sys", eq, cfg);
    obs::Tracer tracer(4096);
    sys.setTracer(&tracer);
    for (sfm::VirtPage p = 0; p < 96; ++p)
        sys.writePage(p, compress::generateCorpus(
                             compress::CorpusKind::LogLines, p + 1,
                             pageBytes));
    sys.start();
    eq.run(milliseconds(60.0));
    // Touch pages in a seeded order so promotions also exercise the
    // backend (and its fault sites) deterministically.
    Rng rng(99);
    for (int i = 0; i < 48; ++i) {
        sys.access(rng.uniformInt(96));
        eq.run(eq.now() + milliseconds(1.0));
    }

    RunResult r;
    r.stats = sys.metrics().renderText();
    r.json = sys.metrics().toJson();
    r.trace = tracer.toJsonLines();
    r.injections = sys.faultInjections();
    const obs::Snapshot snap = sys.metrics().snapshot();
    r.shardCpuFallbacks = snap.u64("sys.backend.shardCpuFallbacks");
    r.watchdogShardRedos = snap.u64("sys.backend.watchdogShardRedos");
    return r;
}

/** FNV-1a 64 of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Determinism, SameSeedsSameStats)
{
    const RunResult a = runSystem(7);
    const RunResult b = runSystem(7);
    EXPECT_GT(a.injections, 0u);  // the plan actually fired
    EXPECT_EQ(a.injections, b.injections);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Determinism, SameSeedsByteIdenticalSnapshotAndTrace)
{
    // The observability exports themselves must be reproducible:
    // same seeds, same config => byte-identical stats.json text and
    // byte-identical JSON-lines trace output.
    const RunResult a = runSystem(7);
    const RunResult b = runSystem(7);
    EXPECT_FALSE(a.json.empty());
    EXPECT_FALSE(a.trace.empty());  // tracer saw real requests
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
}

TEST(Determinism, WorkerCountDoesNotChangeResults)
{
    // The parallel shard-compression contract: the worker count is
    // a host-runtime knob only. The metrics snapshot AND the swap
    // trace must be byte-identical for workers = 1 (fully inline),
    // 2, and 8, fault injection included.
    const RunResult w1 = runSystem(7, 1);
    const RunResult w2 = runSystem(7, 2);
    const RunResult w8 = runSystem(7, 8);
    EXPECT_GT(w1.injections, 0u);
    EXPECT_FALSE(w1.json.empty());
    EXPECT_FALSE(w1.trace.empty());
    EXPECT_EQ(w1.stats, w2.stats);
    EXPECT_EQ(w1.stats, w8.stats);
    EXPECT_EQ(w1.json, w2.json);
    EXPECT_EQ(w1.json, w8.json);
    EXPECT_EQ(w1.trace, w2.trace);
    EXPECT_EQ(w1.trace, w8.trace);
    EXPECT_EQ(w1.injections, w8.injections);
}

TEST(Determinism, ExplicitDepthOneMatchesDefault)
{
    // sq_depth = 1 is the documented legacy default: spelling it out
    // must not change a single byte of any export relative to the
    // default-constructed device config (the ring is not built).
    const RunResult def = runSystem(7);
    const RunResult d1 = runSystem(7, 1, 1, 1);
    EXPECT_EQ(def.stats, d1.stats);
    EXPECT_EQ(def.json, d1.json);
    EXPECT_EQ(def.trace, d1.trace);
}

TEST(Determinism, RingDepthEightIsReproducible)
{
    // The async ring reorders completion delivery relative to the
    // legacy path, but it must do so *identically* on every run:
    // same seeds at sq_depth 8 => byte-identical stats, JSON and
    // trace, across worker counts too (OOO reap is simulated-time
    // ordered, not host-thread ordered).
    const RunResult a = runSystem(7, 1, 8, 2);
    const RunResult b = runSystem(7, 1, 8, 2);
    const RunResult w8 = runSystem(7, 8, 8, 2);
    EXPECT_GT(a.injections, 0u);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.stats, w8.stats);
    EXPECT_EQ(a.json, w8.json);
    EXPECT_EQ(a.trace, w8.trace);
}

TEST(Determinism, RuntimeMatrixIsByteIdentical)
{
    // The runtime contract: metrics snapshot, JSON export, and the
    // span trace are byte-identical for EVERY (workers, sq_depth)
    // combination against that depth's golden run — worker threads
    // are a host-runtime knob, never a simulation input. Fault
    // injection schedules included.
    const RunResult base = runSystem(7);
    EXPECT_GT(base.injections, 0u);
    EXPECT_FALSE(base.json.empty());
    EXPECT_FALSE(base.trace.empty());
    for (std::size_t workers : {1, 8}) {
        for (std::uint32_t sq_depth : {1u, 8u}) {
            // The ring reorders completions relative to depth 1
            // (deterministically), so each depth has its own golden
            // run at workers = 1.
            const RunResult golden =
                sq_depth == 1 ? base : runSystem(7, 1, sq_depth, 2);
            const RunResult got = runSystem(7, workers, sq_depth,
                                            sq_depth == 1 ? 1 : 2);
            EXPECT_EQ(got.stats, golden.stats)
                << "workers=" << workers << " sq_depth=" << sq_depth;
            EXPECT_EQ(got.json, golden.json)
                << "workers=" << workers << " sq_depth=" << sq_depth;
            EXPECT_EQ(got.trace, golden.trace)
                << "workers=" << workers << " sq_depth=" << sq_depth;
            EXPECT_EQ(got.injections, golden.injections);
        }
    }
}

TEST(Determinism, ExplicitRefAbMatchesDefault)
{
    // Refresh-realism opt-out contract: spelling out the default
    // refresh config (all-bank REF, RFM disarmed, no HiRA) must not
    // change a single byte of any export relative to a run that
    // never mentioned refresh — the disarmed controller takes the
    // exact legacy code path (refreshRealismArmed() == false).
    const RunResult def = runSystem(7);
    EventQueue eq;
    SystemConfig cfg = faultedConfig(7);
    cfg.dimmDevice.refreshMode = dram::RefreshMode::RefAb;
    cfg.dimmDevice.rfmRaaimt = 0;
    cfg.dimmDevice.rfmRaammt = 0;
    cfg.dimmDevice.hira = false;
    System sys("sys", eq, cfg);
    obs::Tracer tracer(4096);
    sys.setTracer(&tracer);
    for (sfm::VirtPage p = 0; p < 96; ++p)
        sys.writePage(p, compress::generateCorpus(
                             compress::CorpusKind::LogLines, p + 1,
                             pageBytes));
    sys.start();
    eq.run(milliseconds(60.0));
    Rng rng(99);
    for (int i = 0; i < 48; ++i) {
        sys.access(rng.uniformInt(96));
        eq.run(eq.now() + milliseconds(1.0));
    }
    EXPECT_EQ(def.stats, sys.metrics().renderText());
    EXPECT_EQ(def.json, sys.metrics().toJson());
    EXPECT_EQ(def.trace, tracer.toJsonLines());
    EXPECT_EQ(def.injections, sys.faultInjections());
}

TEST(Determinism, TieringOffMatchesDefault)
{
    // The hard invariant of the tier layer: a fully populated but
    // DISABLED tier config is byte-identical to a run that never
    // mentioned tiering — no TierManager is built, no access-path
    // hook fires, no metric appears.
    const RunResult def = runSystem(7);
    const RunResult off =
        runSystem(7, 1, 1, 1, TierMode::ConfiguredOff);
    EXPECT_EQ(def.stats, off.stats);
    EXPECT_EQ(def.json, off.json);
    EXPECT_EQ(def.trace, off.trace);
    EXPECT_EQ(def.injections, off.injections);
}

TEST(Determinism, TieredMatrixIsByteIdentical)
{
    // Tiering on extends the determinism matrix: the spill scan,
    // the DFM link, and the promote-on-fault path must replay
    // byte-identically across worker counts — and differently from
    // the non-tiered run (the tiers actually engaged).
    const RunResult base = runSystem(7, 1, 1, 1, TierMode::On);
    const RunResult plain = runSystem(7);
    EXPECT_GT(base.injections, 0u);
    EXPECT_FALSE(base.json.empty());
    EXPECT_FALSE(base.trace.empty());
    EXPECT_NE(base.stats, plain.stats);
    EXPECT_NE(base.json.find(".tier."), std::string::npos);
    for (std::size_t workers : {1, 8}) {
        const RunResult got =
            runSystem(7, workers, 1, 1, TierMode::On);
        EXPECT_EQ(got.stats, base.stats) << "workers=" << workers;
        EXPECT_EQ(got.json, base.json) << "workers=" << workers;
        EXPECT_EQ(got.trace, base.trace) << "workers=" << workers;
        EXPECT_EQ(got.injections, base.injections);
    }
}

TEST(Determinism, TieredRingIsReproducible)
{
    // Tiering composed with the async command rings: sq_depth = 8
    // reorders completion delivery under the tier router too, and
    // must do so identically on every run and at any worker count.
    const RunResult a = runSystem(7, 1, 8, 2, TierMode::On);
    const RunResult b = runSystem(7, 8, 8, 2, TierMode::On);
    EXPECT_GT(a.injections, 0u);
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
}

TEST(Determinism, ExplicitDictOffMatchesDefault)
{
    // Preset-dictionary opt-out contract (DESIGN.md §16): spelling
    // out xfm.shard_dict = 0 with the default dict_bytes must not
    // change a single byte of any export relative to a run that
    // never mentioned dictionaries — no dictionary is sampled, no
    // packed dict is placed, no stat appears.
    const RunResult def = runSystem(7);
    const RunResult off = runSystem(7, 1, 1, 1, TierMode::Default,
                                    DictMode::ConfiguredOff);
    EXPECT_EQ(def.stats, off.stats);
    EXPECT_EQ(def.json, off.json);
    EXPECT_EQ(def.trace, off.trace);
    EXPECT_EQ(def.injections, off.injections);
}

TEST(Determinism, DictMatrixIsByteIdentical)
{
    // Dictionaries on extend the determinism matrix: sampling,
    // per-shard adaptive fallback, and water-filled placement must
    // replay byte-identically across worker counts and ring depths
    // — and differently from the plain run (the dictionaries
    // actually engaged).
    const RunResult base =
        runSystem(7, 1, 1, 1, TierMode::Default, DictMode::On);
    const RunResult plain = runSystem(7);
    EXPECT_GT(base.injections, 0u);
    EXPECT_FALSE(base.json.empty());
    EXPECT_FALSE(base.trace.empty());
    EXPECT_NE(base.stats, plain.stats);
    for (std::size_t workers : {1, 8}) {
        const RunResult got = runSystem(7, workers, 1, 1,
                                        TierMode::Default, DictMode::On);
        EXPECT_EQ(got.stats, base.stats) << "workers=" << workers;
        EXPECT_EQ(got.json, base.json) << "workers=" << workers;
        EXPECT_EQ(got.trace, base.trace) << "workers=" << workers;
        EXPECT_EQ(got.injections, base.injections);
    }
    // Composed with the async command rings: depth 8 has its own
    // golden (the ring reorders completions deterministically).
    const RunResult ring1 =
        runSystem(7, 1, 8, 2, TierMode::Default, DictMode::On);
    const RunResult ring2 =
        runSystem(7, 8, 8, 2, TierMode::Default, DictMode::On);
    EXPECT_EQ(ring1.stats, ring2.stats);
    EXPECT_EQ(ring1.json, ring2.json);
    EXPECT_EQ(ring1.trace, ring2.trace);
}

TEST(Determinism, DifferentFaultSeedDiverges)
{
    const RunResult a = runSystem(7);
    const RunResult c = runSystem(8);
    // Same workload, different fault RNG: the injected sequence must
    // differ somewhere observable.
    EXPECT_NE(a.stats, c.stats);
}

/** The whole-system exports are behaviour: the stats text, JSON
 *  snapshot and trace of each configuration row are pinned by
 *  digest, so a refactor of the offload path (backend skeleton,
 *  CPU shard codec, device submit/abort/delivery, legacy queue and
 *  command ring) must reproduce them byte for byte. The health rows
 *  run the breaker-routed hybrid shards and the watchdog redo. */
TEST(SystemGolden, SnapshotAndTraceDigestsArePinned)
{
    struct Golden
    {
        const char *name;
        RunResult run;
        std::uint64_t stats;
        std::uint64_t json;
        std::uint64_t trace;
    };
    const Golden golden[] = {
        {"default", runSystem(7), 0xa36852e34bd09291ull,
         0xe0337b64e1fddd38ull, 0xe0f392bd6df981fcull},
        {"depth8", runSystem(7, 1, 8, 2), 0x5300c0dce866cf9bull,
         0x832dd50f9c1ca9b2ull, 0xefa8d50f5a3be2b3ull},
        {"dict",
         runSystem(7, 1, 1, 1, TierMode::Default, DictMode::On),
         0x97c3b51fb0e56946ull, 0xcb875de8cffd8d79ull,
         0xe0f392bd6df981fcull},
        {"tier", runSystem(7, 1, 1, 1, TierMode::On),
         0xc4a4424404f8cc73ull, 0x9a012b59fb9b2370ull,
         0xcbc5b550be0f815aull},
        {"health-depth1",
         runSystem(7, 1, 1, 1, TierMode::Default, DictMode::Default,
                   true),
         0xd4955c6659b5861eull, 0x08dafff6485940e2ull,
         0x55876d8d24ebc9ecull},
        {"health-depth8",
         runSystem(7, 1, 8, 2, TierMode::Default, DictMode::Default,
                   true),
         0xaf928f9fc62b687dull, 0x6fdc4158e5d17b27ull,
         0xa29eaa09849b8886ull},
    };
    for (const auto &g : golden) {
        EXPECT_EQ(fnv1a(g.run.stats), g.stats)
            << g.name << " stats: 0x" << std::hex << fnv1a(g.run.stats);
        EXPECT_EQ(fnv1a(g.run.json), g.json)
            << g.name << " json: 0x" << std::hex << fnv1a(g.run.json);
        EXPECT_EQ(fnv1a(g.run.trace), g.trace)
            << g.name << " trace: 0x" << std::hex << fnv1a(g.run.trace);
    }
    for (const auto *g : {&golden[4], &golden[5]}) {
        EXPECT_GT(g->run.shardCpuFallbacks, 0u) << g->name;
        EXPECT_GT(g->run.watchdogShardRedos, 0u) << g->name;
    }
}

TEST(Determinism, ModeledEngineIsPerEngineState)
{
    // Size-model mode uses a jitter counter that must be per-engine:
    // two engines fed identical inputs — in the same process — must
    // emit identical size sequences. (A process-wide counter passes
    // single-engine tests but breaks same-seed reruns.)
    nma::EngineProfile profile;
    profile.modeledRatio = 3.0;
    nma::CompressionEngine a(compress::Algorithm::ZstdLike, profile);
    nma::CompressionEngine b(compress::Algorithm::ZstdLike, profile);
    const Bytes input(pageBytes, 0x5A);
    for (int i = 0; i < 64; ++i) {
        const auto [out_a, lat_a] = a.compress(input);
        const auto [out_b, lat_b] = b.compress(input);
        ASSERT_EQ(out_a.size(), out_b.size())
            << "modeled sizes diverged at call " << i;
        EXPECT_EQ(lat_a, lat_b);
    }
}

} // namespace
} // namespace xfm
