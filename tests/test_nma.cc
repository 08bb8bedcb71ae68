/**
 * @file
 * Tests for the NMA: scratchpad accounting, MMIO registers, request
 * queue, engine timing, and the refresh-window scheduler's
 * conditional/random access behaviour (paper Sec. 5 and Fig. 10).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "compress/dict.hh"
#include "dram/address_map.hh"
#include "dram/ecc.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "fault/fault.hh"
#include "nma/engine.hh"
#include "nma/mmio.hh"
#include "nma/spm.hh"
#include "nma/xfm_device.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "xfm/xfm_driver.hh"

namespace xfm
{
namespace nma
{
namespace
{

// ------------------------------------------------------------------ SPM

TEST(ScratchPad, ReserveTracksBytes)
{
    ScratchPad spm(1000);
    EXPECT_EQ(spm.freeBytes(), 1000u);
    EXPECT_TRUE(spm.reserve(1, OffloadKind::Compress, 400));
    EXPECT_EQ(spm.usedBytes(), 400u);
    EXPECT_TRUE(spm.reserve(2, OffloadKind::Compress, 600));
    EXPECT_EQ(spm.freeBytes(), 0u);
    EXPECT_FALSE(spm.reserve(3, OffloadKind::Compress, 1));
}

TEST(ScratchPad, CompleteTrimsReservation)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 500));
    spm.complete(1, Bytes(120, 0xAB));
    EXPECT_EQ(spm.usedBytes(), 120u);
    EXPECT_EQ(spm.entry(1).tag, SpmTag::Completed);
    EXPECT_EQ(spm.entry(1).data.size(), 120u);
}

TEST(ScratchPad, WritebackRequiresDestination)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 100));
    spm.complete(1, Bytes(50, 1));
    EXPECT_TRUE(spm.writebackIds().empty());  // no destination yet
    spm.setDestination(1, 0x1000);
    ASSERT_EQ(spm.writebackIds().size(), 1u);
    EXPECT_EQ(spm.writebackIds()[0], 1u);
}

TEST(ScratchPad, TakeFreesBytes)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 100));
    spm.complete(1, Bytes(80, 2));
    spm.setDestination(1, 0);
    const SpmEntry e = spm.take(1);
    EXPECT_EQ(e.data.size(), 80u);
    EXPECT_EQ(spm.usedBytes(), 0u);
    EXPECT_EQ(spm.entryCount(), 0u);
}

TEST(ScratchPad, ReleaseAbandonsEntry)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Decompress, 300));
    spm.release(1);
    EXPECT_EQ(spm.usedBytes(), 0u);
}

TEST(ScratchPad, WritebackIdsFifoOrder)
{
    ScratchPad spm(4096);
    // Committed out of order: the ready index still lists by id.
    for (OffloadId id : {3u, 1u, 2u}) {
        ASSERT_TRUE(spm.reserve(id, OffloadKind::Compress, 64));
        spm.complete(id, Bytes(32, static_cast<std::uint8_t>(id)));
        spm.setDestination(id, id * 0x100);
    }
    for (OffloadId expect = 1; expect <= 3; ++expect) {
        const std::vector<OffloadId> ids = spm.writebackIds();
        ASSERT_EQ(ids.size(), 4 - expect);
        EXPECT_EQ(ids.front(), expect);
        EXPECT_EQ(spm.take(ids.front()).id, expect);
    }
    EXPECT_TRUE(spm.writebackIds().empty());
    EXPECT_EQ(spm.usedBytes(), 0u);
}

TEST(ScratchPad, PartitionCapRejectsOnlyThatPartition)
{
    ScratchPad spm(1000);
    spm.setPartitionCap(1, 200);
    // Partition 1 is capped at 200 bytes...
    EXPECT_TRUE(spm.reserve(1, OffloadKind::Compress, 150, 1));
    EXPECT_FALSE(spm.reserve(2, OffloadKind::Compress, 100, 1));
    EXPECT_EQ(spm.partitionUsed(1), 150u);
    // ...while partition 0 still sees the global capacity.
    EXPECT_TRUE(spm.reserve(3, OffloadKind::Compress, 700));
    EXPECT_EQ(spm.usedBytes(), 850u);
}

TEST(ScratchPad, PartitionChargeFollowsEntryLifecycle)
{
    ScratchPad spm(1000);
    spm.setPartitionCap(1, 300);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 300, 1));
    EXPECT_FALSE(spm.reserve(2, OffloadKind::Compress, 1, 1));
    // Completion trims the reservation to the real output size,
    // returning headroom to the partition.
    spm.complete(1, Bytes(80, 0xCD));
    EXPECT_EQ(spm.partitionUsed(1), 80u);
    EXPECT_TRUE(spm.reserve(2, OffloadKind::Compress, 200, 1));
    // Release/take uncharge the partition entirely.
    spm.release(2);
    spm.setDestination(1, 0x100);
    spm.take(1);
    EXPECT_EQ(spm.partitionUsed(1), 0u);
    EXPECT_EQ(spm.usedBytes(), 0u);
}

TEST(ScratchPad, PartitionCapRemovalAndDefaults)
{
    ScratchPad spm(1000);
    EXPECT_EQ(spm.partitionCap(1), 0u);  // uncapped by default
    spm.setPartitionCap(1, 100);
    EXPECT_EQ(spm.partitionCap(1), 100u);
    EXPECT_FALSE(spm.reserve(1, OffloadKind::Compress, 150, 1));
    spm.setPartitionCap(1, 0);  // removing the cap re-opens it
    EXPECT_TRUE(spm.reserve(1, OffloadKind::Compress, 150, 1));
}

// ----------------------------------------------------------------- MMIO

TEST(Mmio, ReadOnlyRegisterReflectsLiveValue)
{
    RegisterFile regs;
    std::uint64_t live = 7;
    regs.bindReadOnly(Reg::SpCapacity, [&] { return live; });
    EXPECT_EQ(regs.read(Reg::SpCapacity), 7u);
    live = 99;
    EXPECT_EQ(regs.read(Reg::SpCapacity), 99u);
    EXPECT_EQ(regs.reads(), 2u);
}

TEST(Mmio, WriteToReadOnlyIsFatal)
{
    RegisterFile regs;
    regs.bindReadOnly(Reg::SpCapacity, [] { return 0ull; });
    EXPECT_THROW(regs.write(Reg::SpCapacity, 1), FatalError);
}

TEST(Mmio, ReadWriteRegister)
{
    RegisterFile regs;
    regs.write(Reg::SfmRegionBase, 0xDEAD000);
    EXPECT_EQ(regs.read(Reg::SfmRegionBase), 0xDEAD000u);
    EXPECT_EQ(regs.writes(), 1u);
}

TEST(Mmio, QueueBounded)
{
    CompressRequestQueue q(2);
    OffloadRequest r;
    r.size = 4096;
    EXPECT_TRUE(q.push(r));
    EXPECT_TRUE(q.push(r));
    EXPECT_FALSE(q.push(r));
    EXPECT_TRUE(q.full());
    q.pop();
    EXPECT_FALSE(q.full());
}

// --------------------------------------------------------------- engine

TEST(Engine, CompressRoundTripsAndTimes)
{
    CompressionEngine eng(compress::Algorithm::ZstdLike);
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::Json, 1, 4096);
    auto [block, clat] = eng.compress(page);
    EXPECT_LT(block.size(), page.size());
    auto [raw, dlat] = eng.decompress(block);
    EXPECT_EQ(raw, page);
    // 4096 B at 14.8 GB/s ~ 277 ns; at 17.2 GB/s ~ 238 ns.
    EXPECT_NEAR(ticksToNs(clat), 4096 / 14.8, 1.0);
    EXPECT_NEAR(ticksToNs(dlat), 4096 / 17.2, 1.0);
    EXPECT_EQ(eng.bytesCompressed(), 4096u);
    EXPECT_EQ(eng.bytesDecompressed(), 4096u);
}

TEST(Engine, FpgaProfileIsSlower)
{
    CompressionEngine fast(compress::Algorithm::LzFast);
    CompressionEngine slow(compress::Algorithm::LzFast,
                           EngineProfile::fpgaSoftCore());
    const Bytes page(4096, 0x55);
    EXPECT_GT(slow.compress(page).second, fast.compress(page).second);
}

TEST(Engine, WorstCaseBoundsStoredBlock)
{
    // All codecs fall back to a stored block of size + 5 <= size+16.
    CompressionEngine eng(compress::Algorithm::Deflate);
    Rng rng(7);
    Bytes noise(4096);
    for (auto &b : noise)
        b = static_cast<std::uint8_t>(rng.next());
    auto [block, lat] = eng.compress(noise);
    (void)lat;
    EXPECT_LE(block.size(),
              CompressionEngine::worstCaseCompressedSize(4096));
}

/** The deferred entry points (XfmDevice) and the sync ones (the
 *  lockout device) agree on bytes, latency and byte counters:
 *  plain and dict shards and the size model, with no pool and with
 *  a 2-worker pool, decompressing with the expected size and with
 *  0 (run inline, charged from the actual output). */
TEST(EngineJobs, SyncAndDeferredAgree)
{
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::Json, 7, 4096);
    const auto dict = std::make_shared<const Bytes>(
        compress::buildPresetDictionary(page, 256, 2048));
    EngineProfile model;
    model.modeledRatio = 2.5;
    struct Case
    {
        const char *name;
        EngineProfile profile;
        std::shared_ptr<const Bytes> dict;
    };
    const Case cases[] = {
        {"plain", {}, nullptr},
        {"dict", {}, dict},
        {"model", model, nullptr},
    };
    compress::ScratchArena arena;
    const auto stage = [&](ByteSpan bytes) {
        auto lease = arena.acquire(bytes.size());
        lease->assign(bytes.begin(), bytes.end());
        return lease;
    };
    for (const std::size_t workers : {0, 2}) {
        for (const auto &c : cases) {
            SCOPED_TRACE(std::string(c.name) + " workers "
                         + std::to_string(workers));
            CompressionEngine sync(compress::Algorithm::ZstdLike,
                                   c.profile);
            CompressionEngine deferred(compress::Algorithm::ZstdLike,
                                       c.profile);
            std::optional<WorkerPool> pool;
            if (workers) {
                pool.emplace(workers);
                sync.setWorkerPool(&*pool);
                deferred.setWorkerPool(&*pool);
            }
            const bool modeled = c.profile.modeledRatio > 0.0;
            std::size_t ref_blocks = 0;
            for (std::size_t q = 0; q < 4; ++q) {
                const ByteSpan shard{page.data() + q * 1024, 1024};
                const auto [want, clat] = sync.compress(shard, c.dict);
                auto [job, dclat] =
                    deferred.compressDeferred(stage(shard), c.dict);
                const Bytes block = job.take();
                EXPECT_EQ(block, want);
                EXPECT_EQ(dclat, clat);
                ref_blocks += compress::isDictRefBlock(block);

                for (const std::uint32_t expected : {1024u, 0u}) {
                    if (modeled && expected == 0)
                        continue;  // the size model needs the size
                    const auto [raw, rlat] =
                        sync.decompress(block, expected, c.dict);
                    if (!modeled) {
                        EXPECT_EQ(raw, Bytes(shard.begin(), shard.end()));
                    }
                    auto [djob, dlat] = deferred.decompressDeferred(
                        stage(block), expected, c.dict);
                    EXPECT_EQ(djob.take(), raw);
                    EXPECT_EQ(dlat, rlat);
                }
            }
            EXPECT_EQ(ref_blocks > 0, c.dict != nullptr);
            EXPECT_EQ(deferred.bytesCompressed(), sync.bytesCompressed());
            EXPECT_EQ(deferred.bytesDecompressed(),
                      sync.bytesDecompressed());
            EXPECT_EQ(sync.bytesCompressed(), 4096u);
            EXPECT_EQ(sync.bytesDecompressed(), modeled ? 4096u : 8192u);
        }
    }
}

// ------------------------------------------------------------ XfmDevice

/** Single-channel, single-rank memory system for device testing. */
dram::MemSystemConfig
deviceTestConfig()
{
    dram::MemSystemConfig cfg;
    cfg.rank.device = dram::ddr5Device32Gb();
    cfg.channels = 1;
    cfg.dimmsPerChannel = 1;
    cfg.ranksPerDimm = 1;
    return cfg;
}

class XfmDeviceTest : public ::testing::Test
{
  protected:
    XfmDeviceTest()
        : cfg_(deviceTestConfig()), map_(cfg_),
          mem_(cfg_.totalCapacityBytes()),
          refresh_("refresh", eq_, cfg_.rank.device, 1)
    {}

    /** Build a device with the given knobs and start refresh. */
    XfmDevice &
    makeDevice(XfmDeviceConfig dcfg = {})
    {
        device_.emplace("xfm0", eq_, dcfg, map_, mem_, refresh_);
        refresh_.start();
        return *device_;
    }

    /** Physical address of the first byte of DRAM row @p row in the
     *  bank pair (contiguous 4 KiB lives in one row pair). */
    std::uint64_t
    rowAddr(std::uint32_t row) const
    {
        dram::DramCoord c{};
        c.row = row;
        return map_.encode(c);
    }

    EventQueue eq_;
    dram::MemSystemConfig cfg_;
    dram::AddressMap map_;
    dram::PhysMem mem_;
    dram::RefreshController refresh_;
    std::optional<XfmDevice> device_;
};

TEST_F(XfmDeviceTest, CompressOffloadEndToEnd)
{
    auto &dev = makeDevice();
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::Html, 3, 4096);
    mem_.write(rowAddr(100), page);

    std::optional<OffloadCompletion> completion;
    Tick writeback_at = 0;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        completion = c;
        // Backend allocates space and commits the destination.
        dev.commitWriteback(c.id, rowAddr(5000));
    });
    dev.setWritebackCallback(
        [&](OffloadId, Tick t) { writeback_at = t; });

    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(100);
    req.size = 4096;
    const OffloadId id = dev.submit(req);
    EXPECT_NE(id, invalidOffloadId);

    eq_.run(cfg_.rank.device.retention);
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->id, id);
    EXPECT_LT(completion->outputSize, 4096u);
    EXPECT_GT(writeback_at, 0u);

    // Compressed block in DRAM decompresses back to the page.
    const Bytes block = mem_.read(rowAddr(5000), completion->outputSize);
    auto codec = compress::makeCompressor(dev.config().algorithm);
    EXPECT_EQ(codec->decompress(block), page);
}

TEST_F(XfmDeviceTest, DecompressOffloadEndToEnd)
{
    auto &dev = makeDevice();
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::CsvTable, 9,
                                 4096);
    auto codec = compress::makeCompressor(dev.config().algorithm);
    const Bytes block = codec->compress(page);
    mem_.write(rowAddr(7), block);

    Tick writeback_at = 0;
    dev.setWritebackCallback(
        [&](OffloadId, Tick t) { writeback_at = t; });

    OffloadRequest req;
    req.kind = OffloadKind::Decompress;
    req.srcAddr = rowAddr(7);
    req.size = static_cast<std::uint32_t>(block.size());
    req.dstAddr = rowAddr(9000);
    req.rawSize = 4096;
    ASSERT_NE(dev.submit(req), invalidOffloadId);

    eq_.run(cfg_.rank.device.retention);
    EXPECT_GT(writeback_at, 0u);
    EXPECT_EQ(mem_.read(rowAddr(9000), 4096), page);
    EXPECT_EQ(dev.stats().decompressOffloads, 1u);
}

TEST_F(XfmDeviceTest, MinimumLatencyIsTwoRefreshIntervals)
{
    // Fig. 10: an offload reads in one tRFC and writes back in a
    // later one, so end-to-end latency is at least ~2 windows for a
    // random-row target (and never less than one tREFI).
    auto &dev = makeDevice();
    const Bytes page(4096, 0x42);
    // Row far from the initial refresh counter => random access.
    mem_.write(rowAddr(60000), page);

    Tick writeback_at = 0;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        dev.commitWriteback(c.id, rowAddr(60010));
    });
    dev.setWritebackCallback(
        [&](OffloadId, Tick t) { writeback_at = t; });

    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(60000);
    req.size = 4096;
    dev.submit(req);
    eq_.run(cfg_.rank.device.retention);

    const Tick trefi = cfg_.rank.device.tREFI();
    EXPECT_GE(writeback_at, trefi);
    EXPECT_LE(writeback_at, 4 * trefi);
}

TEST_F(XfmDeviceTest, ConditionalAccessWhenRowInRefreshSet)
{
    // Row 0 is refreshed by the very first REF command, so a read
    // targeting row 0 must be classified conditional.
    auto &dev = makeDevice();
    mem_.write(rowAddr(0), Bytes(4096, 1));
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(0);
    req.size = 4096;
    dev.submit(req);
    eq_.run(0);  // first window fires at tick 0
    EXPECT_EQ(dev.stats().conditionalAccesses, 1u);
    EXPECT_EQ(dev.stats().randomAccesses, 0u);
}

TEST_F(XfmDeviceTest, RandomAccessForNonRefreshedRow)
{
    XfmDeviceConfig dcfg;
    dcfg.maxRandomPerWindow = 1;
    auto &dev = makeDevice(dcfg);
    mem_.write(rowAddr(60000), Bytes(4096, 2));
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(60000);
    req.size = 4096;
    dev.submit(req);
    eq_.run(0);
    EXPECT_EQ(dev.stats().randomAccesses, 1u);
    EXPECT_EQ(dev.stats().conditionalAccesses, 0u);
}

TEST_F(XfmDeviceTest, RandomBudgetEnforcedPerWindow)
{
    XfmDeviceConfig dcfg;
    dcfg.maxAccessesPerWindow = 3;
    dcfg.maxRandomPerWindow = 1;
    auto &dev = makeDevice(dcfg);
    // Three offloads, all on non-refreshed rows: only one random
    // access may happen in the first window.
    for (std::uint32_t i = 0; i < 3; ++i) {
        mem_.write(rowAddr(50000 + 16 * i), Bytes(4096, 3));
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = rowAddr(50000 + 16 * i);
        req.size = 4096;
        dev.submit(req);
    }
    eq_.run(0);
    EXPECT_EQ(dev.stats().randomAccesses, 1u);
    EXPECT_EQ(dev.pendingReads(), 2u);
}

TEST_F(XfmDeviceTest, QueueDepthBoundsAdmission)
{
    // The Compress_Request_Queue is the device's only admission
    // bound: SPM space is reserved at read-execution time.
    XfmDeviceConfig dcfg;
    dcfg.queueDepth = 4;
    auto &dev = makeDevice(dcfg);
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(1000);
    req.size = 4096;

    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < 6; ++i) {
        if (dev.submit(req) != invalidOffloadId)
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(rejected, 2);
    EXPECT_EQ(dev.stats().queueRejects, 2u);
    EXPECT_EQ(dev.queuedRequests(), 4u);
}

TEST_F(XfmDeviceTest, SpmFullDefersExecution)
{
    // A tiny SPM cannot host two in-flight outputs: the second read
    // is deferred to a later window instead of being lost.
    XfmDeviceConfig dcfg;
    dcfg.spmBytes = 5 * 1024;  // one worst-case (4112 B) output
    dcfg.maxAccessesPerWindow = 3;
    dcfg.maxRandomPerWindow = 3;
    auto &dev = makeDevice(dcfg);
    int completions = 0;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        dev.commitWriteback(c.id, rowAddr(9000 + 16 * completions));
        ++completions;
    });
    for (int i = 0; i < 2; ++i) {
        mem_.write(rowAddr(52000 + 16 * i), Bytes(4096, 7));
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = rowAddr(52000 + 16 * i);
        req.size = 4096;
        ASSERT_NE(dev.submit(req), invalidOffloadId);
    }
    eq_.run(0);  // first window: one executes, one defers
    EXPECT_EQ(dev.stats().deferredExecutions, 1u);
    EXPECT_EQ(dev.pendingReads(), 1u);
    // Once the first write-back drains, the second proceeds.
    eq_.run(cfg_.rank.device.retention);
    EXPECT_EQ(completions, 2);
}

TEST_F(XfmDeviceTest, SpCapacityRegisterTracksSpm)
{
    XfmDeviceConfig dcfg;
    dcfg.spmBytes = 64 * 1024;
    auto &dev = makeDevice(dcfg);
    EXPECT_EQ(dev.regs().read(Reg::SpCapacity), 64u * 1024);
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(10);  // row 10: refreshed by window 0
    req.size = 4096;
    dev.submit(req);
    // SPM is reserved when the read executes, not at submit.
    EXPECT_EQ(dev.regs().read(Reg::SpCapacity), 64u * 1024);
    eq_.run(0);
    EXPECT_LT(dev.regs().read(Reg::SpCapacity), 64u * 1024);
}

TEST_F(XfmDeviceTest, DeadlineDropInvokesCallback)
{
    auto &dev = makeDevice();
    std::vector<OffloadId> dropped;
    dev.setDropCallback([&](OffloadId id, DropReason) {
        dropped.push_back(id);
    });

    mem_.write(rowAddr(40000), Bytes(4096, 4));
    OffloadRequest urgent;
    urgent.kind = OffloadKind::Compress;
    urgent.srcAddr = rowAddr(40000);
    urgent.size = 4096;
    urgent.deadline = 1;  // expires before any window can serve it

    // Saturate the random slot of window 0 with an earlier offload.
    OffloadRequest first = urgent;
    first.srcAddr = rowAddr(40016);
    first.deadline = 0;
    mem_.write(rowAddr(40016), Bytes(4096, 5));

    dev.submit(first);
    dev.submit(urgent);
    // Window 0 at tick 0 serves `first` (deadline 0 still valid at
    // start). Window 1 finds `urgent` expired.
    eq_.run(2 * cfg_.rank.device.tREFI());
    EXPECT_EQ(dev.stats().deadlineDrops, 1u);
    ASSERT_EQ(dropped.size(), 1u);
}

TEST_F(XfmDeviceTest, EnergySavingsFromConditionalAccesses)
{
    auto &dev = makeDevice();
    // Offloads spread over many rows; over a full retention period
    // every row is refreshed once, so reads become conditional.
    for (std::uint32_t i = 0; i < 16; ++i) {
        mem_.write(rowAddr(i * 4096), Bytes(4096, 6));
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = rowAddr(i * 4096);
        req.size = 4096;
        dev.submit(req);
    }
    eq_.run(cfg_.rank.device.retention);
    EXPECT_GT(dev.stats().conditionalAccesses, 0u);
    EXPECT_GT(dev.stats().energySavedFraction(), 0.0);
    EXPECT_LT(dev.stats().energySavedFraction(), 0.5);
}

TEST_F(XfmDeviceTest, WindowCounterAdvances)
{
    auto &dev = makeDevice();
    eq_.run(10 * cfg_.rank.device.tREFI());
    EXPECT_GE(dev.stats().windows, 10u);
}

} // namespace
} // namespace nma
} // namespace xfm

namespace xfm
{
namespace nma
{
namespace
{

/** Paper Sec. 4.1: the NMA regenerates side-band ECC parity when
 *  writing back, so a later ECC-checked read verifies cleanly. */
TEST_F(XfmDeviceTest, WritebackMaintainsSidebandEccParity)
{
    XfmDeviceConfig dcfg;
    dcfg.eccParityBase = gib(16);  // parity region above the data
    auto &dev = makeDevice(dcfg);

    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::Json, 21,
                                 4096);
    mem_.write(rowAddr(3), page);  // row 3: first refresh window

    bool written = false;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        dev.commitWriteback(c.id, rowAddr(17));  // window 1 rows
    });
    dev.setWritebackCallback([&](OffloadId, Tick) { written = true; });

    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(3);
    req.size = 4096;
    dev.submit(req);
    eq_.run(cfg_.rank.device.retention);
    ASSERT_TRUE(written);
    EXPECT_GT(dev.stats().eccParityBytesWritten, 0u);

    // An ECC-checked read over the written range must verify: wrap
    // the same PhysMem in an EccStore bound to the same parity base.
    dram::EccStore store(mem_, gib(16), gib(16));
    const std::uint64_t dst = rowAddr(17) & ~std::uint64_t(7);
    EXPECT_NO_THROW(store.read(dst, 512));
    EXPECT_EQ(store.stats().correctedErrors, 0u);
}

TEST_F(XfmDeviceTest, EccDisabledWritesNoParity)
{
    auto &dev = makeDevice();  // eccParityBase = 0
    mem_.write(rowAddr(3), Bytes(4096, 0x5A));
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        dev.commitWriteback(c.id, rowAddr(17));
    });
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(3);
    req.size = 4096;
    dev.submit(req);
    eq_.run(cfg_.rank.device.retention);
    EXPECT_EQ(dev.stats().eccParityBytesWritten, 0u);
}

} // namespace
} // namespace nma
} // namespace xfm

namespace xfm
{
namespace nma
{
namespace
{

// Page registration (paper Sec. 6: driver-managed NMA access window).

TEST_F(XfmDeviceTest, UnregisteredSourceRejected)
{
    auto &dev = makeDevice();
    dev.registerRegion(0, mib(1));
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = gib(2);  // outside the registered window
    req.size = 4096;
    EXPECT_EQ(dev.submit(req), invalidOffloadId);
    EXPECT_EQ(dev.stats().unregisteredRejects, 1u);

    req.srcAddr = mib(1) - 4096;  // inside
    EXPECT_NE(dev.submit(req), invalidOffloadId);
}

TEST_F(XfmDeviceTest, UnregisteredDecompressDestinationRejected)
{
    auto &dev = makeDevice();
    dev.registerRegion(0, mib(1));
    OffloadRequest req;
    req.kind = OffloadKind::Decompress;
    req.srcAddr = 0;
    req.size = 1024;
    req.dstAddr = gib(4);  // unregistered destination frame
    req.rawSize = 4096;
    EXPECT_EQ(dev.submit(req), invalidOffloadId);
    EXPECT_EQ(dev.stats().unregisteredRejects, 1u);
}

TEST_F(XfmDeviceTest, UnregisteredWritebackDestinationFatal)
{
    auto &dev = makeDevice();
    dev.registerRegion(0, mib(1));
    mem_.write(rowAddr(3), Bytes(4096, 0x21));
    std::optional<OffloadCompletion> completion;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        completion = c;
    });
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(3);
    req.size = 4096;
    ASSERT_NE(dev.submit(req), invalidOffloadId);
    eq_.run(cfg_.rank.device.tREFI());
    ASSERT_TRUE(completion.has_value());
    EXPECT_THROW(dev.commitWriteback(completion->id, gib(8)),
                 FatalError);
}

TEST_F(XfmDeviceTest, NoRegistrationsMeansPermissive)
{
    auto &dev = makeDevice();
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = gib(2);
    req.size = 4096;
    EXPECT_NE(dev.submit(req), invalidOffloadId);
    EXPECT_EQ(dev.stats().unregisteredRejects, 0u);
}

} // namespace
} // namespace nma
} // namespace xfm

namespace xfm
{
namespace nma
{
namespace
{

TEST(AccessBudget, DerivedFromDeviceTiming)
{
    // Sec. 5: 2 / 3 / 4 conditional 4 KiB accesses per tRFC.
    EXPECT_EQ(dram::maxAccessesPerTrfc(dram::ddr5Device8Gb()), 2u);
    EXPECT_EQ(dram::maxAccessesPerTrfc(dram::ddr5Device16Gb()), 3u);
    EXPECT_EQ(dram::maxAccessesPerTrfc(dram::ddr5Device32Gb()), 4u);
}

TEST(AccessBudget, CompletionOffsetsFitInTrfc)
{
    for (const auto &dev : {dram::ddr5Device8Gb(),
                            dram::ddr5Device16Gb(),
                            dram::ddr5Device32Gb()}) {
        const auto n = dram::maxAccessesPerTrfc(dev);
        for (std::uint32_t k = 0; k < n; ++k)
            EXPECT_LE(dram::accessCompletionOffset(dev, k), dev.tRFC)
                << dev.name << " access " << k;
        // One more access would overrun the window.
        EXPECT_GT(dram::accessCompletionOffset(dev, n), dev.tRFC)
            << dev.name;
    }
}

TEST(AccessBudget, FirstAccessTakes110ns)
{
    // Sec. 5: "it would take 110ns to send all the data out of the
    // chip to the NMA (tRCD + tCL + 32 x tBURST)".
    const auto dev = dram::ddr5Device32Gb();
    EXPECT_NEAR(ticksToNs(dram::accessCompletionOffset(dev, 0)),
                110.0, 3.0);
}

TEST_F(XfmDeviceTest, DefaultBudgetDerivedFromDevice)
{
    auto &dev = makeDevice();  // maxAccessesPerWindow = 0 => derive
    EXPECT_EQ(dev.config().maxAccessesPerWindow, 4u);  // 32 Gb
}

TEST_F(XfmDeviceTest, EngineCompletionWaitsForTransfer)
{
    auto &dev = makeDevice();
    mem_.write(rowAddr(3), Bytes(4096, 0x66));  // window-0 row
    Tick completed = 0;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        completed = c.finished;
    });
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(3);
    req.size = 4096;
    dev.submit(req);
    eq_.run(cfg_.rank.device.tREFI());
    // Transfer (110 ns) + engine (~277 ns) past the window start.
    EXPECT_GE(completed,
              dram::accessCompletionOffset(cfg_.rank.device, 0));
    EXPECT_LT(completed, microseconds(1.0));
}

// ---------------------------------------------------------------- abort

/** Where in its lifecycle an offload is when it is aborted. */
enum class AbortAt
{
    Queued,         ///< submitted, not yet drained (no doorbell)
    PendingRead,    ///< drained, waiting for a window slot
    EngineRunning,  ///< SPM reserved, engine event in flight
    StagedNoDest,   ///< compress output staged, no write-back target
    Stalled,        ///< injected engine stall, drop not yet delivered
};

const char *
abortAtName(AbortAt at)
{
    switch (at) {
      case AbortAt::Queued: return "queued";
      case AbortAt::PendingRead: return "pending-read";
      case AbortAt::EngineRunning: return "engine-running";
      case AbortAt::StagedNoDest: return "staged-no-dest";
      case AbortAt::Stalled: return "stalled";
    }
    return "?";
}

/** One compress offload, aborted at @p at on a device whose queue
 *  is the legacy request queue (@p sq_depth 1) or the command ring.
 *  The engine breaker sits in probation, so the submit consumes a
 *  probe that the abort path must hand back or resolve. */
void
abortOneOffload(std::uint32_t sq_depth, AbortAt at)
{
    SCOPED_TRACE(std::string("sq_depth=") + std::to_string(sq_depth)
                 + " state=" + abortAtName(at));
    EventQueue eq;
    const dram::MemSystemConfig mcfg = deviceTestConfig();
    const dram::AddressMap map(mcfg);
    dram::PhysMem mem(mcfg.totalCapacityBytes());
    dram::RefreshController refresh("refresh", eq, mcfg.rank.device, 1);

    XfmDeviceConfig dcfg;
    dcfg.sqDepth = sq_depth;
    // Row 60000 is not refreshed for a long time: with no random
    // slot its read stays pending; with one it runs at the first
    // window that sees it.
    dcfg.maxRandomPerWindow = at == AbortAt::PendingRead ? 0 : 1;
    dcfg.health.enabled = true;
    dcfg.health.cooldown = 0;
    fault::FaultPlan plan;
    plan.site(fault::FaultSite::EngineStall).probability =
        at == AbortAt::Stalled ? 1.0 : 0.0;
    fault::FaultInjector injector(plan);

    XfmDevice dev("xfm0", eq, dcfg, map, mem, refresh);
    dev.setFaultInjector(&injector);
    xfmsys::XfmDriver driver(dev);
    refresh.start();
    dev.engineHealth().forceFail(0);  // cooldown 0: probation at once

    dram::DramCoord c{};
    c.row = 60000;
    const std::uint64_t src = map.encode(c);
    mem.write(src, Bytes(4096, 6));

    OffloadId id = invalidOffloadId;
    bool aborted = false;
    bool completed = false;
    int late_callbacks = 0;
    driver.onComplete([&](const OffloadCompletion &comp) {
        if (comp.id != id)
            return;
        completed = true;
        late_callbacks += aborted;
    });
    driver.onWriteback([&](OffloadId wid, Tick) {
        late_callbacks += aborted && wid == id;
    });
    driver.onDrop([&](OffloadId did, DropReason) {
        late_callbacks += aborted && did == id;
    });

    id = driver.xfmCompress(src, 4096, maxTick);
    ASSERT_NE(id, invalidOffloadId);
    EXPECT_EQ(dev.engineHealth().outstandingProbes(), 1u);

    const auto step_until = [&](auto reached) {
        for (int i = 0; i < 100000 && !reached(); ++i)
            ASSERT_TRUE(eq.step());
        ASSERT_TRUE(reached());
    };
    switch (at) {
      case AbortAt::Queued:
        break;
      case AbortAt::PendingRead:
        step_until([&] { return dev.pendingReads() == 1; });
        break;
      case AbortAt::EngineRunning:
        step_until([&] { return dev.spm().usedBytes() > 0; });
        EXPECT_FALSE(completed);
        break;
      case AbortAt::StagedNoDest:
        step_until([&] { return completed; });
        EXPECT_GT(dev.spm().usedBytes(), 0u);
        break;
      case AbortAt::Stalled:
        step_until([&] { return dev.stats().engineStalls == 1; });
        break;
    }

    driver.abort(id);
    aborted = true;
    eq.run(eq.now() + 64 * mcfg.rank.device.tREFI());

    EXPECT_EQ(dev.spm().usedBytes(), 0u);
    EXPECT_EQ(late_callbacks, 0);
    EXPECT_EQ(dev.engineHealth().outstandingProbes(), 0u);
    EXPECT_EQ(dev.pendingReads(), 0u);
    EXPECT_EQ(dev.queuedRequests(), 0u);
    EXPECT_EQ(driver.occupancyBound(), 0u);
}

TEST(XfmDeviceAbort, EveryStateReleasesSpmAndSilencesTheId)
{
    for (std::uint32_t depth : {1u, 8u})
        for (AbortAt at : {AbortAt::Queued, AbortAt::PendingRead,
                           AbortAt::EngineRunning, AbortAt::StagedNoDest,
                           AbortAt::Stalled})
            abortOneOffload(depth, at);
}

} // namespace
} // namespace nma
} // namespace xfm


namespace xfm
{
namespace nma
{
namespace
{

// ------------------------------------------------ scheduler golden run

/** Refresh realism one scheduler golden run is driven through. */
struct SchedulerScenario
{
    const char *name;
    dram::RefreshMode mode;
    bool hira;
    std::uint32_t trrSlots;
};

/** What a scheduler golden run exposes: its digest, the device
 *  counters, and evidence of which scheduler paths it reached. */
struct SchedulerRun
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    XfmDeviceStats stats;
    std::uint64_t conditionalWritebacks = 0;
    std::uint64_t randomWritebacks = 0;
    /** Random write-backs in windows that opened with the SPM at
     *  most half full and executed no read: only the strand rule
     *  spends a random slot on those. */
    std::uint64_t strandedWritebacks = 0;
    /** Watchdog drops of offloads whose read had executed, that
     *  is, of write-backs stranded in the SPM. */
    std::uint64_t writebackWatchdogFires = 0;
    std::uint64_t windowsAboveHalf = 0;
    std::uint64_t windowsAtOrBelowHalf = 0;
};

/** FNV-1a over the eight little-endian bytes of @p v. */
void
mixDigest(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/**
 * Drive one seeded device through bursts and lulls of compress and
 * decompress offloads whose rows cluster at the refresh pointer
 * (conditional accesses and subarray conflicts) or scatter over the
 * bank (random accesses), with some short deadlines, some late
 * destination commits, RFM pressure from host activations, TRR
 * slack and an armed watchdog.
 *
 * The digest covers every executed access (window tick, request,
 * read or write-back, conditional or random) in execution order,
 * every write-back and drop notification, and the scheduler
 * counters. A write-back's class is recovered from its window: the
 * conditional write-back pass runs first, so the window's first
 * (conditional accesses - conditional reads) write-backs are the
 * conditional ones.
 */
SchedulerRun
runScheduler(const SchedulerScenario &s, std::uint64_t seed)
{
    EventQueue eq;
    dram::MemSystemConfig mcfg = deviceTestConfig();
    dram::DeviceConfig &ddr = mcfg.rank.device;
    ddr.refreshMode = s.mode;
    ddr.hira = s.hira;
    ddr.rfmRaaimt = 24;
    const dram::AddressMap map(mcfg);
    dram::PhysMem mem(mcfg.totalCapacityBytes());
    dram::RefreshController refresh("refresh", eq, ddr, 1);
    const Tick trefi = ddr.tREFI();

    XfmDeviceConfig dcfg;
    dcfg.spmBytes = 12 * 1024;
    dcfg.maxRandomPerWindow = 1;
    dcfg.trrRandomSlots = s.trrSlots;
    dcfg.seed = seed;
    dcfg.watchdogWindows = 16;

    SchedulerRun run;
    struct Window
    {
        Tick start;
        std::uint64_t conditional;  ///< conditional accesses in it
        std::size_t usedAtOpen;     ///< SPM bytes as it opened
    };
    std::vector<Window> windows;
    // Registered before the device's own listener, so it sees the
    // SPM as the window opens; the one after sees the window's work.
    const XfmDevice *device = nullptr;
    std::size_t used_at_open = 0;
    refresh.addListener([&](const dram::RefreshWindow &) {
        used_at_open = device->spm().usedBytes();
    });
    XfmDevice dev("xfm0", eq, dcfg, map, mem, refresh);
    device = &dev;
    std::uint64_t conditional_seen = 0;
    refresh.addListener([&](const dram::RefreshWindow &w) {
        const std::uint64_t c = dev.stats().conditionalAccesses;
        windows.push_back({w.start, c - conditional_seen, used_at_open});
        conditional_seen = c;
    });
    obs::Tracer tracer(std::size_t(1) << 20);
    dev.setTracer(&tracer);

    Rng rng(seed);
    const std::uint32_t rows = map.rowsPerBank();
    const std::uint32_t rows_per_sub = ddr.rowsPerSubarray();
    // Decompress sources sit in the bank's last subarray, which the
    // refresh pointer never reaches in this run; nothing else is
    // placed there.
    const std::uint32_t placeable = rows - rows_per_sub;
    const auto pick_addr = [&] {
        const auto pointer = static_cast<std::uint32_t>(
            (eq.now() / trefi + 1) * ddr.rowsPerRefresh % rows);
        dram::DramCoord c{};
        c.bank = static_cast<std::uint32_t>(
            rng.uniformInt(map.banksPerRank()));
        c.column = static_cast<std::uint32_t>(
            rng.uniformInt(map.stripesPerRow() - 8));
        switch (rng.uniformInt(4)) {
          case 0:  // refreshed within the next few windows
            c.row = static_cast<std::uint32_t>(
                (pointer + rng.uniformInt(4 * ddr.rowsPerRefresh))
                % placeable);
            break;
          case 1:  // the refreshing subarray: conflicts
            c.row = static_cast<std::uint32_t>(
                (pointer / rows_per_sub * rows_per_sub
                 + rng.uniformInt(rows_per_sub))
                % placeable);
            break;
          default:
            c.row = static_cast<std::uint32_t>(rng.uniformInt(placeable));
        }
        return map.encode(c);
    };

    constexpr std::uint32_t rawSize = 1024;
    std::vector<Bytes> pages;
    for (auto kind : {compress::CorpusKind::Html, compress::CorpusKind::Json,
                      compress::CorpusKind::CsvTable,
                      compress::CorpusKind::EnglishText})
        pages.push_back(compress::generateCorpus(kind, seed, rawSize));
    auto codec = compress::makeCompressor(dcfg.algorithm);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> blocks;
    for (std::uint32_t i = 0; i < 16; ++i) {
        dram::DramCoord c{};
        c.row = placeable + 8 * i;
        c.bank = (2 * i) % map.banksPerRank();
        const Bytes block = codec->compress(pages[i % pages.size()]);
        mem.write(map.encode(c), block);
        blocks.emplace_back(map.encode(c),
                            static_cast<std::uint32_t>(block.size()));
    }

    std::map<OffloadId, std::uint64_t> trace_of;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        if (c.kind != OffloadKind::Compress)
            return;
        const std::uint64_t dst = pick_addr();
        if (rng.chance(0.25)) {
            // The backend commits some destinations a little late.
            eq.scheduleIn(1 + rng.uniformInt(3 * trefi),
                          [&dev, id = c.id, dst] {
                              dev.commitWriteback(id, dst);
                          });
        } else {
            dev.commitWriteback(c.id, dst);
        }
    });
    dev.setWritebackCallback([&](OffloadId id, Tick t) {
        mixDigest(run.digest, 1);
        mixDigest(run.digest, trace_of.at(id));
        mixDigest(run.digest, t);
    });
    std::vector<std::uint64_t> watchdog_drops;
    dev.setDropCallback([&](OffloadId id, DropReason reason) {
        mixDigest(run.digest, 2);
        mixDigest(run.digest, trace_of.at(id));
        mixDigest(run.digest, static_cast<std::uint64_t>(reason));
        mixDigest(run.digest, eq.now());
        if (reason == DropReason::Watchdog)
            watchdog_drops.push_back(trace_of.at(id));
    });

    // A 120-interval cycle: a 40-interval burst that overruns the
    // window slots, then a lull in which the SPM drains.
    constexpr std::uint32_t rounds = 600;
    std::function<void(std::uint32_t)> submit_round =
        [&](std::uint32_t k) {
            const bool burst = k % 120 < 40;
            const std::uint64_t n = burst ? 2 + rng.uniformInt(4)
                                          : rng.chance(0.3);
            for (std::uint64_t i = 0; i < n; ++i) {
                OffloadRequest req;
                if (rng.chance(0.3)) {
                    const auto &[src, size] =
                        blocks[rng.uniformInt(blocks.size())];
                    req.kind = OffloadKind::Decompress;
                    req.srcAddr = src;
                    req.size = size;
                    req.dstAddr = pick_addr();
                    req.rawSize = rawSize;
                } else {
                    req.kind = OffloadKind::Compress;
                    req.srcAddr = pick_addr();
                    req.size = rawSize;
                    mem.write(req.srcAddr,
                              pages[rng.uniformInt(pages.size())]);
                }
                if (rng.chance(0.1))
                    req.deadline = eq.now() + 3 * trefi;
                req.traceId = tracer.begin();
                const OffloadId id = dev.submit(req);
                mixDigest(run.digest, id);
                if (id != invalidOffloadId)
                    trace_of[id] = req.traceId;
            }
            // Host activations on a few hot banks drive RFMs.
            refresh.noteActivates(0,
                                  static_cast<std::uint32_t>(
                                      rng.uniformInt(4)),
                                  rng.uniformInt(16));
            if (k + 1 < rounds)
                eq.scheduleIn(trefi, [&, k] { submit_round(k + 1); });
        };
    eq.schedule(trefi / 2, [&] { submit_round(0); });
    refresh.start();
    eq.run(Tick(rounds + 80) * trefi);
    EXPECT_EQ(tracer.dropped(), 0u) << s.name;

    // Executed accesses, grouped by the window (tick) they ran in.
    std::vector<obs::TraceEvent> accesses;
    std::set<std::uint64_t> read_done;
    for (const obs::TraceEvent &e : tracer.events()) {
        if (e.stage == obs::Stage::Classify
            || e.stage == obs::Stage::Writeback)
            accesses.push_back(e);
        if (e.stage == obs::Stage::Classify)
            read_done.insert(e.req);
    }
    std::size_t w = 0;
    for (std::size_t i = 0, j; i < accesses.size(); i = j) {
        const Tick tick = accesses[i].start;
        for (j = i; j < accesses.size() && accesses[j].start == tick;)
            ++j;
        while (w < windows.size() && windows[w].start < tick)
            ++w;
        EXPECT_TRUE(w < windows.size() && windows[w].start == tick)
            << s.name << ": access outside a window at " << tick;
        if (w >= windows.size())
            break;
        std::uint64_t reads = 0;
        std::uint64_t conditional_reads = 0;
        for (std::size_t k = i; k < j; ++k) {
            if (accesses[k].stage == obs::Stage::Classify) {
                ++reads;
                conditional_reads += accesses[k].arg == 0;
            }
        }
        std::uint64_t conditional_wbs =
            windows[w].conditional - conditional_reads;
        const bool opened_low =
            windows[w].usedAtOpen * 2 <= dcfg.spmBytes;
        for (std::size_t k = i; k < j; ++k) {
            const bool wb = accesses[k].stage == obs::Stage::Writeback;
            bool conditional = !wb && accesses[k].arg == 0;
            if (wb && conditional_wbs > 0) {
                conditional = true;
                --conditional_wbs;
            }
            if (wb) {
                ++(conditional ? run.conditionalWritebacks
                               : run.randomWritebacks);
                run.strandedWritebacks +=
                    !conditional && opened_low && reads == 0;
            }
            mixDigest(run.digest, tick);
            mixDigest(run.digest, accesses[k].req);
            mixDigest(run.digest, wb);
            mixDigest(run.digest, conditional);
        }
        EXPECT_EQ(conditional_wbs, 0u) << s.name << " at " << tick;
    }
    for (const Window &win : windows)
        ++(win.usedAtOpen * 2 > dcfg.spmBytes ? run.windowsAboveHalf
                                               : run.windowsAtOrBelowHalf);
    for (std::uint64_t req : watchdog_drops)
        run.writebackWatchdogFires += read_done.count(req);

    run.stats = dev.stats();
    for (std::uint64_t v :
         {run.stats.conditionalAccesses, run.stats.randomAccesses,
          run.stats.subarrayConflictRetries, run.stats.trrSlotsUsed,
          run.stats.watchdogFires, run.stats.deadlineDrops,
          run.stats.deferredExecutions, run.stats.windows,
          run.stats.pbWindows, run.stats.rfmStolenWindows,
          run.stats.hiraBonusSlots})
        mixDigest(run.digest, v);
    return run;
}

/** The refresh-window scheduler's selection order is behaviour:
 *  which access runs in which window, in which class, and the
 *  conflict/TRR/watchdog counters are pinned per refresh mode, so
 *  an index or cache in the scheduler must reproduce them exactly.
 *  Each run must also reach every path it pins. */
TEST(SchedulerGolden, AccessOrderAndCountersArePinned)
{
    const struct
    {
        SchedulerScenario scenario;
        std::uint64_t digest;
    } golden[] = {
        {{"refab-trr", dram::RefreshMode::RefAb, false, 2},
         0xeaa08ee83e9abc6full},
        {{"refpb", dram::RefreshMode::RefPb, false, 1},
         0x9e95d26b819b932aull},
        {{"refpb-hira", dram::RefreshMode::RefPb, true, 1},
         0xcfafb3ac46f87c01ull},
    };
    for (const auto &g : golden) {
        const SchedulerScenario &s = g.scenario;
        const SchedulerRun run = runScheduler(s, 11);
        EXPECT_EQ(run.digest, g.digest)
            << s.name << ": 0x" << std::hex << run.digest;
        const XfmDeviceStats &st = run.stats;
        EXPECT_GT(run.conditionalWritebacks, 0u) << s.name;
        EXPECT_GT(run.randomWritebacks, 0u) << s.name;
        EXPECT_GT(run.strandedWritebacks, 0u) << s.name;
        EXPECT_GT(run.writebackWatchdogFires, 0u) << s.name;
        EXPECT_GT(run.windowsAboveHalf, 0u) << s.name;
        EXPECT_GT(run.windowsAtOrBelowHalf, 0u) << s.name;
        EXPECT_GT(st.conditionalAccesses, run.conditionalWritebacks)
            << s.name;
        EXPECT_GT(st.subarrayConflictRetries, 0u) << s.name;
        EXPECT_GT(st.trrSlotsUsed, 0u) << s.name;
        EXPECT_GT(st.deadlineDrops, 0u) << s.name;
        EXPECT_GT(st.rfmStolenWindows, 0u) << s.name;
        EXPECT_EQ(st.pbWindows > 0, s.mode == dram::RefreshMode::RefPb)
            << s.name;
        EXPECT_EQ(st.hiraBonusSlots > 0, s.hira) << s.name;
    }
}

/** Scheduler work over a stretch of windows that drain a backlog
 *  of staged write-backs. */
struct BacklogWork
{
    XfmDeviceWork total;      ///< over the whole run
    XfmDeviceWork measured;   ///< over the measured windows only
    std::uint64_t windows = 0;
    std::uint64_t acceptedReads = 0;
    std::uint64_t commits = 0;
};

/**
 * Stage @p backlog compress write-backs in the SPM, then measure the
 * scheduler's work over @p windows windows that drain them. Every
 * run submits so that its reads finish by window @p horizon: the
 * measured windows are the same stretch of the refresh schedule for
 * every backlog. Destinations sit far from the refresh pointer, so
 * only the strand rule writes them back, one per window.
 */
BacklogWork
drainBacklog(std::uint32_t backlog, std::uint32_t horizon,
             std::uint32_t windows)
{
    EventQueue eq;
    const dram::MemSystemConfig mcfg = deviceTestConfig();
    const dram::AddressMap map(mcfg);
    dram::PhysMem mem(mcfg.totalCapacityBytes());
    dram::RefreshController refresh("refresh", eq, mcfg.rank.device, 1);
    const Tick trefi = mcfg.rank.device.tREFI();

    XfmDeviceConfig dcfg;
    dcfg.spmBytes = mib(16);  // never half full: no SPM pressure
    dcfg.queueDepth = backlog;
    dcfg.maxRandomPerWindow = 1;
    dcfg.watchdogWindows = 100000;  // armed, never due
    XfmDevice dev("xfm0", eq, dcfg, map, mem, refresh);

    const auto row_addr = [&](std::uint32_t row, std::uint32_t bank) {
        dram::DramCoord c{};
        c.row = row;
        c.bank = bank;
        return map.encode(c);
    };
    BacklogWork out;
    dev.setCompletionCallback([&](const OffloadCompletion &c) {
        const auto k = static_cast<std::uint32_t>(out.commits++);
        dev.commitWriteback(c.id, row_addr(100000 + 8 * (k % 2048),
                                           2 * (k % 16)));
    });
    refresh.start();
    // One random read per window: the backlog's reads take `backlog`
    // windows, so start them `backlog` windows before the horizon.
    eq.run(Tick(horizon - backlog) * trefi);
    const Bytes page(1024, 0x5a);
    for (std::uint32_t k = 0; k < backlog; ++k) {
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = row_addr(60000 + 8 * k, 2 * (k % 16));
        req.size = 1024;
        mem.write(req.srcAddr, page);
        EXPECT_NE(dev.submit(req), invalidOffloadId);
    }
    eq.run(Tick(horizon + 2) * trefi);
    EXPECT_EQ(dev.pendingReads(), 0u);
    EXPECT_EQ(out.commits, backlog);
    EXPECT_GE(dev.spm().writebackIds().size(), backlog - 4);
    out.acceptedReads = dev.stats().compressOffloads;

    const XfmDeviceWork before = dev.work();
    const std::uint64_t windows_before = dev.stats().windows;
    eq.run(Tick(horizon + 2 + windows) * trefi);
    out.total = dev.work();
    out.measured.spmVisits = out.total.spmVisits - before.spmVisits;
    out.measured.decodes = out.total.decodes - before.decodes;
    out.measured.probes = out.total.probes - before.probes;
    out.windows = dev.stats().windows - windows_before;
    return out;
}

/** The scheduler's cost per window follows the work it does, not
 *  the SPM backlog: draining 8x the staged write-backs visits the
 *  same number of SPM entries per window. Decodes happen once per
 *  read (at enqueue) and once per destination (at commit). */
TEST(SchedulerWork, VisitsPerWindowFlatInBacklog)
{
    constexpr std::uint32_t n = 64;
    constexpr std::uint32_t windows = 32;
    const BacklogWork small = drainBacklog(n, 8 * n + 8, windows);
    const BacklogWork large = drainBacklog(8 * n, 8 * n + 8, windows);
    for (const BacklogWork *w : {&small, &large}) {
        EXPECT_EQ(w->windows, windows);
        EXPECT_EQ(w->total.decodes, w->acceptedReads + w->commits);
        EXPECT_EQ(w->measured.decodes, 0u);
        // One write-back per window, found at the head of the index.
        EXPECT_EQ(w->measured.spmVisits, windows);
    }
    EXPECT_EQ(large.measured.spmVisits, small.measured.spmVisits);
    EXPECT_EQ(large.measured.probes, small.measured.probes);
}

} // namespace
} // namespace nma
} // namespace xfm
