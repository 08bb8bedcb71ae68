/**
 * @file
 * The NMA's (de)compression engine.
 *
 * Functionally it runs a real codec over real bytes; its timing is
 * a throughput model matching the paper's accelerator (14.8 GB/s
 * compression, 17.2 GB/s decompression on the AxDIMM prototype's
 * customised open-source engine). An alternative FPGA profile
 * models the 1.4/1.7 GB/s Deflate soft-core from Table 2's
 * discussion.
 */

#ifndef XFM_NMA_ENGINE_HH
#define XFM_NMA_ENGINE_HH

#include <memory>
#include <utility>

#include "common/stats.hh"
#include "common/worker_pool.hh"
#include "compress/arena.hh"
#include "compress/compressor.hh"
#include "nma/offload.hh"

namespace xfm
{
namespace nma
{

/**
 * Handle to an engine (de)compression whose codec work may still be
 * running on a WorkerPool thread. The simulated latency is known at
 * submission; only the bytes arrive later. take() blocks until the
 * codec finished (a no-op for inline jobs) and moves the output out.
 *
 * The shared state owns the staged input lease, so the source bytes
 * stay alive for a worker even after the caller moved on; the lease
 * returns to its (mutex-protected) arena when the job is dropped.
 */
class EngineJob
{
  public:
    EngineJob() = default;

    /** True once a job was issued into this handle. */
    explicit operator bool() const { return state_ != nullptr; }

    /** Wait for the codec and move the output out (once). */
    Bytes
    take()
    {
        auto state = std::move(state_);
        if (state->task)
            state->task->wait();
        return std::move(state->out);
    }

  private:
    friend class CompressionEngine;

    struct State
    {
        Bytes out;
        compress::ScratchArena::Lease input;
        WorkerPool::TaskPtr task;
    };

    std::shared_ptr<State> state_;
};

/** Engine timing profile. */
struct EngineProfile
{
    double compressGBps = 14.8;    ///< AxDIMM custom engine
    double decompressGBps = 17.2;

    /**
     * When positive, the engine runs in *size-model* mode: instead
     * of executing a real codec it emits an output of
     * input/modeledRatio bytes (with deterministic jitter). Used by
     * timing/queueing experiments (Fig. 12) where data content is
     * irrelevant and real compression would dominate host runtime.
     * Outputs do not round-trip in this mode.
     */
    double modeledRatio = 0.0;

    /** FPGA soft-core Deflate profile (Sec. 8, Table 2). */
    static EngineProfile
    fpgaSoftCore()
    {
        return {1.4, 1.7};
    }
};

/**
 * Compression engine: real codec + throughput timing.
 */
class CompressionEngine
{
  public:
    CompressionEngine(compress::Algorithm algo,
                      EngineProfile profile = EngineProfile{});

    /**
     * Compress and report (output, compute latency): the deferred
     * job of compressDeferred() on a staged copy of @p input,
     * take()n at once.
     *
     * @param dict optional preset dictionary (DESIGN.md §16): when
     *        non-null and non-empty the output is a dict-referencing
     *        container (compress::encodeShard) unless the plain
     *        block is smaller — the dictionary itself is stored once
     *        per page by the backend, not replicated into shards.
     *        Ignored in size-model mode.
     */
    std::pair<Bytes, Tick>
    compress(ByteSpan input,
             std::shared_ptr<const Bytes> dict = nullptr);

    /**
     * Decompress and report (output, compute latency): the deferred
     * job of decompressDeferred() on a staged copy of @p block,
     * take()n at once.
     *
     * @param expected_raw expected decompressed size; required by
     *        size-model mode, 0 (charge the actual output) allowed
     *        otherwise.
     * @param dict the page's preset dictionary, staged by the driver
     *        for 0xD2 blocks (DESIGN.md §16); null for a page stored
     *        without one.
     */
    std::pair<Bytes, Tick>
    decompress(ByteSpan block, std::uint32_t expected_raw = 0,
               std::shared_ptr<const Bytes> dict = nullptr);

    /**
     * Deferred compress: the simulated latency (a function of the
     * input size only) returns immediately; the codec itself runs on
     * the worker pool when one is attached and parallel, inline
     * otherwise. Size-model mode always runs inline so the modeled
     * jitter counter advances in submission order. Byte counters are
     * charged at submission either way, so metrics are identical for
     * any worker count.
     *
     * @param input staged input bytes; the job owns the lease.
     * @param dict  optional preset dictionary; see compress(). The
     *        shared_ptr keeps it alive for worker-pool execution.
     */
    std::pair<EngineJob, Tick>
    compressDeferred(compress::ScratchArena::Lease input,
                     std::shared_ptr<const Bytes> dict = nullptr);

    /**
     * Deferred decompress; see compressDeferred(). Requires the
     * expected raw size (which the simulated latency and the byte
     * counter are charged from — equal to the actual output for any
     * valid block); pass 0 to force inline execution with counters
     * charged from the actual output. The optional dictionary is
     * required whenever the staged block is a 0xD2 container.
     */
    std::pair<EngineJob, Tick>
    decompressDeferred(compress::ScratchArena::Lease input,
                       std::uint32_t expected_raw,
                       std::shared_ptr<const Bytes> dict = nullptr);

    /** Attach (or detach, nullptr) the fan-out pool. */
    void setWorkerPool(WorkerPool *pool) { pool_ = pool; }

    /**
     * Worst-case compressed size for an input, used for the SPM's
     * pessimistic reservation (stored-block fallback bound).
     */
    static std::uint32_t
    worstCaseCompressedSize(std::uint32_t input_size)
    {
        return input_size + 16;
    }

    std::uint64_t bytesCompressed() const
    {
        return bytes_compressed_.value();
    }
    std::uint64_t bytesDecompressed() const
    {
        return bytes_decompressed_.value();
    }

    const EngineProfile &profile() const { return profile_; }
    compress::Algorithm algorithm() const { return codec_->algorithm(); }

  private:
    Tick durationFor(std::size_t bytes, double gbps) const;
    std::uint32_t modeledSize(std::size_t input_size);

    /** Copy @p bytes into a staging lease for the sync entry points. */
    compress::ScratchArena::Lease stage(ByteSpan bytes);

    /**
     * Issue the codec step — compress::decodeShard() when @p decode,
     * else compress::encodeShard() — on the pool when @p defer and
     * the pool is parallel, inline otherwise.
     */
    EngineJob start(compress::ScratchArena::Lease input,
                    std::shared_ptr<const Bytes> dict, bool decode,
                    bool defer);

    /** A finished size-model job: @p size zero bytes. */
    static EngineJob modeledJob(std::size_t size);

    std::shared_ptr<compress::Compressor> codec_;
    EngineProfile profile_;
    WorkerPool *pool_ = nullptr;
    /**
     * Jitter counter for size-model mode. Per-engine state (not a
     * process-wide static): two engines — or two back-to-back runs
     * in one process — must produce identical modeled sizes from
     * identical inputs, or same-seed runs diverge.
     */
    std::uint64_t model_counter_ = 0;
    compress::ScratchArena staging_;
    stats::Counter bytes_compressed_;
    stats::Counter bytes_decompressed_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_ENGINE_HH
