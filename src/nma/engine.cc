#include "engine.hh"

#include "common/logging.hh"
#include "compress/dict.hh"

namespace xfm
{
namespace nma
{

CompressionEngine::CompressionEngine(compress::Algorithm algo,
                                     EngineProfile profile)
    : codec_(compress::makeCompressor(algo)), profile_(profile)
{
    XFM_ASSERT(profile_.compressGBps > 0 && profile_.decompressGBps > 0,
               "engine throughput must be positive");
}

Tick
CompressionEngine::durationFor(std::size_t bytes, double gbps) const
{
    // gbps is decimal GB/s; ticks are picoseconds.
    const double ns = static_cast<double>(bytes) / gbps;
    return nanoseconds(ns);
}

std::uint32_t
CompressionEngine::modeledSize(std::size_t input_size)
{
    // Deterministic +/-20% jitter around input/ratio (splitmix64 of
    // a per-engine counter), bounded by the stored-block worst case.
    std::uint64_t z = ++model_counter_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
    const double base =
        static_cast<double>(input_size) / profile_.modeledRatio;
    const double size = base * (0.8 + 0.4 * u);
    return std::min<std::uint32_t>(
        static_cast<std::uint32_t>(size),
        worstCaseCompressedSize(
            static_cast<std::uint32_t>(input_size)));
}

compress::ScratchArena::Lease
CompressionEngine::stage(ByteSpan bytes)
{
    auto lease = staging_.acquire(bytes.size());
    lease->assign(bytes.begin(), bytes.end());
    return lease;
}

EngineJob
CompressionEngine::start(compress::ScratchArena::Lease input,
                         std::shared_ptr<const Bytes> dict, bool decode,
                         bool defer)
{
    EngineJob job;
    job.state_ = std::make_shared<EngineJob::State>();
    job.state_->input = std::move(input);
    // The one codec step per direction; an empty dictionary means a
    // plain block (DESIGN.md §16).
    auto step = [codec = codec_, s = job.state_, d = std::move(dict),
                 decode] {
        const ByteSpan dict_span = d ? ByteSpan(*d) : ByteSpan{};
        if (decode)
            compress::decodeShard(*codec, *s->input, dict_span, s->out);
        else
            compress::encodeShard(*codec, dict_span, *s->input, s->out);
    };
    if (defer && pool_ && pool_->parallel())
        job.state_->task = pool_->submit(std::move(step));
    else
        step();
    return job;
}

EngineJob
CompressionEngine::modeledJob(std::size_t size)
{
    EngineJob job;
    job.state_ = std::make_shared<EngineJob::State>();
    job.state_->out.assign(size, 0);
    return job;
}

std::pair<Bytes, Tick>
CompressionEngine::compress(ByteSpan input,
                            std::shared_ptr<const Bytes> dict)
{
    auto [job, latency] = compressDeferred(stage(input), std::move(dict));
    return {job.take(), latency};
}

std::pair<Bytes, Tick>
CompressionEngine::decompress(ByteSpan block,
                              std::uint32_t expected_raw,
                              std::shared_ptr<const Bytes> dict)
{
    auto [job, latency] =
        decompressDeferred(stage(block), expected_raw, std::move(dict));
    return {job.take(), latency};
}

std::pair<EngineJob, Tick>
CompressionEngine::compressDeferred(compress::ScratchArena::Lease input,
                                    std::shared_ptr<const Bytes> dict)
{
    const std::size_t n = input->size();
    bytes_compressed_ += n;
    const Tick latency = durationFor(n, profile_.compressGBps);
    // Size-model mode runs inline: the jitter counter must advance
    // in submission order or same-seed runs diverge across worker
    // counts.
    if (profile_.modeledRatio > 0.0)
        return {modeledJob(modeledSize(n)), latency};
    return {start(std::move(input), std::move(dict), false, true),
            latency};
}

std::pair<EngineJob, Tick>
CompressionEngine::decompressDeferred(
    compress::ScratchArena::Lease input, std::uint32_t expected_raw,
    std::shared_ptr<const Bytes> dict)
{
    EngineJob job;
    if (profile_.modeledRatio > 0.0) {
        XFM_ASSERT(expected_raw > 0,
                   "size-model decompression needs the expected "
                   "output size");
        job = modeledJob(expected_raw);
    } else {
        // A valid block decompresses to exactly expected_raw bytes,
        // so charging from it at submission keeps latency and the
        // byte counter identical for any worker count. With no
        // expected size the job runs inline and both are charged
        // from the actual output.
        job = start(std::move(input), std::move(dict), true,
                    expected_raw > 0);
    }
    const std::size_t raw =
        expected_raw > 0 ? expected_raw : job.state_->out.size();
    bytes_decompressed_ += raw;
    return {std::move(job), durationFor(raw, profile_.decompressGBps)};
}

} // namespace nma
} // namespace xfm
