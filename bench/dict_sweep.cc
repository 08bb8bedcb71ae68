/**
 * @file
 * dict_sweep: preset-dictionary ratio/latency sweep (DESIGN.md §16).
 *
 * One point per (corpus, channel count, dict on/off): pages are
 * compressed in multi-channel mode with and without the per-page
 * preset dictionary, using the backend's accounting (dictionary
 * packed once per page into DIMM 0's slot tail; shards carry only a
 * 3-byte dict-referencing header). For each dict-on point the sweep
 * reports the *recovered fraction* of the 1-DIMM vs N-DIMM ratio
 * gap — the paper's Fig. 8 loss that `xfm.shard_dict` exists to
 * claw back.
 *
 * Restore latency is modeled, not measured: per page,
 *   channel read of the largest shard slot   (channelGBps, parallel
 *                                             across DIMMs)
 * + dict staging when on                     (one read + D-1 SPM
 *                                             writes of the packed
 *                                             dict, serialized on
 *                                             the host link)
 * + engine decompression of a 1/D page shard (EngineProfile's
 *                                             17.2 GB/s, parallel)
 * so the dict column surfaces its real cost: a slightly longer
 * slot read plus the staging transfer.
 *
 * Every page is decoded back through the shared decodeShard() path
 * and byte-compared inside measureMultiChannel(); that round-trip is
 * the ONLY exit gate.
 * Ratios, latencies, and recovery fractions are measurements
 * archived by CI in BENCH_DICT.json (schema xfm.dict_sweep.v1),
 * never a pass/fail criterion.
 *
 * Usage: dict_sweep [--smoke] [--out FILE]
 *   --smoke   smaller corpora / fewer kinds (CI smoke test)
 *   --out     JSON destination (default BENCH_DICT.json)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compress/corpus.hh"
#include "compress/deflate.hh"
#include "nma/engine.hh"
#include "xfm/multichannel.hh"

using namespace xfm;
using namespace xfm::compress;
using namespace xfm::xfmsys;

namespace
{

constexpr std::size_t dictBytes = 2048;  ///< backend default

/** DDR5 channel bandwidth for slot reads / dict staging. */
constexpr double channelGBps = 25.6;

struct Point
{
    CorpusKind kind;
    std::size_t dimms = 1;
    bool dict = false;
    double ratio = 0.0;
    double placedRatio = 0.0;
    double restoreNs = 0.0;   ///< modeled per-page restore latency
    double recovered = 0.0;   ///< dict-on only: gap fraction closed
};

double
modelRestoreNs(const MultiChannelResult &r, std::size_t pages)
{
    const nma::EngineProfile prof;
    const double slot_pp = static_cast<double>(r.placedBytes)
        / (static_cast<double>(pages) * r.dimms);
    const double dict_pp =
        static_cast<double>(r.dictBytes) / static_cast<double>(pages);
    const double raw_shard = static_cast<double>(r.rawBytes)
        / (static_cast<double>(pages) * r.dimms);
    const double read_ns = slot_pp / channelGBps;
    const double stage_ns = dict_pp * r.dimms / channelGBps;
    const double engine_ns = raw_shard / prof.decompressGBps;
    return read_ns + stage_ns + engine_ns;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_DICT.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: dict_sweep [--smoke] [--out FILE]\n");
            return 1;
        }
    }

    // The spatially-correlated classes the dictionary targets,
    // plus two controls (zero-heavy compresses regardless; random
    // bytes must simply not regress).
    std::vector<CorpusKind> kinds = {
        CorpusKind::Json,      CorpusKind::Html,
        CorpusKind::SourceCode};
    if (!smoke) {
        kinds.push_back(CorpusKind::LogLines);
        kinds.push_back(CorpusKind::KeyValue);
        kinds.push_back(CorpusKind::Dictionary);
        kinds.push_back(CorpusKind::ZeroHeavy);
        kinds.push_back(CorpusKind::RandomBytes);
    }
    const std::size_t corpus_bytes = smoke ? 64 * 1024 : 256 * 1024;
    const std::size_t channels[] = {1, 2, 4};
    DeflateCodec codec;  // XFM's engine runs Deflate (Sec. 7)

    std::printf("dict_sweep%s: %zu KiB per corpus, dict_bytes=%zu, "
                "Deflate\n\n",
                smoke ? " (smoke)" : "", corpus_bytes / 1024,
                dictBytes);
    std::printf("%-14s %5s %5s %8s %8s %10s %10s\n", "corpus",
                "dimms", "dict", "ratio", "placed", "restore ns",
                "recovered");

    std::vector<Point> points;
    double rec_sum = 0.0;
    double rec_min = 1.0;
    int rec_n = 0;
    for (auto kind : kinds) {
        const Bytes corpus =
            generateCorpus(kind, 2023, corpus_bytes);
        const auto pages = paginate(corpus);
        double ratio1 = 0.0;
        for (auto d : channels) {
            const auto plain = measureMultiChannel(pages, codec, d);
            if (d == 1)
                ratio1 = plain.ratio();
            Point p;
            p.kind = kind;
            p.dimms = d;
            p.dict = false;
            p.ratio = plain.ratio();
            p.placedRatio = plain.placedRatio();
            p.restoreNs = modelRestoreNs(plain, pages.size());
            points.push_back(p);
            std::printf("%-14s %5zu %5s %8.3f %8.3f %10.1f %10s\n",
                        corpusName(kind).c_str(), d, "off", p.ratio,
                        p.placedRatio, p.restoreNs, "-");

            // Round-trip of every page is asserted inside
            // measureMultiChannel().
            const auto dicted =
                measureMultiChannel(pages, codec, d, dictBytes);
            Point q;
            q.kind = kind;
            q.dimms = d;
            q.dict = true;
            q.ratio = dicted.ratio();
            q.placedRatio = dicted.placedRatio();
            q.restoreNs = modelRestoreNs(dicted, pages.size());
            const double gap = ratio1 - plain.ratio();
            q.recovered = gap > 1e-9
                ? (dicted.ratio() - plain.ratio()) / gap
                : 0.0;
            points.push_back(q);
            if (d > 1) {
                std::printf("%-14s %5zu %5s %8.3f %8.3f %10.1f "
                            "%9.1f%%\n",
                            corpusName(kind).c_str(), d, "on",
                            q.ratio, q.placedRatio, q.restoreNs,
                            100.0 * q.recovered);
            } else {
                std::printf("%-14s %5zu %5s %8.3f %8.3f %10.1f "
                            "%10s\n",
                            corpusName(kind).c_str(), d, "on",
                            q.ratio, q.placedRatio, q.restoreNs,
                            "-");
            }
            if (d == 4 && kind != CorpusKind::ZeroHeavy
                && kind != CorpusKind::RandomBytes) {
                rec_sum += q.recovered;
                rec_min = std::min(rec_min, q.recovered);
                ++rec_n;
            }
        }
    }
    const double rec_mean = rec_n ? rec_sum / rec_n : 0.0;
    std::printf("\n4-DIMM ratio-gap recovery on spatially-correlated "
                "corpora: mean %.1f%%, min %.1f%%\n",
                100.0 * rec_mean, 100.0 * rec_min);
    std::printf("(round-trip of every dict-mode page verified "
                "byte-exact)\n");

    std::string j = "{\n  \"schema\": \"xfm.dict_sweep.v1\",\n";
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "  \"smoke\": %s,\n  \"algorithm\": \"deflate\",\n"
                  "  \"dict_bytes\": %zu,\n"
                  "  \"recovery_4d_mean\": %.4f,\n"
                  "  \"recovery_4d_min\": %.4f,\n",
                  smoke ? "true" : "false", dictBytes, rec_mean,
                  rec_min);
    j += buf;
    j += "  \"sweep\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"corpus\": \"%s\", \"dimms\": %zu, "
            "\"dict\": %s, \"ratio\": %.4f, "
            "\"placed_ratio\": %.4f, \"restore_ns\": %.1f, "
            "\"recovered\": %.4f}%s\n",
            corpusName(p.kind).c_str(), p.dimms,
            p.dict ? "true" : "false", p.ratio, p.placedRatio,
            p.restoreNs, p.recovered,
            i + 1 < points.size() ? "," : "");
        j += buf;
    }
    j += "  ]\n}\n";

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "dict_sweep: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return 0;
}
