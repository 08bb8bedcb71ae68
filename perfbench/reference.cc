/**
 * @file
 * The host-speed reference: a fixed piece of work that belongs to the
 * benchmark, not to the simulator, timed between the measured parts.
 *
 * Its code never changes with the simulator, so its time moves only
 * with the host: with the clock speed and with the share of the core
 * that other tenants of a shared machine take. It mixes the kinds of
 * work the simulator does: a greedy hash-chain match search over text
 * (the codecs), an ordered-map churn (the event queue and page
 * tables) and dependent random reads of a table (page frames and SPM
 * entries). Its data fit in a core's private caches and it runs once
 * untimed before the timed run, so its time does not depend on what
 * the simulator left in the caches.
 */

#include <cstring>
#include <map>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t textBytes = std::size_t(1) << 16;
constexpr std::size_t hashSlots = std::size_t(1) << 12;
constexpr std::size_t tableWords = std::size_t(1) << 15;  // 256 KiB
constexpr std::uint64_t mapKeys = 1 << 12;

std::uint64_t
lcg(std::uint64_t &x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
}

/** Everything the reference touches, built once per process. */
struct ReferenceState
{
    std::vector<std::uint8_t> text;
    std::vector<std::uint32_t> head;
    std::vector<std::uint64_t> table;
    std::map<std::uint64_t, std::uint64_t> tree;
    std::uint64_t rng = 12345;

    ReferenceState()
        : text(textBytes), head(hashSlots), table(tableWords)
    {
        static const char *const words[] = {
            "page", "swap", "far", "memory", "refresh", "window",
            "tenant", "the", "of", "and", "compress", "shard",
            "dimm", "queue", "cold", "hot", "scan", "fault",
        };
        std::size_t at = 0;
        while (at < textBytes) {
            const char *w = words[lcg(rng) % std::size(words)];
            for (std::size_t i = 0; w[i] && at < textBytes; ++i)
                text[at++] = static_cast<std::uint8_t>(w[i]);
            if (at < textBytes)
                text[at++] = lcg(rng) % 9 ? ' ' : '\n';
        }
        for (std::size_t i = 0; i < tableWords; ++i)
            table[i] = lcg(rng);
        for (std::uint64_t k = 0; k < mapKeys; k += 2)
            tree.emplace(lcg(rng) % (4 * mapKeys), k);
    }

    /** Greedy LZ77-style parse of the text; returns matched bytes. */
    std::uint64_t
    matchSearch()
    {
        std::fill(head.begin(), head.end(), 0);
        std::uint64_t matched = 0;
        for (std::size_t i = 1; i + 8 < textBytes;) {
            std::uint32_t v;
            std::memcpy(&v, &text[i], 4);
            const std::size_t h = (v * 2654435761u) >> 20;
            const std::size_t cand = head[h];
            head[h] = static_cast<std::uint32_t>(i);
            std::size_t len = 0;
            while (cand && i + len < textBytes && len < 64
                   && text[cand + len] == text[i + len])
                ++len;
            if (len >= 4) {
                matched += len;
                i += len;
            } else {
                ++i;
            }
        }
        return matched;
    }

    /** Insert-or-erase churn on an ordered map of ~2k-8k keys. */
    std::uint64_t
    treeChurn(int ops)
    {
        std::uint64_t sum = 0;
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t k = lcg(rng) % (4 * mapKeys);
            const auto it = tree.lower_bound(k);
            if (it != tree.end() && it->first == k) {
                sum += it->second;
                tree.erase(it);
            } else {
                tree.emplace_hint(it, k, sum);
            }
        }
        return sum;
    }

    /** Dependent random reads and writes over the table. */
    std::uint64_t
    tableWalk(int steps)
    {
        std::uint64_t at = lcg(rng);
        for (int i = 0; i < steps; ++i) {
            std::uint64_t &w = table[at % tableWords];
            at = w ^ (at >> 7);
            w += at;
        }
        return at;
    }
};

/** Keeps the reference's results alive past the optimiser. */
volatile std::uint64_t sink;

} // namespace

double
referenceSlice()
{
    static ReferenceState state;
    const auto work = [] {
        std::uint64_t v = 0;
        for (int i = 0; i < 4; ++i)
            v += state.matchSearch() + state.treeChurn(15000)
                 + state.tableWalk(100000);
        return v;
    };
    sink = work();  // warms the caches
    const auto a = Clock::now();
    sink = work();
    return secondsSince(a);
}

} // namespace perfbench
