#include "huffman.hh"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/logging.hh"

namespace xfm
{
namespace compress
{

namespace
{

struct TreeNode
{
    std::uint64_t weight;
    std::uint32_t order;  // tie break for determinism
    int left = -1;
    int right = -1;
    int symbol = -1;
};

} // namespace

std::vector<std::uint8_t>
huffmanCodeLengths(const std::vector<std::uint64_t> &counts)
{
    const std::size_t n = counts.size();
    std::vector<std::uint8_t> lengths(n, 0);

    std::vector<int> live;
    for (std::size_t i = 0; i < n; ++i)
        if (counts[i] > 0)
            live.push_back(static_cast<int>(i));

    if (live.empty())
        return lengths;
    if (live.size() == 1) {
        lengths[live[0]] = 1;
        return lengths;
    }

    // Build the Huffman tree with a deterministic heap order.
    std::vector<TreeNode> nodes;
    nodes.reserve(live.size() * 2);
    auto cmp = [&nodes](int a, int b) {
        if (nodes[a].weight != nodes[b].weight)
            return nodes[a].weight > nodes[b].weight;
        return nodes[a].order > nodes[b].order;
    };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
    std::uint32_t order = 0;
    for (int s : live) {
        nodes.push_back({counts[s], order++, -1, -1, s});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }
    while (heap.size() > 1) {
        int a = heap.top();
        heap.pop();
        int b = heap.top();
        heap.pop();
        nodes.push_back({nodes[a].weight + nodes[b].weight, order++,
                         a, b, -1});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }

    // Depth-first traversal to assign depths.
    std::vector<std::pair<int, unsigned>> stack;
    stack.emplace_back(heap.top(), 0);
    while (!stack.empty()) {
        auto [idx, depth] = stack.back();
        stack.pop_back();
        const TreeNode &node = nodes[idx];
        if (node.symbol >= 0) {
            lengths[node.symbol] =
                static_cast<std::uint8_t>(std::max(1u, depth));
        } else {
            stack.emplace_back(node.left, depth + 1);
            stack.emplace_back(node.right, depth + 1);
        }
    }

    // Length-limit: clamp and repair the Kraft inequality.
    bool clamped = false;
    for (int s : live) {
        if (lengths[s] > maxCodeLength) {
            lengths[s] = maxCodeLength;
            clamped = true;
        }
    }
    if (clamped) {
        auto kraft = [&]() {
            std::uint64_t k = 0;
            for (int s : live)
                k += std::uint64_t(1) << (maxCodeLength - lengths[s]);
            return k;
        };
        const std::uint64_t budget = std::uint64_t(1) << maxCodeLength;
        while (kraft() > budget) {
            // Lengthen the deepest code that is still below the cap.
            int victim = -1;
            for (int s : live) {
                if (lengths[s] < maxCodeLength &&
                    (victim < 0 || lengths[s] > lengths[victim])) {
                    victim = s;
                }
            }
            XFM_ASSERT(victim >= 0, "cannot satisfy Kraft inequality");
            ++lengths[victim];
        }
    }
    return lengths;
}

namespace
{

/** Canonical code assignment; returns codes bit-reversed for
 *  LSB-first emission. */
std::vector<std::uint32_t>
canonicalCodes(const std::vector<std::uint8_t> &lengths)
{
    std::vector<std::uint32_t> bl_count(maxCodeLength + 1, 0);
    for (auto len : lengths)
        if (len > 0)
            ++bl_count[len];

    std::vector<std::uint32_t> next_code(maxCodeLength + 2, 0);
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= maxCodeLength; ++len) {
        code = (code + bl_count[len - 1]) << 1;
        next_code[len] = code;
    }

    std::vector<std::uint32_t> codes(lengths.size(), 0);
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        const unsigned len = lengths[s];
        if (len == 0)
            continue;
        std::uint32_t c = next_code[len]++;
        // Bit-reverse to len bits for the LSB-first bitstream.
        std::uint32_t r = 0;
        for (unsigned i = 0; i < len; ++i) {
            r = (r << 1) | (c & 1);
            c >>= 1;
        }
        codes[s] = r;
    }
    return codes;
}

} // namespace

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t> &lengths)
    : lengths_(lengths), codes_(canonicalCodes(lengths))
{}

HuffmanDecoder::HuffmanDecoder(const std::vector<std::uint8_t> &lengths)
{
    XFM_ASSERT(lengths.size() <= 0xFFFF,
               "huffman alphabet too large for packed table");
    unsigned max_len = 0;
    for (auto len : lengths)
        max_len = std::max<unsigned>(max_len, len);
    XFM_ASSERT(max_len <= maxCodeLength,
               "huffman code exceeds the length limit");
    root_bits_ = std::max(1u, std::min<unsigned>(rootBits, max_len));
    const std::size_t root_size = std::size_t(1) << root_bits_;
    table_.assign(root_size, {0, 0, 0});
    if (max_len == 0)
        return;
    has_codes_ = true;

    const auto codes = canonicalCodes(lengths);
    // Short codes fill the root directly (LSB-first: a code of
    // `len` bits owns every window whose low bits equal it).
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        const unsigned len = lengths[s];
        if (len == 0 || len > root_bits_)
            continue;
        const std::size_t step = std::size_t(1) << len;
        for (std::size_t idx = codes[s]; idx < root_size; idx += step) {
            table_[idx].sym = static_cast<std::uint16_t>(s);
            table_[idx].len = static_cast<std::uint8_t>(len);
        }
    }
    // Long codes spill into one subtable per root prefix, sized by
    // the longest code sharing that prefix. Entries store the FULL
    // code length so a single skip() consumes root and sub bits.
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        const unsigned len = lengths[s];
        if (len <= root_bits_)
            continue;
        const std::uint32_t prefix = codes[s] & (root_size - 1);
        if (table_[prefix].len != subLink) {
            // Size the subtable on first touch: scan the suffix
            // lengths of every long code with this prefix.
            unsigned sub_bits = 0;
            for (std::size_t t = 0; t < lengths.size(); ++t) {
                if (lengths[t] > root_bits_
                    && (codes[t] & (root_size - 1)) == prefix)
                    sub_bits = std::max<unsigned>(
                        sub_bits, lengths[t] - root_bits_);
            }
            const std::size_t off = table_.size();
            XFM_ASSERT(off <= 0xFFFF,
                       "huffman subtables exceed the offset field");
            table_.resize(off + (std::size_t(1) << sub_bits),
                          {0, 0, 0});
            table_[prefix].sym = static_cast<std::uint16_t>(off);
            table_[prefix].subBits = static_cast<std::uint16_t>(sub_bits);
            table_[prefix].len = subLink;
        }
        const std::size_t off = table_[prefix].sym;
        const unsigned sub_bits = table_[prefix].subBits;
        const std::size_t step = std::size_t(1) << (len - root_bits_);
        for (std::size_t idx = codes[s] >> root_bits_;
             idx < (std::size_t(1) << sub_bits); idx += step) {
            table_[off + idx].sym = static_cast<std::uint16_t>(s);
            table_[off + idx].len = static_cast<std::uint8_t>(len);
        }
    }
}

void
writeCodeLengthsRle(BitWriter &bw,
                    const std::vector<std::uint8_t> &lengths)
{
    std::size_t i = 0;
    while (i < lengths.size()) {
        const std::uint8_t cur = lengths[i];
        std::size_t run = 1;
        while (i + run < lengths.size() && lengths[i + run] == cur)
            ++run;
        if (cur == 0 && run >= 3) {
            std::size_t left = run;
            while (left >= 11) {
                const std::size_t take = std::min<std::size_t>(left, 138);
                bw.put(18, 5);
                bw.put(static_cast<std::uint32_t>(take - 11), 7);
                left -= take;
            }
            if (left >= 3) {
                bw.put(17, 5);
                bw.put(static_cast<std::uint32_t>(left - 3), 3);
                left = 0;
            }
            while (left-- > 0)
                bw.put(0, 5);
        } else {
            bw.put(cur, 5);
            std::size_t left = run - 1;
            while (left >= 3) {
                const std::size_t take = std::min<std::size_t>(left, 6);
                bw.put(16, 5);
                bw.put(static_cast<std::uint32_t>(take - 3), 2);
                left -= take;
            }
            while (left-- > 0)
                bw.put(cur, 5);
        }
        i += run;
    }
}

std::vector<std::uint8_t>
readCodeLengthsRle(BitReader &br, std::size_t count)
{
    std::vector<std::uint8_t> lengths;
    lengths.reserve(count);
    while (lengths.size() < count) {
        const std::uint32_t sym = br.get(5);
        if (sym <= 15) {
            lengths.push_back(static_cast<std::uint8_t>(sym));
        } else if (sym == 16) {
            if (lengths.empty())
                fatal("codelen rle: repeat with no previous length");
            const std::uint32_t run = 3 + br.get(2);
            const std::uint8_t v = lengths.back();
            for (std::uint32_t k = 0; k < run; ++k)
                lengths.push_back(v);
        } else if (sym == 17) {
            const std::uint32_t run = 3 + br.get(3);
            lengths.insert(lengths.end(), run, 0);
        } else if (sym == 18) {
            const std::uint32_t run = 11 + br.get(7);
            lengths.insert(lengths.end(), run, 0);
        } else {
            fatal("codelen rle: invalid symbol ", sym);
        }
    }
    if (lengths.size() != count)
        fatal("codelen rle: overran requested count (", lengths.size(),
              " vs ", count, ")");
    return lengths;
}

const HuffmanDecoder::TableEntry &
HuffmanDecoder::lookup(BitReader &br) const
{
    const TableEntry &root = table_[br.peek(root_bits_)];
    if (root.len != subLink)
        return root;
    // Long code: re-peek wide enough for the subtable suffix. The
    // entry's len holds the FULL code length, so the caller's
    // skip() consumes root and suffix bits together.
    const std::uint32_t suffix =
        br.peek(root_bits_ + root.subBits) >> root_bits_;
    return table_[root.sym + suffix];
}

std::uint32_t
HuffmanDecoder::decode(BitReader &br) const
{
    const TableEntry &e = lookup(br);
    if (e.len == 0)
        fatal("huffman decode: invalid code in bitstream");
    br.skip(e.len);
    return e.sym;
}

} // namespace compress
} // namespace xfm
