#include "spm.hh"

#include <algorithm>

namespace xfm
{
namespace nma
{

ScratchPad::ScratchPad(std::size_t capacity_bytes,
                       const dram::AddressMap *map)
    : map_(map), capacity_(capacity_bytes)
{
    XFM_ASSERT(capacity_ > 0, "SPM capacity must be positive");
    std::uint32_t subarrays = 1;
    if (map_) {
        rows_per_bank_ = map_->rowsPerBank();
        banks_ = map_->banksPerRank();
        subarrays = map_->subarrayOf(rows_per_bank_ - 1) + 1;
    }
    ready_count_.assign(std::size_t(subarrays) * banks_, 0);
}

bool
ScratchPad::reserve(OffloadId id, OffloadKind kind, std::uint32_t bytes,
                    std::uint32_t partition)
{
    XFM_ASSERT(id != invalidOffloadId, "invalid offload id");
    XFM_ASSERT(entries_.find(id) == entries_.end(),
               "duplicate SPM reservation for id ", id);
    if (used_ + bytes > capacity_)
        return false;
    if (injector_ && injector_->armed()) {
        if (injector_->shouldInject(fault::FaultSite::SpmReserveFail)) {
            ++injected_failures_;
            return false;
        }
        const double watermark =
            injector_->plan().spmHighWatermark
            * static_cast<double>(capacity_);
        if (static_cast<double>(used_) >= watermark
            && injector_->shouldInject(
                   fault::FaultSite::SpmHighWatermark)) {
            ++injected_failures_;
            return false;
        }
    }
    if (partition != 0) {
        const auto cap = partition_caps_.find(partition);
        if (cap != partition_caps_.end()
            && partition_used_[partition] + bytes > cap->second)
            return false;
    }
    SpmEntry e;
    e.id = id;
    e.kind = kind;
    e.tag = SpmTag::Pending;
    e.reserved = bytes;
    e.partition = partition;
    used_ += bytes;
    if (partition != 0)
        partition_used_[partition] += bytes;
    entries_.emplace(id, std::move(e));
    return true;
}

void
ScratchPad::setPartitionCap(std::uint32_t partition, std::size_t bytes)
{
    XFM_ASSERT(partition != 0, "partition 0 cannot be capped");
    if (bytes == 0)
        partition_caps_.erase(partition);
    else
        partition_caps_[partition] = bytes;
}

std::size_t
ScratchPad::partitionUsed(std::uint32_t partition) const
{
    const auto it = partition_used_.find(partition);
    return it != partition_used_.end() ? it->second : 0;
}

std::size_t
ScratchPad::partitionCap(std::uint32_t partition) const
{
    const auto it = partition_caps_.find(partition);
    return it != partition_caps_.end() ? it->second : 0;
}

void
ScratchPad::uncharge(const SpmEntry &e, std::size_t bytes)
{
    used_ -= bytes;
    if (e.partition != 0) {
        auto it = partition_used_.find(e.partition);
        XFM_ASSERT(it != partition_used_.end() && it->second >= bytes,
                   "partition accounting underflow");
        it->second -= bytes;
    }
}

void
ScratchPad::complete(OffloadId id, Bytes output, Tick when)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "complete: unknown id ", id);
    SpmEntry &e = it->second;
    XFM_ASSERT(e.tag == SpmTag::Pending, "complete: entry not pending");
    XFM_ASSERT(output.size() <= e.reserved,
               "engine output exceeds reservation: ", output.size(),
               " > ", e.reserved);
    // Trim the pessimistic reservation to the actual output size.
    uncharge(e, e.reserved - output.size());
    e.reserved = static_cast<std::uint32_t>(output.size());
    e.data = std::move(output);
    e.tag = SpmTag::Completed;
    e.stagedAt = when;
    if (ready(e))
        index(e);
}

void
ScratchPad::setDestination(OffloadId id, std::uint64_t dst_addr)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "setDestination: unknown id ", id);
    SpmEntry &e = it->second;
    if (ready(e))
        unindex(e);
    e.dstAddr = dst_addr;
    e.writebackReady = true;
    if (map_) {
        const dram::DramCoord c = map_->decode(dst_addr);
        ++decodes_;
        e.dstRow = c.row;
        e.dstBank = c.bank;
        e.dstSubarray = map_->subarrayOf(c.row);
    }
    if (ready(e))
        index(e);
}

void
ScratchPad::index(const SpmEntry &e)
{
    ready_.insert(e.id);
    ready_by_row_.emplace(e.dstRow, e.id);
    ready_by_age_.emplace(e.stagedAt, e.id);
    ++ready_count_[std::size_t(e.dstSubarray) * banks_ + e.dstBank];
}

void
ScratchPad::unindex(const SpmEntry &e)
{
    ready_.erase(e.id);
    ready_by_row_.erase({e.dstRow, e.id});
    ready_by_age_.erase({e.stagedAt, e.id});
    --ready_count_[std::size_t(e.dstSubarray) * banks_ + e.dstBank];
}

const SpmEntry &
ScratchPad::entry(OffloadId id) const
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "entry: unknown id ", id);
    return it->second;
}

std::vector<OffloadId>
ScratchPad::writebackIds() const
{
    return {ready_.begin(), ready_.end()};
}

std::vector<OffloadId>
ScratchPad::readyInRows(std::uint32_t first_row,
                        std::uint32_t count) const
{
    std::vector<OffloadId> ids;
    const auto collect = [&](std::uint32_t lo, std::uint32_t hi) {
        for (auto it = ready_by_row_.lower_bound({lo, 0});
             it != ready_by_row_.end() && it->first < hi; ++it)
            ids.push_back(it->second);
    };
    first_row %= rows_per_bank_;
    if (count >= rows_per_bank_) {
        collect(0, rows_per_bank_);
    } else if (first_row + count <= rows_per_bank_) {
        collect(first_row, first_row + count);
    } else {
        collect(first_row, rows_per_bank_);
        collect(0, first_row + count - rows_per_bank_);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::uint32_t
ScratchPad::readyInSubarray(std::uint32_t sub) const
{
    std::uint32_t n = 0;
    for (std::uint32_t b = 0; b < banks_; ++b)
        n += readyInSubarray(sub, b);
    return n;
}

std::vector<OffloadId>
ScratchPad::readyStagedBefore(Tick t) const
{
    std::vector<OffloadId> ids;
    for (auto it = ready_by_age_.begin();
         it != ready_by_age_.end() && it->first < t; ++it)
        ids.push_back(it->second);
    std::sort(ids.begin(), ids.end());
    return ids;
}

SpmEntry
ScratchPad::erase(std::map<OffloadId, SpmEntry>::iterator it)
{
    SpmEntry out = std::move(it->second);
    if (ready(out))
        unindex(out);
    uncharge(out, out.reserved);
    entries_.erase(it);
    return out;
}

SpmEntry
ScratchPad::take(OffloadId id)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "take: unknown id ", id);
    return erase(it);
}

void
ScratchPad::release(OffloadId id)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "release: unknown id ", id);
    erase(it);
}

} // namespace nma
} // namespace xfm
