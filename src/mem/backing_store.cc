#include "mem/backing_store.hh"

#include <algorithm>
#include <vector>

#include "base/rand.hh"
#include "mem/nvm_media.hh"

namespace kindle::mem
{

BackingStore::Frame *
BackingStore::frameFor(Addr addr, bool allocate)
{
    kindle_assert(_range.contains(addr),
                  "backing-store access at {} outside range", addr);
    const std::uint64_t fn = (addr - _range.start()) >> pageShift;
    auto it = frames.find(fn);
    if (it != frames.end())
        return it->second.get();
    if (!allocate)
        return nullptr;
    auto frame = std::make_unique<Frame>();
    frame->fill(0);
    Frame *raw = frame.get();
    frames.emplace(fn, std::move(frame));
    return raw;
}

const BackingStore::Frame *
BackingStore::frameFor(Addr addr) const
{
    kindle_assert(_range.contains(addr),
                  "backing-store access at {} outside range", addr);
    const std::uint64_t fn = (addr - _range.start()) >> pageShift;
    const auto it = frames.find(fn);
    return it == frames.end() ? nullptr : it->second.get();
}

void
BackingStore::read(Addr addr, void *dst, std::uint64_t size) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        const std::uint64_t in_page = addr & (pageSize - 1);
        const std::uint64_t chunk = std::min(size, pageSize - in_page);
        if (const Frame *f = frameFor(addr))
            std::memcpy(out, f->data() + in_page, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *src, std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        const std::uint64_t in_page = addr & (pageSize - 1);
        const std::uint64_t chunk = std::min(size, pageSize - in_page);
        Frame *f = frameFor(addr, true);
        std::memcpy(f->data() + in_page, in, chunk);
        addr += chunk;
        in += chunk;
        size -= chunk;
    }
}

void
DurableStore::writeDurable(Addr addr, const void *src, std::uint64_t size)
{
    durable.write(addr, src, size);
    if (media)
        media->onRangeWrite(addr, size);
}

void
DurableStore::readDurable(Addr addr, void *dst, std::uint64_t size) const
{
    durable.read(addr, dst, size);
    if (media)
        media->filterRead(addr, dst, size);
}

void
DurableStore::writeVolatile(Addr addr, const void *src, std::uint64_t size)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        const Addr line_addr = roundDown(addr, lineSize);
        const std::uint64_t in_line = addr - line_addr;
        const std::uint64_t chunk = std::min(size, lineSize - in_line);
        auto it = pending.find(line_addr);
        if (it == pending.end()) {
            // First volatile touch of this line: seed the overlay with
            // the current durable contents so partial-line stores keep
            // neighbouring bytes.  The seed is what a CPU load would
            // see, so it passes through ECC — an uncorrectable line
            // read-modify-written here propagates its damage.
            Line seed{};
            durable.read(line_addr, seed.data(), lineSize);
            if (media)
                media->filterRead(line_addr, seed.data(), lineSize);
            it = pending.emplace(line_addr, seed).first;
        }
        std::memcpy(it->second.data() + in_line, in, chunk);
        addr += chunk;
        in += chunk;
        size -= chunk;
    }
}

void
DurableStore::read(Addr addr, void *dst, std::uint64_t size) const
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        const Addr line_addr = roundDown(addr, lineSize);
        const std::uint64_t in_line = addr - line_addr;
        const std::uint64_t chunk = std::min(size, lineSize - in_line);
        const auto it = pending.find(line_addr);
        const auto fit = inflight.find(line_addr);
        if (it != pending.end()) {
            std::memcpy(out, it->second.data() + in_line, chunk);
        } else if (fit != inflight.end()) {
            std::memcpy(out, fit->second.data.data() + in_line, chunk);
        } else {
            durable.read(addr, out, chunk);
            if (media)
                media->filterRead(addr, out, chunk);
        }
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
DurableStore::commitLine(Addr line_addr, Tick now, Tick drain_at)
{
    drainTo(now);
    line_addr = roundDown(line_addr, lineSize);
    const auto it = pending.find(line_addr);
    if (it == pending.end()) {
        // Nothing volatile for this line; a repeat writeback of an
        // already-buffered line just restarts its drain clock.
        const auto fit = inflight.find(line_addr);
        if (fit != inflight.end())
            fit->second.drainAt = std::max(fit->second.drainAt, drain_at);
        return;
    }
    inflight[line_addr] = Inflight{it->second, drain_at};
    pending.erase(it);
}

void
DurableStore::commitLineImmediate(Addr line_addr)
{
    line_addr = roundDown(line_addr, lineSize);
    if (const auto it = pending.find(line_addr); it != pending.end()) {
        durable.write(line_addr, it->second.data(), lineSize);
        if (media)
            media->onLineWrite(line_addr);
        pending.erase(it);
    }
    if (const auto it = inflight.find(line_addr); it != inflight.end()) {
        durable.write(line_addr, it->second.data.data(), lineSize);
        if (media)
            media->onLineWrite(line_addr);
        inflight.erase(it);
    }
}

void
DurableStore::drainTo(Tick now)
{
    for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->second.drainAt <= now) {
            durable.write(it->first, it->second.data.data(), lineSize);
            if (media)
                media->onLineWrite(it->first);
            it = inflight.erase(it);
        } else {
            ++it;
        }
    }
}

void
DurableStore::commitAll()
{
    for (const auto &[line_addr, data] : pending) {
        durable.write(line_addr, data.data(), lineSize);
        if (media)
            media->onLineWrite(line_addr);
    }
    pending.clear();
    drainTo(~Tick{0});
}

CrashOutcome
DurableStore::crash(Tick now, const PowerLossModel &model)
{
    CrashOutcome out;

    // Writes the device finished draining before the power cut are on
    // media and survive; collect the rest (sorted for determinism).
    std::vector<Addr> lost;
    lost.reserve(inflight.size());
    for (const auto &[line_addr, entry] : inflight) {
        if (entry.drainAt <= now) {
            durable.write(line_addr, entry.data.data(), lineSize);
            if (media)
                media->onLineWrite(line_addr);
            ++out.linesDrained;
        } else {
            lost.push_back(line_addr);
        }
    }
    std::sort(lost.begin(), lost.end());
    out.linesLost = lost.size();

    if (model.tornStore && !lost.empty()) {
        // Pick one lost line (seeded) that actually changes a 64-bit
        // word relative to media, and persist only a prefix of one
        // such word — the media's write granularity is smaller than a
        // word, so a store torn mid-drain lands 1–7 of its new bytes
        // (4, the half-word tear, is one of the possibilities).
        Random rng(model.seed);
        const std::size_t start = rng.uniform(lost.size());
        for (std::size_t k = 0;
             k < lost.size() && out.tornWords == 0; ++k) {
            const Addr line_addr = lost[(start + k) % lost.size()];
            const Line &buffered = inflight.at(line_addr).data;
            Line settled{};
            durable.read(line_addr, settled.data(), lineSize);
            std::vector<std::uint64_t> candidates;
            for (std::uint64_t off = 0; off + 8 <= lineSize; off += 8) {
                if (std::memcmp(buffered.data() + off,
                                settled.data() + off, 8) != 0) {
                    candidates.push_back(off);
                }
            }
            if (candidates.empty())
                continue;
            const std::uint64_t off =
                candidates[rng.uniform(candidates.size())];
            const std::uint64_t bytes = 1 + rng.uniform(7);
            durable.write(line_addr + off, buffered.data() + off,
                          bytes);
            if (media)
                media->onLineWrite(line_addr);
            ++out.tornWords;
        }
    }

    inflight.clear();
    pending.clear();
    return out;
}

} // namespace kindle::mem
