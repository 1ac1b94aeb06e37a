#include "atom/recovery.hh"

#include <algorithm>
#include <map>
#include <cstring>
#include <string>
#include <vector>

#include "atom/log_record.hh"
#include "designs/redo_engine.hh"
#include "mem/ssd_device.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace atomsim
{

RecoveryManager::RecoveryManager(const SystemConfig &cfg,
                                 const AddressMap &amap)
    : _cfg(cfg), _amap(amap)
{
}

RecoveryReport
RecoveryManager::recover(DataImage &nvm, const RecoveryOptions &opts,
                         StatSet *stats) const
{
    RecoveryReport total;
    std::uint32_t budget = opts.maxApplications;

    // Flash tier: rehydrate destaged pages first. The record scans
    // below must read through a whole image -- a destaged log bucket
    // holds records of an incomplete update, and a destaged data page
    // may be the very page an undo entry restores.
    for (McId mc = 0; mc < opts.flashImages.size(); ++mc) {
        total.pagesRehydrated +=
            fwdmap::rehydrate(nvm, _amap, mc, *opts.flashImages[mc]);
    }

    for (McId mc = 0; mc < _cfg.numMemCtrls; ++mc) {
        const RecoveryReport r = recoverMc(nvm, mc, opts, budget, stats);
        total.incompleteUpdates += r.incompleteUpdates;
        total.recordsApplied += r.recordsApplied;
        total.linesRestored += r.linesRestored;
        total.tornRecords += r.tornRecords;
        total.interrupted = total.interrupted || r.interrupted;
        total.criticalStateFound =
            total.criticalStateFound && r.criticalStateFound;
        if (total.interrupted)
            break;  // the second crash: nothing after it runs
    }
    return total;
}

RecoveryReport
RecoveryManager::recoverMc(DataImage &nvm, McId mc,
                           const RecoveryOptions &opts,
                           std::uint32_t &budget, StatSet *stats) const
{
    RecoveryReport report;
    Addr cursor = _amap.adrBase(mc);

    if (nvm.load32(cursor) != 0xADA70001u) {
        // No critical state flushed: either the system never powered
        // this design's log manager, or nothing was ever logged.
        report.criticalStateFound = false;
        return report;
    }
    const std::uint32_t aus_count = nvm.load32(cursor + 4);
    const std::uint32_t buckets = nvm.load32(cursor + 8);
    fatal_if(aus_count != _cfg.ausPerMc || buckets != _cfg.bucketsPerMc,
             "critical state disagrees with the configuration");
    cursor += 16;

    const std::uint32_t vec_bytes = (buckets + 7) / 8;

    struct ValidRecord
    {
        std::uint32_t seq;
        LogRecordHeader hdr;
        Addr base;
    };

    for (std::uint32_t a = 0; a < aus_count; ++a) {
        std::vector<std::uint8_t> vec(vec_bytes);
        nvm.read(cursor, vec.size(), vec.data());
        cursor += vec_bytes;
        const std::uint32_t current_bucket = nvm.load32(cursor);
        const std::uint32_t current_record = nvm.load32(cursor + 4);
        const std::uint32_t txn_start_seq = nvm.load32(cursor + 8);
        const std::uint32_t next_seq = nvm.load32(cursor + 12);
        const bool active = nvm.load32(cursor + 16) != 0;
        cursor += 20;
        (void)current_bucket;
        (void)current_record;

        if (!active || txn_start_seq == next_seq)
            continue;  // no incomplete update in this AUS

        ++report.incompleteUpdates;

        // Collect this update's valid records from its buckets. A
        // record is valid iff its persisted header parses, names this
        // AUS, and its sequence falls in the update's window; stale
        // headers from truncated updates fail the window test, and
        // headers torn mid-write fail the checksum (counted, so the
        // skipped log tail is observable).
        std::vector<ValidRecord> records;
        for (std::uint32_t b = 0; b < buckets; ++b) {
            if (!((vec[b / 8] >> (b % 8)) & 1))
                continue;
            for (std::uint32_t r = 0; r < AddressMap::kRecordsPerBucket;
                 ++r) {
                const Addr base = _amap.recordBase(mc, b, r);
                const auto parsed =
                    LogRecordHeader::parse(nvm.readLine(base));
                if (parsed.torn) {
                    ++report.tornRecords;
                    if (stats != nullptr) {
                        stats->counter("logm" + std::to_string(mc),
                                       "torn_records").inc();
                    }
                    continue;
                }
                if (!parsed.hdr || parsed.hdr->ausId != a)
                    continue;
                if (parsed.hdr->seq < txn_start_seq ||
                    parsed.hdr->seq >= next_seq)
                    continue;
                records.push_back(
                    ValidRecord{parsed.hdr->seq, *parsed.hdr, base});
            }
        }

        // Newest-first undo: descending sequence; entries within a
        // record in reverse append order (Section III-B's re-logging
        // argument relies on exactly this order).
        std::sort(records.begin(), records.end(),
                  [](const ValidRecord &x, const ValidRecord &y) {
                      return x.seq > y.seq;
                  });
        for (const auto &rec : records) {
            if (budget == 0) {
                // The crash-during-recovery budget expired: this
                // record is the one recovery was applying when the
                // second power failure hit. Under tornWrites its
                // restoring writes commit only a seeded word prefix,
                // modelling the device catching them in flight.
                report.interrupted = true;
                if (opts.tornWrites) {
                    for (int e = int(rec.hdr.count) - 1; e >= 0; --e) {
                        const Addr line_addr = rec.hdr.addrs[e];
                        const Addr data_addr =
                            rec.base + Addr(e + 1) * kLineBytes;
                        const std::uint32_t words = tornWordCount(
                            opts.faultSeed, mc, line_addr,
                            (std::uint64_t(rec.seq) << 8) |
                                std::uint64_t(e));
                        nvm.writeLineWords(line_addr,
                                           nvm.readLine(data_addr),
                                           words);
                    }
                }
                return report;
            }
            --budget;
            ++report.recordsApplied;
            for (int e = int(rec.hdr.count) - 1; e >= 0; --e) {
                const Addr line_addr = rec.hdr.addrs[e];
                const Addr data_addr =
                    rec.base + Addr(e + 1) * kLineBytes;
                nvm.writeLine(line_addr, nvm.readLine(data_addr));
                ++report.linesRestored;
            }
        }
    }
    return report;
}

RedoRecovery::RedoRecovery(const SystemConfig &cfg, const AddressMap &amap)
    : _cfg(cfg), _amap(amap)
{
}

RecoveryReport
RedoRecovery::recover(DataImage &nvm, const RecoveryOptions &opts) const
{
    RecoveryReport report;
    report.criticalStateFound = true;
    std::uint32_t budget = opts.maxApplications;

    // Flash tier: rehydrate destaged pages before scanning the redo
    // frames (same contract as undo recovery -- the scan must see a
    // whole image).
    for (McId mc = 0; mc < opts.flashImages.size(); ++mc) {
        report.pagesRehydrated +=
            fwdmap::rehydrate(nvm, _amap, mc, *opts.flashImages[mc]);
    }

    struct PendingEntry
    {
        Addr line;
        Addr dataAddr;
    };

    // Walk one controller's durable frame stream, hopping bucket to
    // bucket exactly like the engine's cursor (log pages interleave
    // across controllers; contiguous scanning would cross into a
    // neighbour's stream).
    const std::uint32_t frames_per_bucket = kPageBytes / (8 * kLineBytes);
    auto for_each_slot = [&](McId mc, auto &&fn) {
        for (std::uint32_t b = 0; b < _amap.bucketsPerMc(); ++b) {
            for (std::uint32_t f = 0; f < frames_per_bucket; ++f) {
                const Addr frame = _amap.bucketBase(mc, b) +
                                   Addr(f) * 8 * kLineBytes;
                const Line meta = nvm.readLine(frame);
                std::uint32_t magic;
                std::memcpy(&magic, meta.data(), sizeof(magic));
                if (magic != redo_format::kMetaMagic)
                    return;  // end of durable stream
                const std::uint8_t count = meta[4];
                if (count == 0 || count > redo_format::kSlotsPerFrame)
                    return;
                for (std::uint32_t s = 0; s < count; ++s) {
                    std::uint64_t word;
                    std::memcpy(&word, meta.data() + 8 + s * 8, 8);
                    fn(word, frame + Addr(s + 1) * kLineBytes);
                }
            }
        }
    };

    // Pass 1: a transaction (core, seq) is committed only if its
    // commit slot persisted at EVERY controller it logged at -- a
    // marker durable at a strict subset means the crash interrupted
    // the commit and the update must be discarded everywhere.
    std::map<std::pair<CoreId, std::uint64_t>, std::uint32_t> seen;
    std::map<std::pair<CoreId, std::uint64_t>, std::uint32_t> want;
    for (McId mc = 0; mc < _cfg.numMemCtrls; ++mc) {
        for_each_slot(mc, [&](std::uint64_t word, Addr) {
            if (!redo_format::isCommit(word))
                return;
            const auto key = std::make_pair(
                redo_format::slotCore(word),
                redo_format::commitSeq(word));
            seen[key] |= 1u << mc;
            want[key] = redo_format::commitMcMask(word);
        });
    }
    for (McId mc = 0; mc < _cfg.numMemCtrls; ++mc) {
        // Pass 2: per core, entries accumulate until that core's next
        // commit slot; globally-committed markers make them
        // applicable, anything else is discarded.
        std::vector<std::vector<PendingEntry>> pending(_cfg.numCores);
        std::vector<PendingEntry> applicable;

        for_each_slot(mc, [&](std::uint64_t word, Addr data_addr) {
            const CoreId core = redo_format::slotCore(word);
            if (!redo_format::isCommit(word)) {
                pending[core].push_back(
                    PendingEntry{redo_format::slotAddr(word),
                                 data_addr});
                return;
            }
            const auto key = std::make_pair(
                core, redo_format::commitSeq(word));
            const bool committed = seen[key] == want[key];
            if (committed) {
                for (auto &e : pending[core])
                    applicable.push_back(e);
            }
            pending[core].clear();
        });

        for (std::size_t i = 0; i < applicable.size(); ++i) {
            const auto &e = applicable[i];
            if (budget == 0) {
                // Second crash mid-replay: under tornWrites the
                // interrupting entry's write commits a word prefix.
                report.interrupted = true;
                if (opts.tornWrites) {
                    const std::uint32_t words = tornWordCount(
                        opts.faultSeed, mc, e.line,
                        std::uint64_t(i));
                    nvm.writeLineWords(e.line, nvm.readLine(e.dataAddr),
                                       words);
                }
                return report;
            }
            --budget;
            nvm.writeLine(e.line, nvm.readLine(e.dataAddr));
            ++report.linesRestored;
            ++report.recordsApplied;
        }
    }
    return report;
}

} // namespace atomsim
