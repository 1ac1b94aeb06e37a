#include "sim/config.hh"

#include <cmath>

#include "sim/logging.hh"

namespace atomsim
{

const char *
designName(DesignKind kind)
{
    switch (kind) {
      case DesignKind::Base:
        return "BASE";
      case DesignKind::Atom:
        return "ATOM";
      case DesignKind::AtomOpt:
        return "ATOM-OPT";
      case DesignKind::NonAtomic:
        return "NON-ATOMIC";
      case DesignKind::Redo:
        return "REDO";
    }
    return "?";
}

DesignKind
designFromName(const std::string &name)
{
    if (name == "BASE")
        return DesignKind::Base;
    if (name == "ATOM")
        return DesignKind::Atom;
    if (name == "ATOM-OPT" || name == "ATOM_OPT")
        return DesignKind::AtomOpt;
    if (name == "NON-ATOMIC" || name == "NON_ATOMIC")
        return DesignKind::NonAtomic;
    if (name == "REDO")
        return DesignKind::Redo;
    fatal("unknown design name '%s'", name.c_str());
}

const char *
hybridModeName(HybridMode mode)
{
    switch (mode) {
      case HybridMode::NvmOnly:
        return "nvmOnly";
      case HybridMode::MemoryMode:
        return "memoryMode";
      case HybridMode::AppDirect:
        return "appDirect";
    }
    return "?";
}

const char *
durabilityPolicyName(DurabilityPolicy policy)
{
    switch (policy) {
      case DurabilityPolicy::Strict:
        return "strict";
      case DurabilityPolicy::Balanced:
        return "balanced";
      case DurabilityPolicy::Eventual:
        return "eventual";
    }
    return "?";
}

Cycles
SystemConfig::lineTransferCycles() const
{
    const double bytes_per_cycle = channelBandwidthBytesPerSec / clockHz;
    return static_cast<Cycles>(
        std::ceil(double(kLineBytes) / bytes_per_cycle));
}

Cycles
SystemConfig::dramTransferCycles() const
{
    const double bytes_per_cycle = dramBandwidthBytesPerSec / clockHz;
    return static_cast<Cycles>(
        std::ceil(double(kLineBytes) / bytes_per_cycle));
}

Cycles
SystemConfig::ssdPageTransferCycles() const
{
    // 4096 = kPageBytes (mem/phys_mem.hh); sim/ sits below mem/ in
    // the include layering, so the constant is repeated here.
    const double bytes_per_cycle =
        ssdChannelBandwidthBytesPerSec / clockHz;
    return static_cast<Cycles>(std::ceil(4096.0 / bytes_per_cycle));
}

std::uint32_t
SystemConfig::meshCols() const
{
    return (numCores + meshRows - 1) / meshRows;
}

std::uint64_t
SystemConfig::adrStateBytes() const
{
    const std::uint64_t vec_bytes = (std::uint64_t(bucketsPerMc) + 7) / 8;
    return 16 + std::uint64_t(ausPerMc) * (vec_bytes + 20);
}

void
SystemConfig::validate() const
{
    fatal_if(numCores == 0, "numCores must be > 0");
    fatal_if(sqEntries == 0, "sqEntries must be > 0");
    // Associativities divide the size checks below; MSHR-less caches
    // can never complete a miss.
    fatal_if(l1Assoc == 0, "l1Assoc must be > 0");
    fatal_if(l2Assoc == 0, "l2Assoc must be > 0");
    fatal_if(mshrs == 0, "mshrs must be > 0");
    fatal_if(l1SizeBytes % (l1Assoc * kLineBytes) != 0,
             "L1 size must be a multiple of assoc * line size");
    fatal_if(l2TileBytes % (l2Assoc * kLineBytes) != 0,
             "L2 tile size must be a multiple of assoc * line size");
    // CacheArray masks the line number into a set index, so each
    // level needs a non-zero power-of-two set count.
    const std::uint32_t l1_sets = l1SizeBytes / (l1Assoc * kLineBytes);
    const std::uint32_t l2_sets = l2TileBytes / (l2Assoc * kLineBytes);
    fatal_if(l1_sets == 0 || (l1_sets & (l1_sets - 1)) != 0,
             "L1 set count (%u) must be a non-zero power of two",
             l1_sets);
    fatal_if(l2_sets == 0 || (l2_sets & (l2_sets - 1)) != 0,
             "L2 tile set count (%u) must be a non-zero power of two",
             l2_sets);
    fatal_if(numMemCtrls == 0, "need at least one memory controller");
    fatal_if((numMemCtrls & (numMemCtrls - 1)) != 0,
             "numMemCtrls must be a power of two (address interleaving)");
    fatal_if(l2Tiles == 0, "need at least one L2 tile");
    fatal_if(channelsPerMc == 0 || channelsPerMc > 2,
             "channelsPerMc must be 1 or 2");
    fatal_if(bucketsPerMc == 0, "bucketsPerMc must be > 0");
    fatal_if(ausPerMc == 0, "ausPerMc must be > 0");
    // 4096 = kPageBytes (mem/phys_mem.hh), the size of each
    // controller's ADR region.
    fatal_if(adrStateBytes() > 4096,
             "ADR critical state (%llu bytes for ausPerMc=%u, "
             "bucketsPerMc=%u) exceeds the 4096-byte ADR page",
             (unsigned long long)adrStateBytes(), ausPerMc, bucketsPerMc);
    fatal_if(meshRows == 0, "meshRows must be > 0");
    // REDO's log slots (designs/redo_engine.hh, redo_format) hold the
    // core in 6 bits and a commit's controller mask in 8 bits; past
    // that, cores alias and commits lose controllers, and recovery
    // misreads a log it cannot tell apart.
    if (design == DesignKind::Redo) {
        fatal_if(numCores > 64,
                 "REDO's log format encodes at most 64 cores "
                 "(numCores=%u)", numCores);
        fatal_if(numMemCtrls > 8,
                 "REDO's log format encodes at most 8 memory "
                 "controllers (numMemCtrls=%u)", numMemCtrls);
    }
    fatal_if(mediaErrorPer64k > 65536,
             "mediaErrorPer64k is a rate out of 65536");
    fatal_if(mediaRetryLimit > 64,
             "mediaRetryLimit > 64 is a livelock, not a retry policy");
    if (hybrid()) {
        fatal_if(dramCacheMBPerMc == 0,
                 "hybrid memory needs dramCacheMBPerMc > 0");
        fatal_if(dramCacheAssoc == 0,
                 "dramCacheAssoc must be > 0");
        const Addr dram_bytes = Addr(dramCacheMBPerMc) * 1024 * 1024;
        const Addr dram_set_bytes = Addr(dramCacheAssoc) * kLineBytes;
        fatal_if(dram_bytes % dram_set_bytes != 0,
                 "DRAM cache size must be a multiple of assoc * line "
                 "size");
        // The DRAM cache is a CacheArray too, indexed like the L1 and
        // L2 above.
        const Addr dram_sets = dram_bytes / dram_set_bytes;
        fatal_if((dram_sets & (dram_sets - 1)) != 0,
                 "DRAM cache set count (%llu) must be a power of two",
                 (unsigned long long)dram_sets);
    }
    fatal_if(!ssdTier && durabilityPolicy != DurabilityPolicy::Strict,
             "relaxed durability policies need the flash tier "
             "(ssdTier = true); without a destage pipeline there is "
             "nothing to relax");
    if (ssdTier) {
        fatal_if(ssdChannels == 0, "ssdTier needs ssdChannels > 0");
        fatal_if(ssdQueueDepth < 2,
                 "ssdQueueDepth must be >= 2 (outstanding commands per "
                 "queue pair)");
        fatal_if(ssdFlashPagesPerMc == 0,
                 "ssdFlashPagesPerMc must be > 0");
    }
}

SystemConfig
SystemConfig::makeMeshPreset(std::uint32_t tiles)
{
    SystemConfig cfg;
    switch (tiles) {
      case 256:
        cfg.numCores = 256;
        cfg.l2Tiles = 256;
        cfg.meshRows = 16;
        cfg.numMemCtrls = 8;
        cfg.l2TileBytes = 256 * 1024;
        break;
      case 1024:
        cfg.numCores = 1024;
        cfg.l2Tiles = 1024;
        cfg.meshRows = 32;
        cfg.numMemCtrls = 16;
        // Cache storage is allocated at first fill, so the host
        // footprint follows the sets a run touches, not the slice
        // size. The 64 KB slices stay because changing them would move
        // kv-serving's modeled outputs. Every latency kv-serving
        // schedules fits the event queue's 4096-tick wheel, so none of
        // its events pays the spill heap.
        cfg.l2TileBytes = 64 * 1024;
        break;
      default:
        fatal("makeMeshPreset: unsupported tile count %u "
              "(supported: 256, 1024)", tiles);
    }
    return cfg;
}

} // namespace atomsim
