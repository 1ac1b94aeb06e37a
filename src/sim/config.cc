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

HybridMode
hybridModeFromName(const std::string &name)
{
    if (name == "nvmOnly")
        return HybridMode::NvmOnly;
    if (name == "memoryMode")
        return HybridMode::MemoryMode;
    if (name == "appDirect")
        return HybridMode::AppDirect;
    fatal("unknown hybrid mode '%s'", name.c_str());
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

DurabilityPolicy
durabilityPolicyFromName(const std::string &name)
{
    if (name == "strict")
        return DurabilityPolicy::Strict;
    if (name == "balanced")
        return DurabilityPolicy::Balanced;
    if (name == "eventual")
        return DurabilityPolicy::Eventual;
    fatal("unknown durability policy '%s'", name.c_str());
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
    fatal_if(numMemCtrls == 0, "need at least one memory controller");
    fatal_if((numMemCtrls & (numMemCtrls - 1)) != 0,
             "numMemCtrls must be a power of two (address interleaving)");
    fatal_if(l2Tiles == 0, "need at least one L2 tile");
    fatal_if(channelsPerMc == 0 || channelsPerMc > 2,
             "channelsPerMc must be 1 or 2");
    fatal_if(recordEntries == 0 || recordEntries > 7,
             "recordEntries must be in [1,7] (512-byte record)");
    fatal_if(bucketsPerMc == 0, "bucketsPerMc must be > 0");
    fatal_if(ausPerMc == 0, "ausPerMc must be > 0");
    fatal_if(meshRows == 0, "meshRows must be > 0");
    fatal_if(mediaErrorPer64k > 65536,
             "mediaErrorPer64k is a rate out of 65536");
    fatal_if(mediaRetryLimit > 64,
             "mediaRetryLimit > 64 is a livelock, not a retry policy");
    fatal_if(wheelBuckets < 64 ||
                 (wheelBuckets & (wheelBuckets - 1)) != 0,
             "wheelBuckets must be a power of two >= 64");
    if (hybrid()) {
        fatal_if(dramCacheMBPerMc == 0,
                 "hybrid memory needs dramCacheMBPerMc > 0");
        fatal_if(dramCacheAssoc == 0,
                 "dramCacheAssoc must be > 0");
        fatal_if(Addr(dramCacheMBPerMc) * 1024 * 1024 %
                         (Addr(dramCacheAssoc) * kLineBytes) !=
                     0,
                 "DRAM cache size must be a multiple of assoc * line "
                 "size");
        fatal_if(dramBanksPerMc == 0, "dramBanksPerMc must be > 0");
        fatal_if(dramRowBytes < kLineBytes ||
                     (dramRowBytes & (dramRowBytes - 1)) != 0,
                 "dramRowBytes must be a power of two >= the line "
                 "size");
    }
    fatal_if(!ssdTier && durabilityPolicy != DurabilityPolicy::Strict,
             "relaxed durability policies need the flash tier "
             "(ssdTier = true); without a destage pipeline there is "
             "nothing to relax");
    if (ssdTier) {
        fatal_if(ssdChannels == 0 || ssdDiesPerChannel == 0,
                 "ssdTier needs ssdChannels > 0 and ssdDiesPerChannel "
                 "> 0");
        fatal_if(ssdQueueDepth < 2,
                 "ssdQueueDepth must be >= 2 (SQ/CQ ring capacity)");
        fatal_if(ssdPollInterval == 0,
                 "ssdPollInterval must be > 0 (poll-mode reaping)");
        fatal_if(ssdFlashPagesPerMc == 0,
                 "ssdFlashPagesPerMc must be > 0");
        fatal_if(durabilityPolicy == DurabilityPolicy::Eventual &&
                     ssdStagingWindow == 0,
                 "eventual durability needs ssdStagingWindow > 0");
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
        // Smaller L2 slices keep the host footprint bounded at 1024
        // tiles (the line-state map dominates resident memory). The
        // narrow calendar wheel is kept as measured: widening it moves
        // the preset's host time and needs its own measurement.
        cfg.l2TileBytes = 64 * 1024;
        cfg.wheelBuckets = 256;
        break;
      default:
        fatal("makeMeshPreset: unsupported tile count %u "
              "(supported: 256, 1024)", tiles);
    }
    return cfg;
}

} // namespace atomsim
