/**
 * @file
 * System configuration: Table I of the paper, plus design knobs.
 *
 * Defaults reproduce the paper's evaluated machine: 32 OoO cores at
 * 2 GHz, 32-entry store queue, 32 KB 4-way L1, 32 x 1 MB 16-way L2
 * tiles, 4 memory controllers, NVM write/read latency of 360/240 core
 * cycles (10x DRAM write latency), 2D mesh with 4 rows and 16-byte
 * flits, 5.3 GB/s peak bandwidth per memory channel.
 */

#ifndef ATOMSIM_SIM_CONFIG_HH
#define ATOMSIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace atomsim
{

/**
 * Which atomic-durability design the system runs.
 *
 * These correspond one-to-one with the designs compared in Section V of
 * the paper.
 */
enum class DesignKind
{
    /** Hardware undo log; log persist in the store critical path. */
    Base,
    /** ATOM with the posted-log optimization (Section III-C). */
    Atom,
    /** ATOM with posted + source logging (Section III-D). */
    AtomOpt,
    /** No logging at all; upper bound. Data still flushed at commit. */
    NonAtomic,
    /** Redo-log design of Doshi et al. (HPCA 2016), hardware-assisted. */
    Redo,
};

/** Human-readable design name as used in the paper's figures. */
const char *designName(DesignKind kind);

/** Parse a design name ("BASE", "ATOM", "ATOM-OPT", ...). */
DesignKind designFromName(const std::string &name);

/**
 * Memory-system organization behind the controllers.
 *
 * The paper evaluates a flat NVM main memory; real NVM deployments
 * (Peng et al., arXiv:2002.06499; Liu et al., arXiv:1705.03598) put a
 * DRAM tier in front of it, either transparently or as an explicitly
 * partitioned region.
 */
enum class HybridMode : std::uint8_t
{
    /** Flat NVM (the paper's machine). No DRAM is modeled at all;
     * every timing-model byte behaves exactly as before this knob
     * existed. */
    NvmOnly,
    /** Memory mode: every address is backed by a per-MC set-
     * associative DRAM cache in front of the NVM channel (demand
     * fill on read miss, dirty-victim writeback to NVM). The DRAM
     * tier is volatile: its contents never reach the recovery image,
     * which holds only NVM-resident bytes. */
    MemoryMode,
    /** App-direct: as MemoryMode, but an address window (chosen by
     * SystemConfig::appDirectRegion) bypasses the DRAM cache and
     * talks straight to NVM. */
    AppDirect,
};

/** Human-readable hybrid-mode name ("nvmOnly", "memoryMode", ...). */
const char *hybridModeName(HybridMode mode);

/**
 * What a transaction's commit acknowledgment promises once the flash
 * tier (SystemConfig::ssdTier) turns log truncation into a real
 * destage pipeline. Strict is the paper's machine; the other two trade
 * recovery-point guarantees for commit latency.
 */
enum class DurabilityPolicy : std::uint8_t
{
    /** Durable at NVM write: the commit ack waits for the full
     * flush + truncate pipeline, exactly as without the flash tier.
     * A crash after the ack loses nothing. */
    Strict,
    /** Ack at NVM durability, but truncation completion additionally
     * waits until the un-destaged cold-page backlog has drained below
     * ssdMaxDestageBacklog, bounding the NVM-resident log footprint.
     * Crash-loss guarantee identical to Strict. */
    Balanced,
    /** Ack from a volatile staging window of ssdStagingWindow commits:
     * the core continues as soon as its log is sealed, while the
     * flush + truncate pipeline completes in the background. A power
     * failure loses at most the staged (acked-but-untruncated)
     * commits, each of which rolls back wholly at recovery. */
    Eventual,
};

/** Human-readable policy name ("strict", "balanced", "eventual"). */
const char *durabilityPolicyName(DurabilityPolicy policy);

/**
 * Which region bypasses the DRAM cache in HybridMode::AppDirect: the
 * log placement policy. LogRegion steers ATOM's log (and the ADR
 * pages) direct-to-NVM while data pages are DRAM-cached — the natural
 * fit for undo logging, whose log writes are durability-critical and
 * whose data writebacks are not. DataRegion is the inverse design
 * point: data pages direct, the log region behind the DRAM cache
 * (log *writes* still persist write-through; only log reads — the
 * REDO backend's replay traffic — gain DRAM locality).
 */
enum class AppDirectRegion : std::uint8_t
{
    LogRegion,
    DataRegion,
};

/**
 * Full machine + design configuration.
 *
 * The static constexpr members are parameters no run sets to anything
 * but the value given here; they read like the settable fields
 * (cfg.l1Latency) but are not part of the configuration space that
 * validate() and the tests have to cover.
 */
struct SystemConfig
{
    // --- Cores (Table I) -------------------------------------------------
    std::uint32_t numCores = 32;
    /** Core clock in Hz; used only to convert cycles to seconds. */
    static constexpr double clockHz = 2.0e9;
    std::uint32_t sqEntries = 32;
    /**
     * Stores the SQ may retire concurrently (entries dequeue in
     * order). Models the LogI MSHRs that let log writes of several
     * stores overlap (Section IV-B) instead of serializing each
     * log persist at the SQ head.
     */
    static constexpr std::uint32_t sqDrainWidth = 2;
    /**
     * Average non-memory work between two memory micro-ops, in cycles.
     * Stands in for the OoO core's compute (instruction fetch/decode,
     * address generation, the program's non-memory instructions);
     * calibrated so the BASE-vs-NON-ATOMIC gap lands in the paper's
     * reported range. The in-order core model (cpu/core.hh) has no
     * other source of non-memory time.
     */
    static constexpr Cycles computeGap = 80;

    // --- L1 (Table I) ----------------------------------------------------
    std::uint32_t l1SizeBytes = 32 * 1024;
    std::uint32_t l1Assoc = 4;
    static constexpr Cycles l1Latency = 3;
    std::uint32_t mshrs = 32;

    // --- L2 (Table I) ----------------------------------------------------
    std::uint32_t l2Tiles = 32;
    std::uint32_t l2TileBytes = 1024 * 1024;
    std::uint32_t l2Assoc = 16;
    static constexpr Cycles l2Latency = 30;

    // --- Memory (Table I) ------------------------------------------------
    std::uint32_t numMemCtrls = 4;
    /** Channels per memory controller (1 default; 2 for the -2C runs). */
    std::uint32_t channelsPerMc = 1;
    Cycles nvmReadLatency = 240;
    Cycles nvmWriteLatency = 360;
    /**
     * Peak bandwidth per channel in bytes/second (5.3 GB/s). Converted
     * to a per-64B-transfer channel occupancy internally.
     */
    static constexpr double channelBandwidthBytesPerSec = 5.3e9;
    /** Latency of the record-header address match in the MC (1 cycle). */
    static constexpr Cycles mcAddrMatchLatency = 1;
    /** MC scheduling / queueing overhead per request. */
    static constexpr Cycles mcFrontendLatency = 8;
    /** Write queue entries per controller. */
    static constexpr std::uint32_t mcWriteQueue = 64;

    // --- Hybrid DRAM/NVM memory (src/mem/dram_{device,cache}) --------
    /**
     * Memory organization behind the controllers. The default,
     * NvmOnly, models the paper's flat NVM machine and leaves every
     * golden byte-identical; MemoryMode/AppDirect put a per-MC DRAM
     * cache in front of the NVM channel.
     */
    HybridMode hybridMode = HybridMode::NvmOnly;
    /** Which region bypasses the cache in AppDirect mode (the log
     * placement policy; see designs/design.hh::logPlacementName). */
    AppDirectRegion appDirectRegion = AppDirectRegion::LogRegion;
    /** DRAM-cache capacity per memory controller, in MB. */
    std::uint32_t dramCacheMBPerMc = 16;
    /** DRAM-cache associativity. */
    std::uint32_t dramCacheAssoc = 8;
    /** DRAM banks per controller (row buffers / busy reservations). */
    static constexpr std::uint32_t dramBanksPerMc = 8;
    static_assert(dramBanksPerMc > 0, "dramBanksPerMc must be > 0");
    /** DRAM row-buffer size in bytes (power of two >= line size). */
    static constexpr std::uint32_t dramRowBytes = 2048;
    static_assert(dramRowBytes >= kLineBytes &&
                      (dramRowBytes & (dramRowBytes - 1)) == 0,
                  "dramRowBytes must be a power of two >= the line size");
    /** Device latency when the access hits the open row. */
    static constexpr Cycles dramRowHitLatency = 18;
    /** Device latency on a row-buffer miss (precharge + activate). */
    static constexpr Cycles dramRowMissLatency = 36;
    /**
     * Peak DRAM bandwidth per controller in bytes/second (12.8 GB/s,
     * one DDR channel); converted to a per-64B-transfer occupancy.
     */
    static constexpr double dramBandwidthBytesPerSec = 12.8e9;

    // --- Flash/SSD third tier (src/mem/ssd_device) -------------------
    /**
     * Model a flash tier behind the NVM (off by default; every golden
     * stays byte-identical). Each controller owns an NVMe-style SSD
     * slice — per-channel submission/completion queue pairs the
     * controller polls — plus a destage engine that
     * migrates cold log segments and cold data pages to flash at log
     * truncation, leaving a durable NVM-resident forwarding map so
     * reads of destaged pages stall through the SSD read path.
     */
    bool ssdTier = false;
    /** Commit-ack durability contract when the tier is on (strict
     * required when off). See DurabilityPolicy. */
    DurabilityPolicy durabilityPolicy = DurabilityPolicy::Strict;
    /** Flash channels per controller (one SQ/CQ pair each). */
    std::uint32_t ssdChannels = 4;
    /** Independent dies per channel (tR/tPROG occupancy units). */
    static constexpr std::uint32_t ssdDiesPerChannel = 2;
    static_assert(ssdDiesPerChannel > 0, "ssdDiesPerChannel must be > 0");
    /** Per-queue-pair bound on outstanding commands (submitted and
     * not yet reaped), so it bounds both the SQ and the CQ. */
    std::uint32_t ssdQueueDepth = 32;
    /** Poll cadence of the controller's doorbell/reap loop, in cycles. */
    static constexpr Cycles ssdPollInterval = 200;
    static_assert(ssdPollInterval > 0,
                  "ssdPollInterval must be > 0 (poll-mode reaping)");
    /** Die read (tR) latency in core cycles (~8 us at 2 GHz). */
    Cycles ssdReadLatency = 16000;
    /** Die program (tPROG) latency in core cycles (~20 us at 2 GHz). */
    Cycles ssdProgramLatency = 40000;
    /** Channel bus bandwidth in bytes/second (1.2 GB/s ONFI-ish);
     * converted to a per-4KB-page transfer occupancy. */
    static constexpr double ssdChannelBandwidthBytesPerSec = 1.2e9;
    /** Flash pages addressable per controller slice (also sizes the
     * NVM-resident forwarding map: 16 bytes per flash page). */
    std::uint32_t ssdFlashPagesPerMc = 4096;
    /** Cold data pages the engine keeps NVM-resident before destaging
     * the excess (truncation order, oldest first). */
    std::uint32_t ssdColdPageWatermark = 256;
    /** Balanced/eventual: truncation completion parks until the
     * un-destaged backlog (pending + in-flight destages) is at most
     * this many pages. */
    std::uint32_t ssdMaxDestageBacklog = 16;
    /** Eventual: commits acknowledged early from the volatile staging
     * window; at most this many acked commits are lost on powerFail. */
    static constexpr std::uint32_t ssdStagingWindow = 8;
    static_assert(ssdStagingWindow > 0,
                  "eventual durability needs ssdStagingWindow > 0");

    // --- Network (Table I) -----------------------------------------------
    std::uint32_t meshRows = 4;
    /** Per-hop router + link traversal latency. */
    static constexpr Cycles hopLatency = 2;

    // --- ATOM log manager (Section IV) -------------------------------
    /** Log records are 8 lines: 7 data entries + 1 header. */
    static constexpr std::uint32_t recordEntries = 7;
    static_assert(recordEntries >= 1 && recordEntries <= 7,
                  "recordEntries must be in [1,7] (512-byte record)");
    /** Buckets per memory controller (bucket bit vector width). */
    std::uint32_t bucketsPerMc = 256;
    /** Concurrent atomic updates supported in hardware (AUS count). */
    std::uint32_t ausPerMc = 32;
    /** Enable log-entry collation (ablation knob; paper default on). */
    bool enableLec = true;
    /**
     * Buckets the OS initially hands to each controller's free list
     * (0 = all of bucketsPerMc). Smaller values exercise log overflow:
     * the OS is interrupted to map more log pages (Section IV-E).
     */
    std::uint32_t osInitialBucketsPerMc = 0;
    /** OS interrupt + page-mapping cost on log overflow. */
    static constexpr Cycles osOverflowLatency = 5000;

    // --- Isolation ---------------------------------------------------
    /**
     * Serialize transactions across cores through a global ticket
     * (cpu/core.hh, RegionSerializer): a core holds the ticket from
     * transaction fetch through completion, so no two cores ever run
     * concurrently. This emulates the lock-based isolation ATOM
     * requires from software, and is needed for crash consistency
     * whenever a workload's regions mutate structures SHARED between
     * cores (TPC-C): rolling back one core's incomplete region must
     * never restore pre-images over another core's committed writes,
     * and -- because store payloads are computed functionally at
     * fetch -- commit order must match fetch order, or a crash can
     * roll back an update that a later-fetched committed transaction
     * structurally built upon. Off (the default) keeps concurrent
     * timing and every pinned golden unchanged; the per-core micro
     * workloads never share written lines, so they do not need it.
     */
    bool serializeAtomicRegions = false;

    // --- Fault model (src/sim/fault.hh; defaults all off) ------------
    /**
     * Torn writes: at power failure, each write in flight at the NVM
     * device commits a seeded word-aligned *prefix* (0..8 of its
     * 8-byte words) instead of committing or vanishing atomically --
     * real NVM guarantees only 8-byte write atomicity. Off (the
     * default) keeps the gentle atomic model and every golden
     * byte-identical. The tear boundary of each write is a pure
     * function of (faultSeed, controller, address, acceptance
     * sequence), so it is identical across reruns.
     */
    bool tornWrites = false;
    /**
     * Media errors: expected failed NVM read attempts per 65536
     * (0 = off, 65536 = every attempt fails). A failed attempt is
     * retried after mediaRetryBackoff extra device cycles, up to
     * mediaRetryLimit retries; exhausting the retries surfaces a
     * structured MediaFaultRecord on the controller (the data is
     * still delivered -- the model reports the uncorrectable error
     * instead of silently corrupting the line).
     */
    std::uint32_t mediaErrorPer64k = 0;
    /** Bounded retries after a failed read attempt. */
    std::uint32_t mediaRetryLimit = 3;
    /** Extra device backoff per media-error retry, in cycles. */
    static constexpr Cycles mediaRetryBackoff = 100;
    /**
     * Seed of the fault-injection streams (torn-write boundaries,
     * media errors, recovery-crash tears). Deliberately separate from
     * the workload seed so the same workload can be swept across
     * fault patterns.
     */
    std::uint64_t faultSeed = 1;

    // --- Design under test -------------------------------------------
    DesignKind design = DesignKind::AtomOpt;

    /** Workload RNG seed. */
    std::uint64_t seed = 42;

    // --- Multi-tenant serving (src/workloads/kv_workload) ------------
    /**
     * Number of tenants sharing the machine (0 = single-tenant, the
     * default; every historical config). Tenants partition the cores
     * into contiguous balanced blocks (tenantOf) and, for workloads
     * that support it, run independent instances over disjoint address
     * ranges. When nonzero, per-tenant counters ("tenantN.commits",
     * "tenantN.aus_acquires", "tenantN.log_writes") join the StatSet
     * and the Runner records per-tenant/per-class latency histograms.
     */
    std::uint32_t numTenants = 0;

    /** Tenant owning @p core (0 when single-tenant). Contiguous
     * balanced blocks: core c -> c * T / numCores. */
    std::uint32_t
    tenantOf(std::uint32_t core) const
    {
        if (numTenants == 0)
            return 0;
        return std::uint32_t(std::uint64_t(core) * numTenants / numCores);
    }

    /** Tenant count as an array bound (1 when single-tenant). */
    std::uint32_t
    tenantSlots() const
    {
        return numTenants ? numTenants : 1;
    }

    // --- Derived -----------------------------------------------------
    /** Channel occupancy of one 64-byte transfer, in core cycles. */
    Cycles lineTransferCycles() const;
    /** DRAM occupancy of one 64-byte transfer, in core cycles. */
    Cycles dramTransferCycles() const;
    /** Flash channel occupancy of one 4 KB page transfer, in cycles. */
    Cycles ssdPageTransferCycles() const;
    /** True when a DRAM tier is configured (hybridMode != NvmOnly). */
    bool hybrid() const { return hybridMode != HybridMode::NvmOnly; }
    /** Mesh columns = total tiles / rows (cores co-located with tiles). */
    std::uint32_t meshCols() const;
    /**
     * Bytes of LogM critical state the ADR flush writes per controller
     * (LogM::flushCriticalState): a 16-byte header, then per AUS its
     * bucket bit vector and five 4-byte registers. It must fit the
     * controller's one-page ADR region; validate() checks that.
     */
    std::uint64_t adrStateBytes() const;

    /** Abort with a message if the configuration is inconsistent. */
    void validate() const;

    /**
     * Large-mesh preset: a scaled machine with @p tiles cores and L2
     * tiles on a square mesh. Supported sizes: 256 (16x16 mesh, 8 MCs)
     * and 1024 (32x32 mesh, 16 MCs). Per-tile L2 capacity shrinks with
     * scale; everything else keeps the Table I defaults.
     */
    static SystemConfig makeMeshPreset(std::uint32_t tiles);
};

} // namespace atomsim

#endif // ATOMSIM_SIM_CONFIG_HH
