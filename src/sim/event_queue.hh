/**
 * @file
 * Discrete-event simulation kernel.
 *
 * atomsim is driven by a single event queue per simulated machine
 * (System owns it). Components schedule work at absolute ticks; the
 * queue executes it in (tick, insertion-order) order, which gives
 * deterministic simulation for a fixed configuration and seed.
 *
 * Event model
 * -----------
 * The kernel is built around gem5-style *intrusive* events: an Event is
 * an object whose queue linkage (tick, sequence number, bucket link)
 * lives inside the object itself, so scheduling one performs no
 * allocation. Components own their recurring events as members --
 * conventionally named `_tickEvent` / `_drainEvent` etc. and declared as
 * EventFunctionWrapper (alias TickEvent) -- and (re)schedule the same
 * object over and over:
 *
 *     class Core {
 *         ...
 *         TickEvent _opDoneEvent{[this] { opDone(_opDoneIdx); }};
 *     };
 *     _eq.scheduleIn(_opDoneEvent, op.cycles);
 *
 * For one-shot continuations whose capture state is inherently dynamic
 * (cache-miss fills, mesh deliveries, NVM completions) the queue offers
 * post()/postIn(): the callback is moved into a FuncEvent drawn from an
 * internal free-list pool, so the steady-state hot loop performs zero
 * queue-node allocations on this path too (the pool grows to the
 * high-water mark of in-flight one-shots and is then reused forever).
 *
 * Calendar queue
 * --------------
 * Pending events live in a two-level calendar queue:
 *
 *  - a *timing wheel* of wheelWidth() one-tick buckets covering the
 *    near horizon [now(), now() + wheelWidth()). The width is a
 *    construction-time knob (SystemConfig::wheelBuckets; default
 *    kWheelBuckets = 4096) -- tune it against spillRatio() for
 *    workloads whose latency mix overflows the horizon. Each bucket is
 *    an intrusive singly-linked FIFO list; because every schedule()
 *    call appends at the tail with a monotonically increasing global
 *    sequence number, a bucket is always sorted by insertion order. A
 *    bitmap (one bit per bucket) makes "find the next non-empty
 *    bucket" a handful of word scans + ctz;
 *
 *  - a *spill heap* for far-future events (when >= now() + width),
 *    ordered by (tick, seq). The heap is *indexed* (each spilled event
 *    carries its heap slot), so deschedule() on the spill is an
 *    O(log n) sift instead of the old O(n) erase + re-heapify --
 *    powerFail-heavy runs deschedule member events that routinely sit
 *    in the spill. Whenever now() advances, events whose tick has come
 *    inside the horizon migrate from the heap into their wheel bucket.
 *    Migration pops the heap in (tick, seq) order and the wheel window
 *    invariant guarantees a migrating event can never land in a bucket
 *    that already holds same-tick events, so FIFO order within a tick
 *    is preserved across the two levels.
 *
 * Schedule/execute are therefore O(1) for the near horizon (the common
 * case: latencies in this machine are 1..~400 cycles) and O(log n) only
 * for far-future spills (e.g. the 5000-cycle OS overflow interrupt).
 */

#ifndef ATOMSIM_SIM_EVENT_QUEUE_HH
#define ATOMSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace atomsim
{

class EventQueue;
class FuncEvent;

/**
 * Base class of every schedulable event.
 *
 * The queue linkage is intrusive: _when/_seq/_next live in the event, so
 * scheduling allocates nothing. An Event may be scheduled on at most one
 * queue at a time; scheduling an already-scheduled event is a bug (use
 * reschedule()). Destroying a scheduled event deschedules it first.
 */
class Event
{
  public:
    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    /** True while the event sits on a queue. */
    bool scheduled() const { return (_flags & kScheduled) != 0; }

    /** Tick the event is scheduled at (valid while scheduled()). */
    Tick when() const { return _when; }

  protected:
    Event() = default;
    virtual ~Event();

  private:
    friend class EventQueue;

    static constexpr std::uint16_t kScheduled = 0x1;
    static constexpr std::uint16_t kPooled = 0x2;
    static constexpr std::uint16_t kInSpill = 0x4;

    Event *_next = nullptr;        //!< bucket / free-list link
    EventQueue *_queue = nullptr;  //!< queue we are scheduled on
    Tick _when = 0;
    std::uint64_t _seq = 0;        //!< FIFO tie-breaker within a tick
    std::uint32_t _spillIdx = 0;   //!< heap slot while kInSpill
    std::uint16_t _flags = 0;
};

/**
 * An Event that runs a callback bound once at construction time.
 *
 * This is the building block for component-owned recurring events: the
 * std::function is allocated once when the component is built and the
 * same object is rescheduled forever after.
 */
class EventFunctionWrapper : public Event
{
  public:
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  const char *name = "anon")
        : _fn(std::move(fn)), _name(name)
    {
    }

    void process() override { _fn(); }

    const char *name() const { return _name; }

  private:
    std::function<void()> _fn;
    const char *_name;
};

/** Conventional name for a component's recurring member event. */
using TickEvent = EventFunctionWrapper;

/**
 * A single-owner discrete event queue (see the file comment for the
 * event model and calendar-queue design).
 *
 * Scheduling is allowed from inside event execution (the common case).
 * Events may be scheduled at the current tick; they run after all
 * previously-scheduled events of that tick.
 */
class EventQueue
{
  public:
    /**
     * Continuation type carried by pooled one-shot events. A fixed
     * inline capacity (no heap fallback, enforced at compile time)
     * keeps the post()/postIn() path allocation-free in steady state;
     * the capacity covers the largest hot-path capture in the tree
     * (the NVM read completion: a 104-byte read callback plus the
     * 64-byte line it delivers).
     */
    static constexpr std::size_t kCallbackBytes = 192;
    using Callback = InplaceCallback<kCallbackBytes>;

    /** Default near-horizon width, in ticks (power of two). */
    static constexpr std::uint32_t kWheelBuckets = 4096;

    /**
     * @param wheel_buckets near-horizon width in one-tick buckets;
     *                      must be a power of two >= 64
     */
    explicit EventQueue(std::uint32_t wheel_buckets = kWheelBuckets);
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Configured near-horizon width, in ticks. */
    std::uint32_t wheelWidth() const { return _wheelBuckets; }

    // --- intrusive API (component-owned events) -----------------------

    /**
     * Schedule @p ev at absolute tick @p when.
     *
     * @pre when >= now()
     * @pre !ev.scheduled()
     */
    void schedule(Event &ev, Tick when);

    /** Schedule @p ev @p delay ticks from now. */
    void scheduleIn(Event &ev, Cycles delay) { schedule(ev, _now + delay); }

    /** Remove @p ev from the queue (no-op if not scheduled here). */
    void deschedule(Event &ev);

    /** Move @p ev to @p when, whether or not it is scheduled. */
    void
    reschedule(Event &ev, Tick when)
    {
        deschedule(ev);
        schedule(ev, when);
    }

    // --- order-preserving replay (expert API) -------------------------

    /**
     * Draw a sequence number from the queue's FIFO tie-break counter
     * without scheduling anything. Pair with scheduleAt(): a component
     * that batches work behind one member event (e.g. a mesh link's
     * delivery queue) stamps each item at *submission* time and later
     * schedules its event into the stamped slot, so the item executes
     * in exactly the order a per-item event scheduled at submission
     * time would have -- deterministic replay across refactors.
     */
    std::uint64_t allocSeq() { return _seq++; }

    /**
     * Schedule @p ev at tick @p when occupying the previously-drawn
     * FIFO slot @p seq (see allocSeq()). Unlike schedule(), the event
     * is inserted *sorted* into its bucket, so a stale seq lands in
     * front of later-scheduled same-tick events.
     *
     * @pre when >= now(); seq was returned by allocSeq()
     */
    void scheduleAt(Event &ev, Tick when, std::uint64_t seq);

    // --- pooled one-shot API (dynamic continuations) ------------------

    /**
     * Run @p cb at absolute tick @p when. The callback is carried by a
     * FuncEvent drawn from the internal free-list pool; the event
     * object returns to the pool as it fires, so steady state allocates
     * no queue nodes.
     */
    void post(Tick when, Callback cb);

    /** Run @p cb @p delay ticks from now. */
    void postIn(Cycles delay, Callback cb) { post(_now + delay, std::move(cb)); }

    // --- execution ----------------------------------------------------

    /** True when no events remain. */
    bool empty() const { return _pending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /**
     * Execute a single event (the earliest). Advances now() to the
     * event's tick.
     *
     * @retval true an event was executed
     * @retval false the queue was empty
     */
    bool step();

    /**
     * Run until the queue drains or @p limit ticks is reached.
     *
     * @param limit absolute tick bound (events after it stay queued)
     * @return number of events executed
     */
    std::uint64_t run(Tick limit = kTickNever);

    /**
     * Run until @p pred returns true (checked before every event), the
     * queue drains, or @p limit is hit.
     */
    std::uint64_t runUntil(const std::function<bool()> &pred,
                           Tick limit = kTickNever);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed; }

    // --- pool introspection (tests / diagnostics) ---------------------

    /** FuncEvents ever allocated (pool high-water mark). */
    std::size_t poolAllocated() const { return _funcPool.size(); }

    /** FuncEvents currently idle on the free list. */
    std::size_t poolFree() const { return _poolFreeCount; }

    // --- calendar-wheel tuning stats ----------------------------------

    /** Schedules that landed in the near-horizon wheel. */
    std::uint64_t wheelInserts() const { return _wheelInserts; }

    /** Schedules that overflowed to the far-future spill heap. */
    std::uint64_t spillInserts() const { return _spillInserts; }

    /**
     * Fraction of schedules that missed the wheel horizon. A high
     * ratio means the wheel width is too narrow (or bucket granularity
     * too fine) for the workload's latency mix; widen it through
     * SystemConfig::wheelBuckets.
     */
    double
    spillRatio() const
    {
        const std::uint64_t total = _wheelInserts + _spillInserts;
        return total ? double(_spillInserts) / double(total) : 0.0;
    }

  private:
    struct Bucket
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /** True when @p a fires strictly before @p b ((tick, seq) order). */
    static bool
    spillBefore(const Event *a, const Event *b)
    {
        if (a->_when != b->_when)
            return a->_when < b->_when;
        return a->_seq < b->_seq;
    }

    /** Append to the wheel bucket of ev->_when (must be in-horizon). */
    void wheelInsert(Event *ev);

    /** Insert sorted by seq into the bucket of ev->_when (scheduleAt /
     * spill migration, where seqs may be stale). */
    void wheelInsertSorted(Event *ev);

    /** Common bookkeeping for schedule()/scheduleAt(). */
    void enqueue(Event &ev, Tick when, bool sorted);

    /** Tick of the earliest pending event (wheel beats spill). */
    Tick nextEventTick() const;

    /** Earliest non-empty wheel bucket's tick (requires _wheelCount). */
    Tick nextWheelTick() const;

    // --- indexed spill heap (O(log n) removal) ------------------------

    void spillPush(Event *ev);
    Event *spillPopMin();
    void spillRemove(Event *ev);
    void spillSiftUp(std::size_t i);
    void spillSiftDown(std::size_t i);

    /** Pull spill-heap events that entered the horizon into the wheel. */
    void migrate();

    /** Pop and run the earliest event, known to be at tick @p t. */
    void executeNext(Tick t);

    FuncEvent *acquirePooled();
    void releasePooled(FuncEvent *ev);

    const std::uint32_t _wheelBuckets;
    const std::uint32_t _wheelMask;
    const std::uint32_t _bitmapWords;

    std::vector<Bucket> _wheel;
    std::vector<std::uint64_t> _occupied;
    std::vector<Event *> _spill;  //!< indexed min-heap of far events

    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _wheelInserts = 0;
    std::uint64_t _spillInserts = 0;
    std::size_t _pending = 0;
    std::size_t _wheelCount = 0;

    std::vector<std::unique_ptr<FuncEvent>> _funcPool;
    Event *_freeList = nullptr;
    std::size_t _poolFreeCount = 0;
};

} // namespace atomsim

#endif // ATOMSIM_SIM_EVENT_QUEUE_HH
