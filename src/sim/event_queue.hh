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
 * A mesh Packet is such a member-style event too: it is its own
 * delivery event, scheduled at its arrival tick when it is sent.
 *
 * For one-shot continuations whose capture state is inherently dynamic
 * (cache-miss fills, NVM completions) the queue offers
 * post()/postIn(): the callable is constructed straight into a
 * FuncEvent drawn from an internal free-list pool, so the steady-state
 * hot loop performs zero queue-node allocations on this path too (the
 * pool grows to the high-water mark of in-flight one-shots and is then
 * reused forever), and a posted lambda moves exactly twice: into the
 * node, and out of it when the event runs.
 *
 * Calendar queue
 * --------------
 * Pending events live in a two-level calendar queue:
 *
 *  - a *timing wheel* of kWheelBuckets = 4096 one-tick buckets
 *    covering the near horizon [now(), now() + kWheelBuckets). Each
 *    bucket is an intrusive singly-linked FIFO list; because every
 *    schedule() call appends at the tail with a monotonically
 *    increasing global sequence number, a bucket is always sorted by
 *    insertion order. A bitmap (one bit per bucket) makes "find the
 *    next non-empty bucket" a handful of word scans + ctz;
 *
 *  - a *spill heap* for far-future events (when >= now() +
 *    kWheelBuckets), a binary min-heap ordered by (tick, seq);
 *    deschedule() on the spill is a linear scan, as descheduling a
 *    far-future event is rare. Whenever now() advances, events whose
 *    tick has come inside the horizon migrate from the heap into
 *    their wheel bucket. Migration pops the heap in (tick, seq) order
 *    and the wheel window invariant guarantees a migrating event can
 *    never land in a bucket that already holds an event scheduled
 *    directly into the wheel, so appending keeps FIFO order within a
 *    tick across the two levels.
 *
 * Schedule/execute are therefore O(1) for the near horizon (the common
 * case: latencies in this machine are 1..~400 cycles) and O(log n) only
 * for far-future spills (e.g. the 5000-cycle OS overflow interrupt).
 */

#ifndef ATOMSIM_SIM_EVENT_QUEUE_HH
#define ATOMSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/pool.hh"
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
    friend class FuncEvent;

    static constexpr std::uint16_t kScheduled = 0x1;
    static constexpr std::uint16_t kPooled = 0x2;
    static constexpr std::uint16_t kInSpill = 0x4;

    Event *_next = nullptr;        //!< wheel-bucket link
    EventQueue *_queue = nullptr;  //!< queue we are scheduled on
    Tick _when = 0;
    std::uint64_t _seq = 0;        //!< FIFO tie-breaker within a tick
    std::uint16_t _flags = 0;
};

/**
 * An Event that runs a callback bound once at construction time.
 *
 * This is the building block for component-owned recurring events: the
 * callback is built once, inline, when the component is built and the
 * same object is rescheduled forever after. Every member event
 * captures its owner plus at most an index, hence the 24-byte
 * capacity.
 */
class EventFunctionWrapper : public Event
{
  public:
    using Callback = InplaceCallback<24>;

    explicit EventFunctionWrapper(Callback fn) : _fn(std::move(fn)) {}

    void process() override { _fn(); }

  private:
    Callback _fn;
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

    /** Near-horizon width of the wheel, in one-tick buckets. */
    static constexpr std::uint32_t kWheelBuckets = 4096;
    static_assert(kWheelBuckets >= 64 &&
                      (kWheelBuckets & (kWheelBuckets - 1)) == 0,
                  "the wheel width must be a power of two >= 64");

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

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

    // --- pooled one-shot API (dynamic continuations) ------------------

    /**
     * Run @p fn at absolute tick @p when. The callable is constructed
     * in place in a FuncEvent drawn from the internal free-list pool;
     * the event object returns to the pool as it fires, so steady
     * state allocates no queue nodes.
     */
    template <typename F> void post(Tick when, F &&fn);

    /** Run @p fn @p delay ticks from now. */
    template <typename F>
    void
    postIn(Cycles delay, F &&fn)
    {
        post(_now + delay, std::forward<F>(fn));
    }

    // --- execution ----------------------------------------------------

    /**
     * Drop every pending event without running it: member events come
     * back unscheduled (and may be scheduled again), pooled one-shots
     * destroy their callbacks and return to the pool. now(), executed()
     * and the wheel/spill insert counts are left as they were. A power
     * failure ends the run this way (System::powerFail).
     */
    void clear();

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
     * queue drains, or @p limit is hit. Unlike run(), now() stays at
     * the last event run; it never jumps to @p limit.
     */
    template <typename Pred>
    std::uint64_t runUntil(Pred &&pred, Tick limit = kTickNever);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed; }

    // --- pool introspection (tests / diagnostics) ---------------------

    /** FuncEvents ever allocated (pool high-water mark). */
    std::size_t poolAllocated() const { return _funcPool.allocated(); }

    /** FuncEvents currently idle on the free list. */
    std::size_t poolFree() const { return _funcPool.idle(); }

    // --- calendar-wheel tuning stats ----------------------------------

    /** Schedules that landed in the near-horizon wheel. */
    std::uint64_t wheelInserts() const { return _wheelInserts; }

    /** Schedules that overflowed to the far-future spill heap. */
    std::uint64_t spillInserts() const { return _spillInserts; }

    /**
     * Fraction of schedules that missed the wheel horizon. A high
     * ratio means the workload's latency mix reaches past the horizon,
     * and those schedules pay the spill heap's O(log n).
     */
    double
    spillRatio() const
    {
        const std::uint64_t total = _wheelInserts + _spillInserts;
        return total ? double(_spillInserts) / double(total) : 0.0;
    }

  private:
    /** One wheel slot: its tick's events in schedule() order. */
    using Bucket = IntrusiveFifo<Event, &Event::_next>;

    /** True when @p a fires strictly after @p b ((tick, seq) order):
     * the comparator that makes the std heap algorithms a min-heap. */
    static bool
    spillAfter(const Event *a, const Event *b)
    {
        if (a->_when != b->_when)
            return a->_when > b->_when;
        return a->_seq > b->_seq;
    }

    static constexpr std::uint32_t kWheelMask = kWheelBuckets - 1;
    static constexpr std::uint32_t kBitmapWords = kWheelBuckets / 64;

    /** Append to the wheel bucket of ev->_when (must be in-horizon). */
    void wheelInsert(Event *ev);

    /** Tick of the earliest pending event (wheel beats spill). */
    Tick nextEventTick() const;

    /** Earliest non-empty wheel bucket's tick (requires _wheelCount). */
    Tick nextWheelTick() const;

    // --- spill heap --------------------------------------------------

    void spillPush(Event *ev);
    Event *spillPopMin();
    void spillRemove(Event *ev);

    /** Pull spill-heap events that entered the horizon into the wheel. */
    void migrate();

    /** Pop and run the earliest event, known to be at tick @p t. */
    void executeNext(Tick t);

    std::vector<Bucket> _wheel;
    std::vector<std::uint64_t> _occupied;
    std::vector<Event *> _spill;  //!< min-heap of far events

    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _wheelInserts = 0;
    std::uint64_t _spillInserts = 0;
    std::size_t _pending = 0;
    std::size_t _wheelCount = 0;

    FreeListPool<FuncEvent> _funcPool;
};

/**
 * Pooled one-shot event carrying a post()ed callback. The queue runs
 * pooled events inline (moving the callback out and releasing the node
 * *before* invoking it, so the callback may itself post), hence
 * process() only exists to satisfy the Event interface.
 */
class FuncEvent final : public Event
{
  public:
    FuncEvent() { _flags |= kPooled; }

    void process() override { _fn(); }

    FuncEvent *next = nullptr;  //!< free-list link while idle

  private:
    friend class EventQueue;

    EventQueue::Callback _fn;
};

template <typename F>
inline void
EventQueue::post(Tick when, F &&fn)
{
    FuncEvent *fe = _funcPool.acquire();
    fe->_fn.emplace(std::forward<F>(fn));
    schedule(*fe, when);
}

// The dispatch path is defined here, not in event_queue.cc, so that a
// runUntil() instantiation inlines the next-tick lookup and the
// dispatch into its caller's loop, beside the predicate.

inline Tick
EventQueue::nextEventTick() const
{
    // The wheel window invariant makes every wheel event earlier than
    // every spill event, so the wheel wins whenever it is non-empty.
    if (_wheelCount != 0)
        return nextWheelTick();
    return _spill.front()->_when;
}

inline void
EventQueue::executeNext(Tick t)
{
    if (t != _now) {
        _now = t;
        migrate();
    }
    const std::uint32_t bi = std::uint32_t(t) & kWheelMask;
    Bucket &b = _wheel[bi];
    Event *ev = b.pop_front();
    if (b.empty())
        _occupied[bi >> 6] &= ~(std::uint64_t(1) << (bi & 63));
    --_wheelCount;
    --_pending;
    ev->_queue = nullptr;
    ev->_flags &= std::uint16_t(~Event::kScheduled);
    ++_executed;
    if (ev->_flags & Event::kPooled) {
        // Release the node before running the callback so the callback
        // may immediately reuse it via post().
        auto *fe = static_cast<FuncEvent *>(ev);
        Callback fn = std::move(fe->_fn);
        _funcPool.release(fe);
        fn();
    } else {
        ev->process();
    }
}

template <typename Pred>
inline std::uint64_t
EventQueue::runUntil(Pred &&pred, Tick limit)
{
    std::uint64_t n = 0;
    while (!pred() && _pending != 0) {
        const Tick t = nextEventTick();
        if (t > limit)
            break;
        executeNext(t);
        ++n;
    }
    return n;
}

} // namespace atomsim

#endif // ATOMSIM_SIM_EVENT_QUEUE_HH
