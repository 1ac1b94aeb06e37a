#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace atomsim
{

/**
 * Pooled one-shot event carrying a post()ed callback. The queue runs
 * pooled events inline (moving the callback out and releasing the node
 * *before* invoking it, so the callback may itself post), hence
 * process() only exists to satisfy the Event interface.
 */
class FuncEvent final : public Event
{
  public:
    FuncEvent() = default;

    void process() override { _fn(); }

  private:
    friend class EventQueue;

    EventQueue::Callback _fn;
};

Event::~Event()
{
    if (scheduled() && _queue)
        _queue->deschedule(*this);
}

EventQueue::EventQueue(std::uint32_t wheel_buckets)
    : _wheelBuckets(wheel_buckets),
      _wheelMask(wheel_buckets - 1),
      _bitmapWords(wheel_buckets / 64),
      _wheel(wheel_buckets),
      _occupied(wheel_buckets / 64, 0)
{
    panic_if(wheel_buckets < 64 ||
                 (wheel_buckets & (wheel_buckets - 1)) != 0,
             "wheel width must be a power of two >= 64 (got %u)",
             wheel_buckets);
}

EventQueue::~EventQueue()
{
    // Orphan everything still queued so events that outlive the queue
    // (and the pooled events destroyed next) don't deschedule against
    // freed state.
    for (auto &b : _wheel) {
        for (Event *e = b.head; e != nullptr;) {
            Event *next = e->_next;
            e->_flags &= ~Event::kScheduled;
            e->_queue = nullptr;
            e->_next = nullptr;
            e = next;
        }
        b.head = b.tail = nullptr;
    }
    for (Event *e : _spill) {
        e->_flags &= std::uint16_t(~(Event::kScheduled | Event::kInSpill));
        e->_queue = nullptr;
    }
}

void
EventQueue::wheelInsert(Event *ev)
{
    const std::uint32_t bi = std::uint32_t(ev->_when) & _wheelMask;
    Bucket &b = _wheel[bi];
    if (b.tail)
        b.tail->_next = ev;
    else
        b.head = ev;
    b.tail = ev;
    _occupied[bi >> 6] |= std::uint64_t(1) << (bi & 63);
    ++_wheelCount;
}

void
EventQueue::wheelInsertSorted(Event *ev)
{
    const std::uint32_t bi = std::uint32_t(ev->_when) & _wheelMask;
    Bucket &b = _wheel[bi];
    if (!b.tail || b.tail->_seq <= ev->_seq) {
        // Common case: the stamped seq is still the newest in the
        // bucket (plain schedule() appends are always monotone).
        wheelInsert(ev);
        return;
    }
    Event *prev = nullptr;
    Event *cur = b.head;
    while (cur && cur->_seq <= ev->_seq) {
        prev = cur;
        cur = cur->_next;
    }
    ev->_next = cur;
    if (prev)
        prev->_next = ev;
    else
        b.head = ev;
    if (!cur)
        b.tail = ev;
    _occupied[bi >> 6] |= std::uint64_t(1) << (bi & 63);
    ++_wheelCount;
}

// --- indexed spill heap ----------------------------------------------------
//
// A plain binary min-heap over (tick, seq), except every resident event
// records its slot (_spillIdx), so removal from the middle -- the
// deschedule path -- is a swap with the last slot plus one sift,
// O(log n), instead of the old linear erase + full re-heapify.

void
EventQueue::spillSiftUp(std::size_t i)
{
    Event *ev = _spill[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!spillBefore(ev, _spill[parent]))
            break;
        _spill[i] = _spill[parent];
        _spill[i]->_spillIdx = std::uint32_t(i);
        i = parent;
    }
    _spill[i] = ev;
    ev->_spillIdx = std::uint32_t(i);
}

void
EventQueue::spillSiftDown(std::size_t i)
{
    Event *ev = _spill[i];
    const std::size_t n = _spill.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && spillBefore(_spill[child + 1], _spill[child]))
            ++child;
        if (!spillBefore(_spill[child], ev))
            break;
        _spill[i] = _spill[child];
        _spill[i]->_spillIdx = std::uint32_t(i);
        i = child;
    }
    _spill[i] = ev;
    ev->_spillIdx = std::uint32_t(i);
}

void
EventQueue::spillPush(Event *ev)
{
    ev->_flags |= Event::kInSpill;
    _spill.push_back(ev);
    spillSiftUp(_spill.size() - 1);
}

Event *
EventQueue::spillPopMin()
{
    Event *min = _spill.front();
    Event *last = _spill.back();
    _spill.pop_back();
    if (!_spill.empty()) {
        _spill[0] = last;
        spillSiftDown(0);
    }
    min->_flags &= std::uint16_t(~Event::kInSpill);
    return min;
}

void
EventQueue::spillRemove(Event *ev)
{
    const std::size_t i = ev->_spillIdx;
    panic_if(i >= _spill.size() || _spill[i] != ev,
             "descheduling an event missing from the spill heap");
    Event *last = _spill.back();
    _spill.pop_back();
    if (i < _spill.size()) {
        _spill[i] = last;
        // The replacement may need to move either way relative to its
        // new parent/children.
        spillSiftDown(i);
        spillSiftUp(last->_spillIdx);
    }
    ev->_flags &= std::uint16_t(~Event::kInSpill);
}

void
EventQueue::enqueue(Event &ev, Tick when, bool sorted)
{
    panic_if(when < _now, "scheduling into the past: when=%llu now=%llu",
             (unsigned long long)when, (unsigned long long)_now);
    panic_if(ev.scheduled(), "scheduling an already-scheduled event");
    ev._when = when;
    ev._queue = this;
    ev._next = nullptr;
    ev._flags |= Event::kScheduled;
    ++_pending;
    if (when - _now < _wheelBuckets) {
        ++_wheelInserts;
        if (sorted)
            wheelInsertSorted(&ev);
        else
            wheelInsert(&ev);
    } else {
        ++_spillInserts;
        spillPush(&ev);
    }
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    ev._seq = _seq++;
    enqueue(ev, when, /*sorted=*/false);
}

void
EventQueue::scheduleAt(Event &ev, Tick when, std::uint64_t seq)
{
    ev._seq = seq;
    enqueue(ev, when, /*sorted=*/true);
}

void
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled() || ev._queue != this)
        return;
    if (ev._flags & Event::kInSpill) {
        spillRemove(&ev);
    } else {
        const std::uint32_t bi = std::uint32_t(ev._when) & _wheelMask;
        Bucket &b = _wheel[bi];
        Event *prev = nullptr;
        Event *cur = b.head;
        while (cur && cur != &ev) {
            prev = cur;
            cur = cur->_next;
        }
        panic_if(!cur, "descheduling an event missing from its bucket");
        if (prev)
            prev->_next = ev._next;
        else
            b.head = ev._next;
        if (b.tail == &ev)
            b.tail = prev;
        if (!b.head)
            _occupied[bi >> 6] &= ~(std::uint64_t(1) << (bi & 63));
        --_wheelCount;
    }
    ev._next = nullptr;
    ev._flags &= std::uint16_t(~Event::kScheduled);
    ev._queue = nullptr;
    --_pending;
}

FuncEvent *
EventQueue::acquirePooled()
{
    if (_freeList) {
        auto *fe = static_cast<FuncEvent *>(_freeList);
        _freeList = fe->_next;
        fe->_next = nullptr;
        --_poolFreeCount;
        return fe;
    }
    _funcPool.push_back(std::make_unique<FuncEvent>());
    FuncEvent *fe = _funcPool.back().get();
    fe->_flags |= Event::kPooled;
    return fe;
}

void
EventQueue::releasePooled(FuncEvent *ev)
{
    ev->_next = _freeList;
    _freeList = ev;
    ++_poolFreeCount;
}

void
EventQueue::post(Tick when, Callback cb)
{
    FuncEvent *fe = acquirePooled();
    fe->_fn = std::move(cb);
    schedule(*fe, when);
}

Tick
EventQueue::nextWheelTick() const
{
    const std::uint32_t s = std::uint32_t(_now) & _wheelMask;
    const std::uint32_t sw = s >> 6;
    const std::uint32_t sb = s & 63;

    // Bits at or after the cursor in the cursor's word.
    std::uint64_t word = _occupied[sw] & (~std::uint64_t(0) << sb);
    if (word) {
        const std::uint32_t bit =
            sw * 64 + std::uint32_t(__builtin_ctzll(word));
        return _now + ((bit - s) & _wheelMask);
    }
    // Remaining words, wrapping; the cursor word's low bits come last.
    for (std::uint32_t i = 1; i <= _bitmapWords; ++i) {
        const std::uint32_t wi = (sw + i) & (_bitmapWords - 1);
        word = _occupied[wi];
        if (i == _bitmapWords)
            word &= (std::uint64_t(1) << sb) - 1;
        if (word) {
            const std::uint32_t bit =
                wi * 64 + std::uint32_t(__builtin_ctzll(word));
            return _now + ((bit - s) & _wheelMask);
        }
    }
    panic("nextWheelTick: occupancy bitmap empty but wheelCount=%llu",
          (unsigned long long)_wheelCount);
}

Tick
EventQueue::nextEventTick() const
{
    // The wheel window invariant makes every wheel event earlier than
    // every spill event, so the wheel wins whenever it is non-empty.
    if (_wheelCount != 0)
        return nextWheelTick();
    return _spill.front()->_when;
}

void
EventQueue::migrate()
{
    const Tick horizon = _now + _wheelBuckets;
    while (!_spill.empty() && _spill.front()->_when < horizon) {
        Event *ev = spillPopMin();
        // Sorted: a bucket may hold scheduleAt() events whose stamped
        // seqs straddle the migrating event's.
        wheelInsertSorted(ev);
    }
}

void
EventQueue::executeNext(Tick t)
{
    if (t != _now) {
        _now = t;
        migrate();
    }
    const std::uint32_t bi = std::uint32_t(t) & _wheelMask;
    Bucket &b = _wheel[bi];
    Event *ev = b.head;
    b.head = ev->_next;
    if (!b.head) {
        b.tail = nullptr;
        _occupied[bi >> 6] &= ~(std::uint64_t(1) << (bi & 63));
    }
    --_wheelCount;
    --_pending;
    ev->_next = nullptr;
    ev->_queue = nullptr;
    ev->_flags &= std::uint16_t(~Event::kScheduled);
    ++_executed;
    if (ev->_flags & Event::kPooled) {
        // Release the node before running the callback so the callback
        // may immediately reuse it via post().
        auto *fe = static_cast<FuncEvent *>(ev);
        Callback fn = std::move(fe->_fn);
        fe->_fn = nullptr;
        releasePooled(fe);
        fn();
    } else {
        ev->process();
    }
}

bool
EventQueue::step()
{
    if (_pending == 0)
        return false;
    executeNext(nextEventTick());
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (_pending != 0) {
        const Tick t = nextEventTick();
        if (t > limit)
            break;
        executeNext(t);
        ++n;
    }
    if (_now < limit && limit != kTickNever) {
        // Jumping now() slides the wheel window: spill events that the
        // jump brought inside the horizon must migrate before any new
        // schedule() can land in the exposed region, or the window
        // invariant (wheel events always earliest) breaks.
        _now = limit;
        migrate();
    }
    return n;
}

std::uint64_t
EventQueue::runUntil(const std::function<bool()> &pred, Tick limit)
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
