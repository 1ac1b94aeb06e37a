#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace atomsim
{

Event::~Event()
{
    if (scheduled() && _queue)
        _queue->deschedule(*this);
}

EventQueue::EventQueue() : _wheel(kWheelBuckets), _occupied(kBitmapWords, 0)
{
}

EventQueue::~EventQueue()
{
    // Orphan everything still queued so events that outlive the queue
    // (and the pooled events destroyed next) don't deschedule against
    // freed state.
    clear();
}

void
EventQueue::clear()
{
    const auto drop = [this](Event *e) {
        e->_queue = nullptr;
        e->_flags &= std::uint16_t(~(Event::kScheduled | Event::kInSpill));
        if (e->_flags & Event::kPooled) {
            auto *fe = static_cast<FuncEvent *>(e);
            fe->_fn = nullptr;
            _funcPool.release(fe);
        }
    };
    for (Bucket &b : _wheel) {
        while (!b.empty())
            drop(b.pop_front());
    }
    for (Event *e : _spill)
        drop(e);
    _spill.clear();
    std::fill(_occupied.begin(), _occupied.end(), 0);
    _wheelCount = 0;
    _pending = 0;
}

void
EventQueue::wheelInsert(Event *ev)
{
    const std::uint32_t bi = std::uint32_t(ev->_when) & kWheelMask;
    _wheel[bi].push_back(ev);
    _occupied[bi >> 6] |= std::uint64_t(1) << (bi & 63);
    ++_wheelCount;
}

// --- spill heap ------------------------------------------------------------
//
// A binary min-heap over (tick, seq) kept with std::push_heap/pop_heap.
// (tick, seq) is a strict total order, so the pop order is fixed no
// matter how the heap is laid out. Removal from the middle (deschedule
// of a spilled event) is a linear scan plus a re-heapify: spills are
// rare, and descheduling one rarer still.

void
EventQueue::spillPush(Event *ev)
{
    ev->_flags |= Event::kInSpill;
    _spill.push_back(ev);
    std::push_heap(_spill.begin(), _spill.end(), spillAfter);
}

Event *
EventQueue::spillPopMin()
{
    std::pop_heap(_spill.begin(), _spill.end(), spillAfter);
    Event *min = _spill.back();
    _spill.pop_back();
    min->_flags &= std::uint16_t(~Event::kInSpill);
    return min;
}

void
EventQueue::spillRemove(Event *ev)
{
    const auto it = std::find(_spill.begin(), _spill.end(), ev);
    panic_if(it == _spill.end(),
             "descheduling an event missing from the spill heap");
    _spill.erase(it);
    std::make_heap(_spill.begin(), _spill.end(), spillAfter);
    ev->_flags &= std::uint16_t(~Event::kInSpill);
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    panic_if(when < _now, "scheduling into the past: when=%llu now=%llu",
             (unsigned long long)when, (unsigned long long)_now);
    panic_if(ev.scheduled(), "scheduling an already-scheduled event");
    ev._when = when;
    ev._seq = _seq++;
    ev._queue = this;
    ev._flags |= Event::kScheduled;
    ++_pending;
    if (when - _now < kWheelBuckets) {
        ++_wheelInserts;
        wheelInsert(&ev);
    } else {
        ++_spillInserts;
        spillPush(&ev);
    }
}

void
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled() || ev._queue != this)
        return;
    if (ev._flags & Event::kInSpill) {
        spillRemove(&ev);
    } else {
        const std::uint32_t bi = std::uint32_t(ev._when) & kWheelMask;
        Bucket &b = _wheel[bi];
        if (!b.remove(&ev))
            panic("descheduling an event missing from its bucket");
        if (b.empty())
            _occupied[bi >> 6] &= ~(std::uint64_t(1) << (bi & 63));
        --_wheelCount;
    }
    ev._flags &= std::uint16_t(~Event::kScheduled);
    ev._queue = nullptr;
    --_pending;
}

Tick
EventQueue::nextWheelTick() const
{
    const std::uint32_t s = std::uint32_t(_now) & kWheelMask;
    const std::uint32_t sw = s >> 6;
    const std::uint32_t sb = s & 63;

    // Bits at or after the cursor in the cursor's word.
    std::uint64_t word = _occupied[sw] & (~std::uint64_t(0) << sb);
    if (word) {
        const std::uint32_t bit =
            sw * 64 + std::uint32_t(__builtin_ctzll(word));
        return _now + ((bit - s) & kWheelMask);
    }
    // Remaining words, wrapping; the cursor word's low bits come last.
    for (std::uint32_t i = 1; i <= kBitmapWords; ++i) {
        const std::uint32_t wi = (sw + i) & (kBitmapWords - 1);
        word = _occupied[wi];
        if (i == kBitmapWords)
            word &= (std::uint64_t(1) << sb) - 1;
        if (word) {
            const std::uint32_t bit =
                wi * 64 + std::uint32_t(__builtin_ctzll(word));
            return _now + ((bit - s) & kWheelMask);
        }
    }
    panic("nextWheelTick: occupancy bitmap empty but wheelCount=%llu",
          (unsigned long long)_wheelCount);
}

void
EventQueue::migrate()
{
    // Appending keeps each bucket FIFO (the window invariant; see the
    // file comment).
    const Tick horizon = _now + kWheelBuckets;
    while (!_spill.empty() && _spill.front()->_when < horizon)
        wheelInsert(spillPopMin());
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

} // namespace atomsim
