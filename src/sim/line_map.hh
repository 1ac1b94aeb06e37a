/**
 * @file
 * Flat open-addressing hash map keyed by line (or page) address.
 *
 * The simulator's per-line tables -- directory entries and busy-line
 * control blocks, the controller's in-flight writes, LogM's lock table,
 * an AUS's logged lines, DataImage's page index -- sit on the
 * per-access path. std::unordered_map pays a heap node per insert and a
 * pointer chase per lookup there; LineMap keeps key/value slots in one
 * power-of-two array instead: linear probing from a Fibonacci hash of
 * the key, backward-shift erase (no tombstones, so probe chains never
 * rot), doubling once the table is half full. A map that has grown to
 * its working set never allocates again; clear() keeps the capacity.
 *
 * Pointer rule: a pointer or reference into the map (find(),
 * operator[], tryEmplace()) stays valid only until the next insert or
 * erase on the same map -- growth rehashes every slot, and erase shifts
 * later entries back. Read what you need before running a continuation
 * that can re-enter the map.
 *
 * Keys must differ from kEmptyKey (all ones); line and page addresses
 * always do.
 */

#ifndef ATOMSIM_SIM_LINE_MAP_HH
#define ATOMSIM_SIM_LINE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace atomsim
{

template <typename V>
class LineMap
{
  public:
    /** Marks a free slot; never a valid key. */
    static constexpr Addr kEmptyKey = ~Addr(0);

    LineMap() = default;

    /** Moves leave @p other empty (and usable). */
    LineMap(LineMap &&other) noexcept { *this = std::move(other); }

    LineMap &
    operator=(LineMap &&other) noexcept
    {
        if (this != &other) {
            _slots = std::move(other._slots);
            other._slots.clear();
            _size = std::exchange(other._size, 0);
            _mask = other._mask;
            _shift = other._shift;
        }
        return *this;
    }

    /** A copy at this map's capacity, built in one pass: the slot
     * array is copied as it is, so no key is rehashed. Maps are never
     * copied implicitly. */
    LineMap
    copy() const
    {
        LineMap m;
        m._slots = _slots;
        m._size = _size;
        m._mask = _mask;
        m._shift = _shift;
        return m;
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Slots allocated (tests: growth, and clear() keeping them). */
    std::size_t capacity() const { return _slots.size(); }

    V *
    find(Addr key)
    {
        const std::size_t i = indexOf(key);
        return i == kNone ? nullptr : &_slots[i].value;
    }

    const V *
    find(Addr key) const
    {
        const std::size_t i = indexOf(key);
        return i == kNone ? nullptr : &_slots[i].value;
    }

    bool contains(Addr key) const { return indexOf(key) != kNone; }

    /** The value of @p key, inserting a default-constructed one if
     * absent; .second is true when it was inserted. */
    std::pair<V *, bool>
    tryEmplace(Addr key)
    {
        panic_if(key == kEmptyKey,
                 "LineMap key collides with the empty-slot marker");
        if (_slots.empty())
            grow();
        std::size_t i = home(key);
        for (; _slots[i].key != kEmptyKey; i = (i + 1) & _mask) {
            if (_slots[i].key == key)
                return {&_slots[i].value, false};
        }
        if ((_size + 1) * 2 > _slots.size()) {
            grow();
            i = freeSlotFor(key);
        }
        _slots[i].key = key;
        ++_size;
        return {&_slots[i].value, true};
    }

    V &operator[](Addr key) { return *tryEmplace(key).first; }

    /** Remove @p key; false if it was absent. */
    bool
    erase(Addr key)
    {
        std::size_t hole = indexOf(key);
        if (hole == kNone)
            return false;
        // Backward shift: pull each later member of the probe chain
        // into the hole unless that would move it before its home.
        for (std::size_t j = (hole + 1) & _mask;
             _slots[j].key != kEmptyKey; j = (j + 1) & _mask) {
            const std::size_t from_home = (j - home(_slots[j].key)) & _mask;
            if (from_home >= ((j - hole) & _mask)) {
                _slots[hole] = std::move(_slots[j]);
                hole = j;
            }
        }
        _slots[hole].key = kEmptyKey;
        _slots[hole].value = V{};
        --_size;
        return true;
    }

    /** Drop every entry, keeping the capacity. */
    void
    clear()
    {
        if (_size == 0)
            return;
        for (Slot &s : _slots) {
            if (s.key != kEmptyKey) {
                s.key = kEmptyKey;
                s.value = V{};
            }
        }
        _size = 0;
    }

    /** Call @p fn(key, value) once per entry, in slot order; @p fn
     * must not insert or erase. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : _slots)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : _slots)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Addr key = kEmptyKey;
        V value{};
    };

    static constexpr std::size_t kNone = ~std::size_t(0);
    static constexpr std::size_t kMinSlots = 16;

    /** Fibonacci hashing: the top bits of key * 2^64/phi spread line-
     * and page-aligned keys evenly over the table. */
    std::size_t
    home(Addr key) const
    {
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    std::size_t
    indexOf(Addr key) const
    {
        if (_size == 0)
            return kNone;
        for (std::size_t i = home(key);; i = (i + 1) & _mask) {
            const Addr k = _slots[i].key;
            if (k == kEmptyKey)
                return kNone;
            if (k == key)
                return i;
        }
    }

    /** First free slot of @p key's probe chain (key not present). */
    std::size_t
    freeSlotFor(Addr key) const
    {
        std::size_t i = home(key);
        while (_slots[i].key != kEmptyKey)
            i = (i + 1) & _mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        const std::size_t n = old.empty() ? kMinSlots : old.size() * 2;
        _slots = std::vector<Slot>(n);
        _mask = n - 1;
        _shift = 64 - unsigned(__builtin_ctzll(n));
        for (Slot &s : old) {
            if (s.key != kEmptyKey)
                _slots[freeSlotFor(s.key)] = std::move(s);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    std::size_t _mask = 0;
    unsigned _shift = 64;
};

} // namespace atomsim

#endif // ATOMSIM_SIM_LINE_MAP_HH
