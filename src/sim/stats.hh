/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Every claim-bearing number in the paper's evaluation maps to a named
 * counter here so the bench harnesses can print paper-style rows
 * directly. Stats are grouped per component (e.g. "core3", "mc0") and
 * collected into a StatSet owned by the System.
 */

#ifndef ATOMSIM_SIM_STATS_HH
#define ATOMSIM_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace atomsim
{

/** A single scalar counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { _value += by; }
    void set(std::uint64_t v) { _value = v; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A registry of named counters.
 *
 * Names are "group.stat" (e.g. "core0.sq_full_cycles"). Components hold
 * Counter pointers for hot-path increments; lookup by name is only used
 * for reporting and tests.
 */
class StatSet
{
  public:
    /** Get (creating if needed) the counter @p group . @p name. */
    Counter &counter(const std::string &group, const std::string &name);

    /** Lookup a counter value; 0 if never created. */
    std::uint64_t value(const std::string &group,
                        const std::string &name) const;

    /** Sum of @p name across all groups matching @p group_prefix. */
    std::uint64_t sum(const std::string &group_prefix,
                      const std::string &name) const;

    /** Reset every counter to zero. */
    void resetAll();

    /** All (fullname, value) pairs, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> dump() const;

  private:
    /** Hashed, not ordered: registration is O(1) per counter where the
     * ordered map's O(log n) string-compare inserts went super-linear
     * at 1024-tile stat populations. Node-based, so Counter references
     * handed to components survive rehashing; dump() sorts. */
    std::unordered_map<std::string, Counter> _counters;
};

} // namespace atomsim

#endif // ATOMSIM_SIM_STATS_HH
