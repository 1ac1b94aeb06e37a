/**
 * @file
 * Bucket bit vectors (Section IV-C, "Log Bucket Organization").
 *
 * Each atomic update owns a bucket bit vector marking the log buckets
 * allocated to it; the free-list bit vector is the NOR of all bucket
 * vectors. Allocation and truncation are register operations -- no
 * memory traffic, and truncation of an entire update is a single-cycle
 * clear of its vector.
 */

#ifndef ATOMSIM_ATOM_BUCKET_TABLE_HH
#define ATOMSIM_ATOM_BUCKET_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace atomsim
{

/** A dynamically-sized bit vector over log buckets. */
class BucketBitVector
{
  public:
    explicit BucketBitVector(std::uint32_t buckets = 0);

    void resize(std::uint32_t buckets);

    bool test(std::uint32_t bucket) const;
    void set(std::uint32_t bucket);
    void clearBit(std::uint32_t bucket);
    /** Clear every bit (truncation: single-cycle register clear). */
    void clearAll();

    /** Number of set bits. */
    std::uint32_t popcount() const;

    /** Lowest set bit, if any. */
    std::optional<std::uint32_t> firstSet() const;

    std::uint32_t size() const { return _buckets; }

    /** Iterate indices of set bits in ascending order. */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (std::uint32_t w = 0; w < _words.size(); ++w) {
            std::uint64_t bits = _words[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                fn(w * 64 + std::uint32_t(b));
                bits &= bits - 1;
            }
        }
    }

  private:
    std::uint32_t _buckets = 0;
    std::vector<std::uint64_t> _words;
};

/**
 * The per-controller bucket table: one bit vector per AUS plus the
 * derived free list.
 */
class BucketTable
{
  public:
    /**
     * @param aus_count        concurrent atomic updates supported
     * @param total_buckets    hardware-addressable bucket capacity
     * @param initially_mapped buckets the OS mapped up front; the rest
     *                         require a log-overflow grant to use
     */
    BucketTable(std::uint32_t aus_count, std::uint32_t total_buckets,
                std::uint32_t initially_mapped);

    /**
     * Allocate a free, OS-mapped bucket for @p aus.
     * @return bucket index, or std::nullopt on log overflow (all
     *         mapped buckets busy).
     */
    std::optional<std::uint32_t> allocate(std::uint32_t aus);

    /** OS grants more mapped buckets after an overflow interrupt. */
    void extendMapped(std::uint32_t extra);

    /** Truncate: clear the AUS's vector, returning buckets freed. */
    std::uint32_t truncate(std::uint32_t aus);

    /** Free-list bit: true if no AUS owns the bucket (NOR). */
    bool isFree(std::uint32_t bucket) const;

    const BucketBitVector &vectorOf(std::uint32_t aus) const;

    std::uint32_t mappedBuckets() const { return _mapped; }

  private:
    std::uint32_t _total;
    std::uint32_t _mapped;
    std::vector<BucketBitVector> _vectors;
    std::uint32_t _scanHint = 0;  //!< rotate allocations (wear/fairness)
};

} // namespace atomsim

#endif // ATOMSIM_ATOM_BUCKET_TABLE_HH
