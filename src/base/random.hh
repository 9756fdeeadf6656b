/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * The simulator must be fully deterministic (identical cycle counts on
 * every run), so all randomness flows through explicitly seeded xorshift
 * generators rather than std::random_device or global state.
 */

#ifndef M3_BASE_RANDOM_HH
#define M3_BASE_RANDOM_HH

#include <cstddef>
#include <cstdint>

#include "base/logging.hh"

namespace m3
{

/**
 * xorshift64* generator: small, fast, and good enough for synthesising
 * workload data (file contents, FFT inputs, name choices).
 */
class Random
{
  public:
    explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL)
        : state(seed ? seed : 1)
    {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        step(state);
        return state * MULT;
    }

    /**
     * Write the low byte of each of the next @p n next() values to
     * @p dst, leaving the generator exactly where @p n calls to next()
     * would. All synthesised file contents come from here.
     *
     * The xorshift step is linear over GF(2), so the low state bytes of
     * the next 64 steps, and the state 64 steps on, are the XOR of one
     * precomputed row per state nibble. The multiply only matters for
     * its low byte, which is the low state byte times the multiplier's.
     */
    void fillLowBytes(uint8_t *dst, size_t n);

    /** Uniform value in [0, bound). @p bound must be non-zero. */
    uint64_t
    nextBounded(uint64_t bound)
    {
        if (bound == 0)
            panic("Random::nextBounded with bound 0");
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    uint64_t
    nextRange(uint64_t lo, uint64_t hi)
    {
        if (hi < lo)
            panic("Random::nextRange with hi < lo");
        return lo + nextBounded(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    static constexpr uint64_t MULT = 0x2545f4914f6cdd1dULL;

    static void
    step(uint64_t &s)
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
    }

    uint64_t state;
};

} // namespace m3

#endif // M3_BASE_RANDOM_HH
