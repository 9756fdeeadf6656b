#include "base/random.hh"

#include <cstring>

namespace m3
{

namespace
{

/** Steps advanced per table lookup. */
constexpr size_t BLOCK = 64;

/**
 * Row [pos][v]: the low state bytes of the BLOCK steps that follow the
 * state v << 4 * pos, then that state BLOCK steps on. 16 x 16 rows of
 * 72 bytes, about 18 KiB.
 */
struct StepTable
{
    static constexpr size_t WORDS = BLOCK / 8 + 1;
    uint64_t rows[16][16][WORDS];
};

} // anonymous namespace

void
Random::fillLowBytes(uint8_t *dst, size_t n)
{
    static const StepTable table = [] {
        StepTable t{};
        for (unsigned pos = 0; pos < 16; ++pos) {
            for (uint64_t v = 0; v < 16; ++v) {
                uint64_t s = v << (4 * pos);
                uint8_t low[BLOCK];
                for (size_t k = 0; k < BLOCK; ++k) {
                    step(s);
                    low[k] = static_cast<uint8_t>(s);
                }
                std::memcpy(t.rows[pos][v], low, BLOCK);
                t.rows[pos][v][StepTable::WORDS - 1] = s;
            }
        }
        return t;
    }();

    for (; n >= BLOCK; n -= BLOCK, dst += BLOCK) {
        uint64_t acc[StepTable::WORDS] = {};
        for (unsigned pos = 0; pos < 16; ++pos) {
            const uint64_t *row = table.rows[pos][(state >> (4 * pos)) & 15];
            for (size_t w = 0; w < StepTable::WORDS; ++w)
                acc[w] ^= row[w];
        }
        uint8_t low[BLOCK];
        std::memcpy(low, acc, BLOCK);
        for (size_t k = 0; k < BLOCK; ++k)
            dst[k] = static_cast<uint8_t>(low[k] * static_cast<uint8_t>(MULT));
        state = acc[StepTable::WORDS - 1];
    }
    for (; n > 0; --n)
        *dst++ = static_cast<uint8_t>(next());
}

} // namespace m3
