/**
 * @file
 * Opcode tables. A request protocol declares its opcodes once, as an
 * array with one entry per opcode in enum order, and its dispatcher
 * indexes that array with the opcode it pulled from a message: there is
 * no switch over opcodes, so no `default:` can hide a missing one.
 */

#ifndef M3_BASE_OP_TABLE_HH
#define M3_BASE_OP_TABLE_HH

#include <cstddef>

namespace m3
{

/** A name-table entry: an opcode and its stable trace/metric label. */
template <typename Op>
struct OpName
{
    Op op;
    const char *name;
};

/**
 * True iff entry i of @p table holds opcode i, for each of the
 * Op::COUNT opcodes of its enum. `static_assert` it next to a table, so
 * a table that misses an opcode or lists one out of order fails the
 * build.
 */
template <typename Entry, size_t N>
constexpr bool
opTableCoversAll(const Entry (&table)[N])
{
    using Op = decltype(table[0].op);
    if (N != static_cast<size_t>(Op::COUNT))
        return false;
    for (size_t i = 0; i < N; ++i)
        if (static_cast<size_t>(table[i].op) != i)
            return false;
    return true;
}

} // namespace m3

#endif // M3_BASE_OP_TABLE_HH
