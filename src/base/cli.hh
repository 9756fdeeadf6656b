/**
 * @file
 * Checked numeric values of command-line flags, shared by every front
 * end: a malformed or out-of-range value stops the run instead of
 * becoming 0 or wrapping around.
 */

#ifndef M3_BASE_CLI_HH
#define M3_BASE_CLI_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace m3
{

/**
 * Set @p field to the value @p text gives flag @p flag. The whole of
 * @p text must be a number (decimal, or hex after 0x) that @p field can
 * hold; anything else prints why, naming the flag, and exits 2.
 */
template <typename T>
void
parseFlagNumber(const char *flag, const char *text, T &field)
{
    static_assert(std::is_integral_v<T>);
    constexpr auto max =
        static_cast<unsigned long long>(std::numeric_limits<T>::max());
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (*text < '0' || *text > '9' || *end || errno == ERANGE || v > max) {
        std::fprintf(stderr,
                     "%s wants a whole number from 0 to %llu, got '%s'\n",
                     flag, max, text);
        std::exit(2);
    }
    field = static_cast<T>(v);
}

} // namespace m3

#endif // M3_BASE_CLI_HH
