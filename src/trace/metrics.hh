/**
 * @file
 * A process-wide metric registry: counters, gauges and log2-bucket
 * histograms, dumped as structured JSON.
 *
 * Hot paths record live through handles guarded by M3_METRICS_ON (one
 * predicted-untaken branch when off). Registered metric objects are
 * never deallocated — reset() zeroes values but keeps every entry — so
 * a hot path resolves each handle once and keeps the pointer.
 *
 * Subsystems that keep a plain stats struct of uint64_t counters
 * (SimStats, DtuStats, NocStats, KernelStats, FaultStats) declare each
 * member once more, in a static FIELDS table of StatField entries next
 * to the members: metric name, member pointer, flags. exportStats()
 * (M3System::exportMetrics) and formatStats() (M3System::printStats)
 * walk that table, and each struct static_asserts statsTableCoversAll(),
 * so adding a stat is a one-line edit that cannot skip the export.
 *
 * Like the tracer, this library sits below base/ and depends only on
 * the C++ standard library.
 */

#ifndef M3_TRACE_METRICS_HH
#define M3_TRACE_METRICS_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace m3
{
namespace trace
{

/** A monotonically increasing count. */
struct Counter
{
    uint64_t value = 0;

    void add(uint64_t n) { value += n; }
    void inc() { ++value; }
};

/** A point-in-time value (last write wins; setMax keeps the peak). */
struct Gauge
{
    uint64_t value = 0;

    void set(uint64_t v) { value = v; }

    void
    setMax(uint64_t v)
    {
        if (v > value)
            value = v;
    }
};

/**
 * A histogram with logarithmic buckets: bucket i counts observations
 * whose bit width is i, i.e. values in [2^(i-1), 2^i); bucket 0 counts
 * zeros. 65 buckets cover the whole uint64 range with no configuration.
 */
struct Histogram
{
    static constexpr uint32_t BUCKETS = 65;

    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t minVal = ~uint64_t(0);
    uint64_t maxVal = 0;
    uint64_t buckets[BUCKETS] = {};

    void
    observe(uint64_t v)
    {
        count++;
        sum += v;
        if (v < minVal)
            minVal = v;
        if (v > maxVal)
            maxVal = v;
        buckets[std::bit_width(v)]++;
    }
};

/** The global registry. Static members, same rationale as Tracer. */
class Metrics
{
  public:
    /** The one flag every live instrumentation site branches on. */
    static bool on;

    static void enable() { on = true; }
    static void disable() { on = false; }

    /** Zero all values; keep every registered entry alive (see above). */
    static void reset();

    /** Look up or create; the reference stays valid for the process. */
    static Counter &counter(const std::string &name);
    static Gauge &gauge(const std::string &name);
    static Histogram &histogram(const std::string &name);

    /**
     * Dump all metrics as one JSON object, keys sorted alphabetically:
     * {"schema":1, "counters":{..}, "gauges":{..}, "histograms":{..}}.
     */
    static std::string toJson();
};

// StatField flags, combined with |. A field is a Counter summed over
// instances unless STAT_MAX_GAUGE; a group flag (migration/failover or
// multi-kernel machines) limits the machines that export it, and
// STAT_PER_INSTANCE adds a per-instance breakdown (kernel.k<i>.*).
inline constexpr uint32_t STAT_MAX_GAUGE = 1u << 0;
inline constexpr uint32_t STAT_MIGRATION = 1u << 1;
inline constexpr uint32_t STAT_MULTI_KERNEL = 1u << 2;
inline constexpr uint32_t STAT_PER_INSTANCE = 1u << 3;

/** One member of stats struct @p S in its S::FIELDS table. */
template <typename S>
struct StatField
{
    const char *name;  //!< metric name below the struct's prefix
    uint64_t S::*member;
    uint32_t flags = 0;
};

/** True if S::FIELDS names every member of @p S exactly once. */
template <typename S>
constexpr bool
statsTableCoversAll()
{
    constexpr size_t n = std::size(S::FIELDS);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < i; ++j)
            if (S::FIELDS[i].member == S::FIELDS[j].member ||
                std::string_view(S::FIELDS[i].name) == S::FIELDS[j].name)
                return false;
    return n * sizeof(uint64_t) == sizeof(S);
}

/** Register as "<prefix><name>" the fields of @p s whose groups are in
 *  @p groups and whose flags include @p require. Counters add and gauges
 *  keep the peak, so instances exported under one prefix fold. */
template <typename S>
void
exportStats(const std::string &prefix, const S &s, uint32_t groups,
            uint32_t require = 0)
{
    for (const StatField<S> &f : S::FIELDS) {
        if ((f.flags & (STAT_MIGRATION | STAT_MULTI_KERNEL) & ~groups) ||
            (f.flags & require) != require)
            continue;
        if (f.flags & STAT_MAX_GAUGE)
            Metrics::gauge(prefix + f.name).setMax(s.*f.member);
        else
            Metrics::counter(prefix + f.name).add(s.*f.member);
    }
}

/** "name=value" for every non-zero field of @p s, space-separated. */
template <typename S>
std::string
formatStats(const S &s)
{
    std::string out;
    for (const StatField<S> &f : S::FIELDS)
        if (s.*f.member)
            out.append(out.empty() ? "" : " ").append(f.name).append("=")
                .append(std::to_string(s.*f.member));
    return out;
}

} // namespace trace
} // namespace m3

/** The hot-path guard for live metric recording. */
#define M3_METRICS_ON (__builtin_expect(::m3::trace::Metrics::on, 0))

#endif // M3_TRACE_METRICS_HH
