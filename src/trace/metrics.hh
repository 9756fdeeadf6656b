/**
 * @file
 * A process-wide metric registry: counters, gauges and log2-bucket
 * histograms, dumped as structured JSON.
 *
 * Two usage styles coexist. Hot paths record live through handles
 * guarded by M3_METRICS_ON (one predicted-untaken branch when off);
 * subsystems that already keep a stats struct (SimStats, DtuStats,
 * NocStats, KernelStats, FaultStats) are folded in at end of run by
 * M3System::exportMetrics(), so all harnesses report them uniformly.
 *
 * Registered metric objects are never deallocated while the process
 * lives — reset() zeroes values but keeps every entry — so hot paths
 * may cache `static Counter &` references safely.
 *
 * Like the tracer, this library sits below base/ and depends only on
 * the C++ standard library.
 */

#ifndef M3_TRACE_METRICS_HH
#define M3_TRACE_METRICS_HH

#include <bit>
#include <cstdint>
#include <string>

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

    /** Write toJson() to @p path. @return false on I/O failure. */
    static bool writeJson(const std::string &path);
};

} // namespace trace
} // namespace m3

/** The hot-path guard for live metric recording. */
#define M3_METRICS_ON (__builtin_expect(::m3::trace::Metrics::on, 0))

#endif // M3_TRACE_METRICS_HH
