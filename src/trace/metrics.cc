#include "trace/metrics.hh"

#include <map>
#include <type_traits>

namespace m3
{
namespace trace
{

bool Metrics::on = false;

namespace
{

/**
 * Ordered maps: JSON dumps iterate alphabetically, which makes the
 * output deterministic and diff-friendly. Entries are never erased, so
 * references handed out by the accessors stay valid (std::map nodes are
 * stable under insertion).
 */
struct Registry
{
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
};

Registry &
reg()
{
    static Registry r;
    return r;
}

/**
 * Estimate the @p permille quantile (nearest rank) from log2 buckets.
 * Reported as the bucket's inclusive upper edge — a conservative bound
 * — since exact values are folded away: bucket 0 -> 0, bucket i ->
 * 2^i - 1, bucket 64 -> UINT64_MAX.
 */
uint64_t
bucketQuantile(const Histogram &h, uint64_t total, uint32_t permille)
{
    uint64_t rank = (total - 1) * permille / 1000;  // 0-based nearest rank
    uint64_t seen = 0;
    for (uint32_t i = 0; i < Histogram::BUCKETS; ++i) {
        seen += h.buckets[i];
        if (seen > rank) {
            if (i == 0)
                return 0;
            if (i >= 64)
                return ~uint64_t(0);
            return (uint64_t(1) << i) - 1;
        }
    }
    return ~uint64_t(0);
}

/** Append @p parts to @p out whole: strings as is, integers in decimal. */
template <typename... Parts>
void
put(std::string &out, const Parts &...parts)
{
    auto one = [&out](const auto &p) {
        if constexpr (std::is_integral_v<std::decay_t<decltype(p)>>)
            out += std::to_string(p);
        else
            out += p;
    };
    (one(parts), ...);
}

} // anonymous namespace

void
Metrics::reset()
{
    Registry &r = reg();
    for (auto &[name, c] : r.counters)
        c = Counter{};
    for (auto &[name, g] : r.gauges)
        g = Gauge{};
    for (auto &[name, h] : r.histograms)
        h = Histogram{};
}

Counter &
Metrics::counter(const std::string &name)
{
    return reg().counters[name];
}

Gauge &
Metrics::gauge(const std::string &name)
{
    return reg().gauges[name];
}

Histogram &
Metrics::histogram(const std::string &name)
{
    return reg().histograms[name];
}

std::string
Metrics::toJson()
{
    // Schema 2 added per-histogram "quantiles" (p50/p99/p999 estimated
    // from the log2 buckets) so SLO numbers need no post-processing.
    std::string out = "{\n  \"schema\": 2,\n";

    // Counters and gauges share one shape: "name": value.
    auto scalars = [&out](const char *section, const auto &entries) {
        put(out, "  \"", section, "\": {");
        bool first = true;
        for (const auto &[name, m] : entries) {
            put(out, first ? "\n    \"" : ",\n    \"", name, "\": ", m.value);
            first = false;
        }
        out += first ? "},\n" : "\n  },\n";
    };
    scalars("counters", reg().counters);
    scalars("gauges", reg().gauges);

    out += "  \"histograms\": {";
    bool first = true;
    for (const auto &[name, h] : reg().histograms) {
        put(out, first ? "\n    \"" : ",\n    \"", name,
            "\": {\"count\": ", h.count, ", \"sum\": ", h.sum,
            ", \"min\": ", h.count ? h.minVal : 0, ", \"max\": ", h.maxVal,
            ", \"buckets\": [");
        // Sparse dump: [bit-width, count] pairs for non-empty buckets.
        // Bucket i counts values in [2^(i-1), 2^i); bucket 0 is zeros.
        bool bfirst = true;
        for (uint32_t i = 0; i < Histogram::BUCKETS; ++i) {
            if (!h.buckets[i])
                continue;
            put(out, bfirst ? "[" : ", [", i, ", ", h.buckets[i], "]");
            bfirst = false;
        }
        const uint64_t n = h.count;
        put(out, "], \"quantiles\": {\"p50\": ",
            n ? bucketQuantile(h, n, 500) : 0,
            ", \"p99\": ", n ? bucketQuantile(h, n, 990) : 0,
            ", \"p999\": ", n ? bucketQuantile(h, n, 999) : 0, "}}");
        first = false;
    }
    out += first ? "}\n" : "\n  }\n";

    out += "}\n";
    return out;
}

} // namespace trace
} // namespace m3
