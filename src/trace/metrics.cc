#include "trace/metrics.hh"

#include <cstdio>
#include <map>

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
    char buf[128];

    out += "  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : reg().counters) {
        std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %llu",
                      first ? "" : ",", name.c_str(),
                      static_cast<unsigned long long>(c.value));
        out += buf;
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : reg().gauges) {
        std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %llu",
                      first ? "" : ",", name.c_str(),
                      static_cast<unsigned long long>(g.value));
        out += buf;
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : reg().histograms) {
        std::snprintf(
            buf, sizeof(buf),
            "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, "
            "\"min\": %llu, \"max\": %llu, \"buckets\": [",
            first ? "" : ",", name.c_str(),
            static_cast<unsigned long long>(h.count),
            static_cast<unsigned long long>(h.sum),
            static_cast<unsigned long long>(h.count ? h.minVal : 0),
            static_cast<unsigned long long>(h.maxVal));
        out += buf;
        // Sparse dump: [bit-width, count] pairs for non-empty buckets.
        // Bucket i counts values in [2^(i-1), 2^i); bucket 0 is zeros.
        bool bfirst = true;
        for (uint32_t i = 0; i < Histogram::BUCKETS; ++i) {
            if (!h.buckets[i])
                continue;
            std::snprintf(buf, sizeof(buf), "%s[%u, %llu]",
                          bfirst ? "" : ", ", i,
                          static_cast<unsigned long long>(h.buckets[i]));
            out += buf;
            bfirst = false;
        }
        const uint64_t n = h.count;
        std::snprintf(
            buf, sizeof(buf),
            "], \"quantiles\": {\"p50\": %llu, \"p99\": %llu, "
            "\"p999\": %llu}}",
            static_cast<unsigned long long>(n ? bucketQuantile(h, n, 500) : 0),
            static_cast<unsigned long long>(n ? bucketQuantile(h, n, 990) : 0),
            static_cast<unsigned long long>(n ? bucketQuantile(h, n, 999)
                                             : 0));
        out += buf;
        first = false;
    }
    out += first ? "}\n" : "\n  }\n";

    out += "}\n";
    return out;
}

bool
Metrics::writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return written == json.size();
}

} // namespace trace
} // namespace m3
