#include "trace/trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

namespace m3
{
namespace trace
{

bool Tracer::on = false;

namespace
{

/**
 * One buffered event. Names are borrowed pointers (string literals at
 * every call site); `arg` multiplexes the per-phase payload: duration
 * for 'X', counter value for 'C', flow id for 's'/'f'.
 */
struct Event
{
    uint64_t ts;
    uint64_t arg;
    const char *name;
    char phase;
};

/** Per-track ring buffer. Overwrites the oldest event when full. */
struct Track
{
    std::string name;
    std::vector<Event> ring;
    uint32_t head = 0;      //!< next write position
    uint32_t count = 0;     //!< valid events (<= capacity)
    uint64_t dropped = 0;   //!< overwritten events

    void
    push(const Event &e, uint32_t capacity)
    {
        if (ring.empty())
            ring.resize(capacity);
        if (count == ring.size())
            dropped++;
        else
            count++;
        ring[head] = e;
        head = (head + 1) % static_cast<uint32_t>(ring.size());
    }

    /** Events in insertion order (oldest first). */
    std::vector<Event>
    ordered() const
    {
        std::vector<Event> out;
        out.reserve(count);
        uint32_t cap = static_cast<uint32_t>(ring.size());
        uint32_t start = (head + cap - count) % (cap ? cap : 1);
        for (uint32_t i = 0; i < count; ++i)
            out.push_back(ring[(start + i) % cap]);
        return out;
    }
};

struct Sink
{
    /** Ordered map: export iterates tracks in ascending id order. */
    std::map<TrackId, Track> tracks;
    uint32_t ringCapacity = 1u << 16;
    uint64_t nextFlow = 1;
    Tracer::ClockFn clockFn = nullptr;
    const void *clockCtx = nullptr;
};

Sink &
sink()
{
    static Sink s;
    return s;
}

void
record(TrackId t, char phase, uint64_t ts, uint64_t arg, const char *name)
{
    Sink &s = sink();
    s.tracks[t].push(Event{ts, arg, name, phase}, s.ringCapacity);
}

/** Minimal JSON string escaping (names contain no exotic characters). */
void
appendEscaped(std::string &out, const std::string &in)
{
    for (char c : in) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            out.push_back(c);
    }
}

} // anonymous namespace

void
Tracer::enable(uint32_t ringCapacity)
{
    sink().ringCapacity = ringCapacity ? ringCapacity : 1;
    on = true;
}

void
Tracer::disable()
{
    on = false;
}

void
Tracer::reset()
{
    Sink &s = sink();
    s.tracks.clear();
    s.nextFlow = 1;
}

void
Tracer::setClock(ClockFn fn, const void *ctx)
{
    sink().clockFn = fn;
    sink().clockCtx = ctx;
}

void
Tracer::clearClock(const void *ctx)
{
    Sink &s = sink();
    if (s.clockCtx == ctx) {
        s.clockFn = nullptr;
        s.clockCtx = nullptr;
    }
}

uint64_t
Tracer::nowCycle()
{
    Sink &s = sink();
    return s.clockFn ? s.clockFn(s.clockCtx) : 0;
}

void
Tracer::trackName(TrackId t, const std::string &name)
{
    sink().tracks[t].name = name;
}

void
Tracer::spanBegin(TrackId t, const char *name)
{
    record(t, 'B', nowCycle(), 0, name);
}

void
Tracer::spanEnd(TrackId t)
{
    record(t, 'E', nowCycle(), 0, "");
}

void
Tracer::complete(TrackId t, uint64_t ts, uint64_t dur, const char *name)
{
    record(t, 'X', ts, dur, name);
}

void
Tracer::instant(TrackId t, const char *name)
{
    record(t, 'i', nowCycle(), 0, name);
}

void
Tracer::counter(TrackId t, const char *name, uint64_t value)
{
    record(t, 'C', nowCycle(), value, name);
}

void
Tracer::flowBegin(TrackId t, uint64_t ts, uint64_t id, const char *name)
{
    record(t, 's', ts, id, name);
}

void
Tracer::flowEnd(TrackId t, uint64_t ts, uint64_t id, const char *name)
{
    record(t, 'f', ts, id, name);
}

uint64_t
Tracer::nextFlowId()
{
    // One machine-wide sequence in NoC injection order, reset with the
    // sink, so flow ids repeat byte-for-byte across runs.
    return sink().nextFlow++;
}

uint64_t
Tracer::eventCount()
{
    uint64_t n = 0;
    for (const auto &[id, t] : sink().tracks)
        n += t.count;
    return n;
}

uint64_t
Tracer::droppedEvents()
{
    uint64_t n = 0;
    for (const auto &[id, t] : sink().tracks)
        n += t.dropped;
    return n;
}

std::string
Tracer::toJson()
{
    std::string out;
    out.reserve(1u << 20);
    out += "{\"traceEvents\":[\n";
    bool first = true;
    char buf[256];
    auto emit = [&](const char *line) {
        if (!first)
            out += ",\n";
        first = false;
        out += line;
    };
    for (const auto &[id, track] : sink().tracks) {
        if (!track.name.empty()) {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"M\",\"name\":\"thread_name\","
                          "\"pid\":0,\"tid\":%u,\"args\":{\"name\":\"",
                          id);
            std::string line = buf;
            appendEscaped(line, track.name);
            line += "\"}}";
            emit(line.c_str());
        }
        std::vector<Event> evs = track.ordered();
        // The ring preserves insertion order but events may carry a
        // future timestamp (NoC arrivals); a stable sort by ts keeps
        // same-cycle events in deterministic insertion order.
        std::stable_sort(evs.begin(), evs.end(),
                         [](const Event &a, const Event &b) {
                             return a.ts < b.ts;
                         });
        for (const Event &e : evs) {
            unsigned long long ts = e.ts;
            switch (e.phase) {
              case 'B':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"B\",\"name\":\"%s\",\"cat\":"
                              "\"sim\",\"ts\":%llu,\"pid\":0,\"tid\":%u}",
                              e.name, ts, id);
                break;
              case 'E':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"E\",\"ts\":%llu,\"pid\":0,"
                              "\"tid\":%u}",
                              ts, id);
                break;
              case 'X':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":"
                              "\"sim\",\"ts\":%llu,\"dur\":%llu,"
                              "\"pid\":0,\"tid\":%u}",
                              e.name, ts,
                              static_cast<unsigned long long>(e.arg), id);
                break;
              case 'i':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"i\",\"name\":\"%s\",\"s\":\"t\","
                              "\"ts\":%llu,\"pid\":0,\"tid\":%u}",
                              e.name, ts, id);
                break;
              case 'C':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"C\",\"name\":\"%s\",\"ts\":%llu,"
                              "\"pid\":0,\"tid\":%u,\"args\":{\"value\":"
                              "%llu}}",
                              e.name, ts, id,
                              static_cast<unsigned long long>(e.arg));
                break;
              case 's':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"s\",\"name\":\"%s\",\"cat\":"
                              "\"noc\",\"id\":\"0x%llx\",\"ts\":%llu,"
                              "\"pid\":0,\"tid\":%u}",
                              e.name,
                              static_cast<unsigned long long>(e.arg), ts,
                              id);
                break;
              case 'f':
                std::snprintf(buf, sizeof(buf),
                              "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"%s\","
                              "\"cat\":\"noc\",\"id\":\"0x%llx\",\"ts\":"
                              "%llu,\"pid\":0,\"tid\":%u}",
                              e.name,
                              static_cast<unsigned long long>(e.arg), ts,
                              id);
                break;
              default:
                continue;
            }
            emit(buf);
        }
    }
    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return out;
}

bool
Tracer::writeJson(const std::string &path)
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
