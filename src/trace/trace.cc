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

/** One Tracer::record() call, 32 bytes; the name pointer is borrowed. */
struct Event
{
    uint64_t ts;
    uint64_t arg;
    const char *name;
    TrackId track;
    char phase;
};
static_assert(sizeof(Event) == 32);

struct Sink
{
    /** Every event in recording order; toJson() derives the export. */
    std::vector<Event> log;
    /** Ordered map: export iterates tracks in ascending id order. */
    std::map<TrackId, std::string> names;
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
Tracer::reset()
{
    Sink &s = sink();
    s.log.clear();
    s.names.clear();
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
    sink().names[t] = name;
}

void
Tracer::record(TrackId t, char phase, uint64_t ts, uint64_t arg,
               const char *name)
{
    sink().log.push_back(Event{ts, arg, name, t, phase});
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
    return sink().log.size();
}

std::string
Tracer::toJson()
{
    std::string doc;
    writeJson([&doc](std::string_view chunk) {
        doc += chunk;
        return true;
    });
    return doc;
}

bool
Tracer::writeJson(const ChunkSink &deliver)
{
    Sink &s = sink();
    // Events may carry a future timestamp (NoC arrivals). A stable sort
    // on (track, ts) keeps each track's same-cycle events in recording
    // order, and sorting the log in place keeps that order for events
    // recorded after this call.
    std::stable_sort(s.log.begin(), s.log.end(),
                     [](const Event &a, const Event &b) {
                         return a.track != b.track ? a.track < b.track
                                                   : a.ts < b.ts;
                     });
    // The document leaves in chunks of about 1 MiB: a traced run holds
    // its event log, not also the ~70 bytes of JSON per event (71 MB
    // for the 1.02 M events of a traced 240-instance tar). After a
    // refused chunk the rest is still rendered, but not handed out.
    constexpr size_t CHUNK = size_t(1) << 20;
    std::string out;
    out.reserve(CHUNK + 512);
    bool ok = true;
    out += "{\"traceEvents\":[\n";
    bool first = true;
    char buf[256];
    auto emit = [&](const char *line) {
        if (!first)
            out += ",\n";
        first = false;
        out += line;
        if (out.size() >= CHUNK) {
            ok = ok && deliver(out);
            out.clear();
        }
    };
    // A track's name line comes before its events; named tracks with no
    // events still get one.
    auto name = s.names.begin();
    auto namesThrough = [&](TrackId last) {
        for (; name != s.names.end() && name->first <= last; ++name) {
            if (name->second.empty())
                continue;
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"M\",\"name\":\"thread_name\","
                          "\"pid\":0,\"tid\":%u,\"args\":{\"name\":\"",
                          name->first);
            std::string line = buf;
            appendEscaped(line, name->second);
            line += "\"}}";
            emit(line.c_str());
        }
    };
    for (const Event &e : s.log) {
        namesThrough(e.track);
        const TrackId id = e.track;
        const unsigned long long ts = e.ts, arg = e.arg;
        switch (e.phase) {
          case 'B':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"B\",\"name\":\"%s\",\"cat\":"
                          "\"sim\",\"ts\":%llu,\"pid\":0,\"tid\":%u}",
                          e.name, ts, id);
            break;
          case 'E':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"E\",\"ts\":%llu,\"pid\":0,\"tid\":%u}",
                          ts, id);
            break;
          case 'X':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":"
                          "\"sim\",\"ts\":%llu,\"dur\":%llu,"
                          "\"pid\":0,\"tid\":%u}",
                          e.name, ts, arg, id);
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
                          e.name, ts, id, arg);
            break;
          case 's':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"s\",\"name\":\"%s\",\"cat\":"
                          "\"noc\",\"id\":\"0x%llx\",\"ts\":%llu,"
                          "\"pid\":0,\"tid\":%u}",
                          e.name, arg, ts, id);
            break;
          case 'f':
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"%s\","
                          "\"cat\":\"noc\",\"id\":\"0x%llx\",\"ts\":"
                          "%llu,\"pid\":0,\"tid\":%u}",
                          e.name, arg, ts, id);
            break;
          default:
            continue;
        }
        emit(buf);
    }
    namesThrough(NO_TRACK);
    out += "\n],\"displayTimeUnit\":\"ns\"}\n";
    return ok && deliver(out);
}

} // namespace trace
} // namespace m3
