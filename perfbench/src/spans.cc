#include "spans.hh"

#include <cstdio>

#include "stats.hh"

namespace perfbench {

int
SpanRecorder::add(const char *name, uint64_t start_ns, uint64_t end_ns,
                  int parent, int64_t request)
{
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size() - 1);
}

int
SpanRecorder::begin(const char *name, int parent, int64_t request)
{
    uint64_t t = nowNs();
    return add(name, t, t, parent, request);
}

void
SpanRecorder::end(int id)
{
    spans_[static_cast<size_t>(id)].endNs = nowNs();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Request-scoped spans get a track per request so their
        // lifecycles do not overlap the driver's call track.
        long long tid = s.request >= 0 ? 1000 + s.request : 1;
        std::fprintf(
            f,
            "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %zu, \"parent\": %d, "
            "\"request\": %lld}}",
            i ? "," : "", s.name, tid, 1e-3 * static_cast<double>(s.startNs),
            1e-3 * static_cast<double>(s.endNs - s.startNs), i,
            s.parent, static_cast<long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name, int parent,
                       int64_t request)
    : rec_(rec), name_(name), parent_(parent), request_(request)
{
    if (rec_)
        id_ = rec_->begin(name_, parent_, request_);
    start_ = nowNs();
}

double
ScopedSpan::close()
{
    if (seconds_ < 0.0) {
        seconds_ = 1e-9 * static_cast<double>(nowNs() - start_);
        if (rec_)
            rec_->end(id_);
    }
    return seconds_;
}

} // namespace perfbench
