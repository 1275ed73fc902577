/**
 * @file
 * In-memory span recorder of the traced run. The driver records a
 * span around each public runtime call it makes (name, start, end,
 * parent span, request id); nothing is written until the run ends,
 * when the spans are dumped as Chrome trace-event JSON.
 */

#ifndef PERFBENCH_SPANS_HH__
#define PERFBENCH_SPANS_HH__

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    static constexpr int none = -1;

    /** Record a finished span; returns its id (for children). */
    int add(const char *name, uint64_t start_ns, uint64_t end_ns,
            int parent = none, int64_t request = -1);

    /** Open a span now; close it with end(). */
    int begin(const char *name, int parent = none,
              int64_t request = -1);
    void end(int id);

    size_t size() const { return spans_.size(); }

    /** Write every span as Chrome trace JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name; //!< string literal
        uint64_t startNs;
        uint64_t endNs;
        int parent;
        int64_t request;
    };
    std::vector<Span> spans_;
};

/**
 * Times one call: records a span into @p rec when it is non-null and
 * always reports the duration, so the untraced and traced runs read
 * the same clock at the same points.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name,
               int parent = SpanRecorder::none, int64_t request = -1);
    ~ScopedSpan() { close(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** End the span now (idempotent); returns its seconds. */
    double close();
    int id() const { return id_; }
    uint64_t startNs() const { return start_; }

  private:
    SpanRecorder *rec_;
    const char *name_;
    int parent_;
    int64_t request_;
    int id_ = SpanRecorder::none;
    uint64_t start_;
    double seconds_ = -1.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH__
