/**
 * @file
 * In-memory span recorder for the traced run. Spans are opened and
 * closed by the benchmark's own code around each call into a layer
 * (single-threaded, strictly nested), kept in memory, and written out
 * once as Chrome trace-event JSON (loadable in chrome://tracing or
 * Perfetto).
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <string>
#include <vector>

#include "metrics.hh"

namespace perfbench
{

class Tracer
{
  public:
    Tracer() : _t0(std::chrono::steady_clock::now()) {}

    /** Open a span named @p name as a child of the innermost open one. */
    int begin(const char *name);

    /** Close span @p id (must be the innermost open span). */
    void end(int id, std::string args = "");

    const std::vector<Span> &spans() const { return _spans; }

    /** Drop every recorded span (no span may be open). */
    void clear() { _spans.clear(); }

    /** Write the spans as a Chrome trace-event document. */
    bool writeChromeJson(const std::string &path) const;

    /** Seconds since this tracer was created. */
    double now() const;

  private:
    std::chrono::steady_clock::time_point _t0;
    std::vector<Span> _spans;
    std::vector<int> _open;
};

/** RAII span; a no-op when the tracer is null (untraced runs). */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const char *name)
        : _t(t), _id(t ? t->begin(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (_t)
            _t->end(_id, std::move(_args));
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Attach a JSON object body (e.g. "\"events\": 12") at close. */
    void setArgs(std::string args) { _args = std::move(args); }

  private:
    Tracer *_t;
    int _id;
    std::string _args;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
