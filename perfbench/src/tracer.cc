#include "tracer.hh"

#include <cstdio>
#include <fstream>

namespace perfbench
{

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         _t0)
        .count();
}

int
Tracer::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = _open.empty() ? -1 : _open.back();
    s.start = now();
    _spans.push_back(std::move(s));
    _open.push_back(int(_spans.size() - 1));
    return _open.back();
}

void
Tracer::end(int id, std::string args)
{
    Span &s = _spans[std::size_t(id)];
    s.end = now();
    s.args = std::move(args);
    if (!_open.empty() && _open.back() == id)
        _open.pop_back();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    char buf[128];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        // The category is the layer: the span name's prefix up to '.'.
        const std::string cat = s.name.substr(0, s.name.find('.'));
        std::snprintf(buf, sizeof(buf),
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      s.start * 1e6, (s.end - s.start) * 1e6);
        out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
            << "\", \"cat\": \"" << cat << "\", " << buf
            << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
            << (s.args.empty() ? "" : ", ") << s.args << "}}";
    }
    out << "\n]}\n";
    return bool(out);
}

} // namespace perfbench
