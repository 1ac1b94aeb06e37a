#include "harness/report.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "sim/stats.hh"

namespace atomsim
{

ReportTable::ReportTable(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
ReportTable::addRow(std::vector<std::string> cells)
{
    _rows.push_back(std::move(cells));
}

std::string
ReportTable::num(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
ReportTable::str() const
{
    std::vector<std::size_t> widths(_headers.size(), 0);
    for (std::size_t i = 0; i < _headers.size(); ++i)
        widths[i] = _headers[i].size();
    for (const auto &row : _rows) {
        for (std::size_t i = 0; i < row.size() && i < widths.size();
             ++i) {
            widths[i] = std::max(widths[i], row[i].size());
        }
    }

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string &cell = i < cells.size() ? cells[i] : "";
            out << cell;
            for (std::size_t p = cell.size(); p < widths[i] + 2; ++p)
                out << ' ';
        }
        out << '\n';
    };
    emit(_headers);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    out << std::string(total, '-') << '\n';
    for (const auto &row : _rows)
        emit(row);
    return out.str();
}

void
ReportTable::print() const
{
    std::fputs(str().c_str(), stdout);
    std::fflush(stdout);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

// --- JsonWriter ------------------------------------------------------

void
JsonWriter::separate()
{
    if (_afterKey) {
        _afterKey = false;
        return;
    }
    if (!_hasElem.empty()) {
        if (_hasElem.back())
            _out += ',';
        _hasElem.back() = true;
    }
}

void
JsonWriter::escape(const std::string &s)
{
    _out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            _out += "\\\"";
            break;
          case '\\':
            _out += "\\\\";
            break;
          case '\n':
            _out += "\\n";
            break;
          case '\t':
            _out += "\\t";
            break;
          case '\r':
            _out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                _out += buf;
            } else {
                _out += c;
            }
        }
    }
    _out += '"';
}

void
JsonWriter::beginObject()
{
    separate();
    _out += '{';
    _hasElem.push_back(false);
}

void
JsonWriter::endObject()
{
    _hasElem.pop_back();
    _out += '}';
}

void
JsonWriter::beginArray()
{
    separate();
    _out += '[';
    _hasElem.push_back(false);
}

void
JsonWriter::endArray()
{
    _hasElem.pop_back();
    _out += ']';
}

void
JsonWriter::key(const std::string &k)
{
    separate();
    escape(k);
    _out += ':';
    _afterKey = true;
}

void
JsonWriter::value(const std::string &v)
{
    separate();
    escape(v);
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    _out += buf;
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", (long long)v);
    _out += buf;
}

void
JsonWriter::value(double v)
{
    separate();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    _out += buf;
}

void
JsonWriter::value(bool v)
{
    separate();
    _out += v ? "true" : "false";
}

void
JsonWriter::statsObject(const std::string &k, const StatSet &stats)
{
    key(k);
    beginObject();
    for (const auto &entry : stats.dump())
        kv(entry.first, entry.second);
    endObject();
}

bool
JsonWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs(_out.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

std::uint64_t
LatencyHistogram::count() const
{
    std::uint64_t total = 0;
    for (std::uint64_t b : _buckets)
        total += b;
    return total;
}

Tick
LatencyHistogram::percentile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0;
    if (q < 0)
        q = 0;
    if (q > 1)
        q = 1;
    // Rank of the sample at quantile q (nearest-rank definition).
    const auto rank = std::uint64_t(q * double(total - 1));
    std::uint64_t seen = 0;
    for (std::uint32_t b = 0; b < kBuckets; ++b) {
        seen += _buckets[b];
        if (seen > rank)
            return bucketFloor(b);
    }
    return bucketFloor(kBuckets - 1);
}

void
writeLatencyObject(JsonWriter &w, const std::string &k,
                   const LatencyHistogram &h)
{
    w.key(k);
    w.beginObject();
    w.kv("count", h.count());
    w.kv("p50", h.percentile(0.50));
    w.kv("p95", h.percentile(0.95));
    w.kv("p99", h.percentile(0.99));
    w.endObject();
}

std::string
statsJsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--stats-json") != 0)
            continue;
        if (i + 1 >= argc) {
            std::fprintf(stderr,
                         "--stats-json requires a path argument; no "
                         "JSON will be written\n");
            return "";
        }
        return argv[i + 1];
    }
    return "";
}

} // namespace atomsim
