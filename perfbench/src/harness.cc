#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "fhe/ntt.h"

namespace perfbench {

double
now()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

void
sleepFor(double seconds)
{
    if (seconds > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const std::size_t index =
        rank < 1 ? 0 : std::min(values.size(), std::size_t(rank)) - 1;
    return values[index];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (double v : values) log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
        }
    }
    return 0.0;
}

// ------------------------------------------------------------------ Trace

int
Trace::add(std::string name, double start, double end, int parent,
           std::uint64_t request)
{
    spans_.push_back({std::move(name), start, std::max(start, end), parent,
                      request});
    return static_cast<int>(spans_.size()) - 1;
}

void
Trace::append(const Trace& other)
{
    const int offset = static_cast<int>(spans_.size());
    for (Span span : other.spans_) {
        if (span.parent >= 0) span.parent += offset;
        spans_.push_back(std::move(span));
    }
}

void
Trace::close(int index, double end)
{
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end = std::max(span.start, end);
}

double
Trace::addSequence(int parent,
                   const std::vector<std::pair<std::string, double>>&
                       durations,
                   double start, std::uint64_t request)
{
    for (const auto& [name, seconds] : durations) {
        if (seconds <= 0) continue;
        add(name, start, start + seconds, parent, request);
        start += seconds;
    }
    return start;
}

std::vector<double>
Trace::selfTimes() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0) {
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
        }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        std::vector<std::pair<double, double>> covered;
        for (int c : children[i]) {
            const Span& child = spans_[static_cast<std::size_t>(c)];
            const double lo = std::max(span.start, child.start);
            const double hi = std::min(span.end, child.end);
            if (hi > lo) covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        double union_length = 0.0;
        double reach = span.start;
        for (const auto& [lo, hi] : covered) {
            const double from = std::max(lo, reach);
            if (hi > from) union_length += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = (span.end - span.start) - union_length;
    }
    return self;
}

std::map<std::string, double>
Trace::medianRequestSelfByName() const
{
    const std::vector<double> self = selfTimes();
    std::map<std::string, std::vector<double>> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].request != 0) {
            by_name[spans_[i].name].push_back(self[i]);
        }
    }
    std::map<std::string, double> medians;
    for (auto& [name, values] : by_name) medians[name] = median(values);
    return medians;
}

bool
Trace::writeChromeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    // One track per request (tid = request id) so a request's spans nest
    // visually; spans outside any request share track 0.
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":" << jsonString(span.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.request
            << ",\"ts\":" << jsonNumber(span.start * 1e6)
            << ",\"dur\":" << jsonNumber((span.end - span.start) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
            << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ---------------------------------------------------------------- Metrics

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    if (!values_.count(name)) order_.push_back(name);
    values_[name] = {value, unit};
}

std::string
Metrics::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const auto& [value, unit] = values_.at(order_[i]);
        out += (i ? ", " : "") + jsonString(order_[i]) +
               ": {\"value\": " + jsonNumber(value) +
               ", \"unit\": " + jsonString(unit) + "}";
    }
    return out + "}";
}

std::string
Metrics::table() const
{
    std::string out;
    char line[160];
    for (const std::string& name : order_) {
        const auto& [value, unit] = values_.at(name);
        std::snprintf(line, sizeof line, "  %-36s %14.6g %s\n",
                      name.c_str(), value, unit.c_str());
        out += line;
    }
    return out;
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) return "0";
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", value);
    return text;
}

// ------------------------------------------------------------ environment

namespace {

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

} // namespace

std::string
environmentJson(int poly_degree, std::uint64_t seed)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
    if (!optimized) {
        std::fprintf(stderr,
                     "\n**********************************************\n"
                     "** perfbench: UNOPTIMIZED BUILD — timings are **\n"
                     "** not comparable to a Release build.         **\n"
                     "**********************************************\n\n");
    }
    std::ostringstream out;
    out << "{\"cpu\": " << jsonString(cpuModel())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"avx2_compiled_in\": "
        << (chehab::fhe::simdCompiledIn() ? "true" : "false")
        << ", \"avx2_cpu\": "
        << (__builtin_cpu_supports("avx2") ? "true" : "false")
        << ", \"avx2_enabled\": "
        << (chehab::fhe::simdEnabled() ? "true" : "false")
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"optimized\": " << (optimized ? "true" : "false")
        << ", \"asserts\": " << (asserts ? "true" : "false")
        << ", \"compiler\": " << jsonString(__VERSION__)
        << ", \"poly_degree\": " << poly_degree << ", \"seed\": " << seed
        << "}";
    return out.str();
}

} // namespace perfbench
