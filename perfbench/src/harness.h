/// \file
/// Measurement plumbing shared by every workload: the monotonic clock,
/// order statistics, the in-memory span recorder with self-time
/// accounting, the metric sink that becomes the result line, and the
/// environment stamp printed with every run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since process start.
double now();

/// Sleep for \p seconds (no-op when <= 0).
void sleepFor(double seconds);

/// Nearest-rank percentile of \p values (\p p in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Geometric mean of strictly positive values; 0 when empty.
double geomean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), MiB.
double peakRssMib();

/// One recorded interval. Times are seconds on the now() clock.
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;           ///< Index into the recorder, -1 = root.
    std::uint64_t request = 0; ///< Request id, 0 = not tied to a request.
};

/// Spans kept in memory during a run and written out when it ends.
class Trace
{
  public:
    /// Record one span; returns its index (the parent handle for
    /// children).
    int add(std::string name, double start, double end, int parent = -1,
            std::uint64_t request = 0);

    /// Append every span of \p other (parents re-indexed).
    void append(const Trace& other);

    /// Set the end of span \p index (for a parent opened before its
    /// children were recorded).
    void close(int index, double end);

    /// Record \p durations as consecutive children of \p parent starting
    /// at \p start; zero-length entries are skipped. Returns the end of
    /// the last child.
    double addSequence(int parent,
                       const std::vector<std::pair<std::string, double>>&
                           durations,
                       double start, std::uint64_t request);

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children.
    std::vector<double> selfTimes() const;

    /// Median self time (seconds) per span name, over the spans with
    /// that name that belong to a request (request id != 0).
    std::map<std::string, double> medianRequestSelfByName() const;

    /// Chrome trace-event JSON of every span (ts/dur in microseconds).
    bool writeChromeJson(const std::string& path) const;

  private:
    std::vector<Span> spans_;
};

/// Ordered name -> (value, unit) map that becomes the "metrics" object.
class Metrics
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    /// JSON object text: {"name": {"value": v, "unit": "u"}, ...}.
    std::string json() const;
    /// Human-readable one-metric-per-line table.
    std::string table() const;

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/// JSON string literal with escaping.
std::string jsonString(const std::string& text);
/// JSON number with all significant digits (non-finite -> 0).
std::string jsonNumber(double value);

/// Environment stamp: CPU model, nproc, AVX2 dispatch state, build type,
/// compiler version, poly degree and seed, as a JSON object. Warns on
/// stderr when the build is not optimized.
std::string environmentJson(int poly_degree, std::uint64_t seed);

} // namespace perfbench
