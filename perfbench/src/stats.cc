#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point processStart =
    std::chrono::steady_clock::now();

} // anonymous namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processStart)
            .count());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
peakRssMb()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::atof(line + 6);
    std::fclose(f);
    return kb / 1024.0;
}

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    std::printf("  %-40s %16s  %-9s %s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : metrics)
        std::printf("  %-40s %16.6g  %-9s %zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
}

std::string
resultJson(bool correct, size_t attempted, size_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                   : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        s += (i ? ", \"" : "\"") + metrics[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
