/**
 * @file
 * Clock, percentile and metric-report helpers of the benchmark driver.
 */

#ifndef PERFBENCH_STATS_HH__
#define PERFBENCH_STATS_HH__

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock nanoseconds since the process started. */
uint64_t nowNs();
inline double
nowS()
{
    return 1e-9 * static_cast<double>(nowNs());
}

/** Linear-interpolated quantile of a sample (0 when empty). */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double> &v);

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0; //!< observations behind the value
};

/**
 * Print @p metrics as an aligned table (name, value, unit, samples)
 * under @p title.
 */
void printTable(const char *title, const std::vector<Metric> &metrics);

/**
 * The result line: one JSON object with exactly the keys correct,
 * attempted, failed and metrics ({name: {value, unit}}).
 */
std::string resultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH__
