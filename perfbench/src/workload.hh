/**
 * @file
 * Seeded input generation for the benchmark workloads.
 *
 * Everything here depends only on the seed and the workload shape —
 * not on any code under src/ — so the runtime receives nothing but
 * the generated token streams, and a change to the runtime can never
 * change the inputs it is measured on.
 */

#ifndef PERFBENCH_WORKLOAD_HH__
#define PERFBENCH_WORKLOAD_HH__

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** splitmix64: a small, fully specified generator. */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : s_(seed) {}

    uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [lo, hi], both inclusive. */
    size_t between(size_t lo, size_t hi);

  private:
    uint64_t s_;
};

/** Derive an independent stream seed from (seed, stream). */
uint64_t streamSeed(uint64_t seed, uint64_t stream);

/** One generated request. */
struct Request
{
    double dueS = 0.0; //!< due time, seconds after the run starts
    std::vector<int> prompt;
    size_t maxNew = 0;
};

/** Shape of a chat request stream. */
struct ChatShape
{
    size_t requests = 0;
    /** Poisson arrival rate; 0 puts every request due at t = 0. */
    double ratePerS = 0.0;
    size_t promptLo = 0, promptHi = 0; //!< prompt tokens, U[lo, hi]
    size_t genLo = 0, genHi = 0;       //!< new tokens, U[lo, hi]
    unsigned vocab = 0;
};

/**
 * The chat stream: exponential inter-arrival gaps at ratePerS,
 * uniform prompt and generation lengths, uniform token ids. Gaps and
 * lengths are stratified draws in blocks of 20 requests (see
 * workload.cc): each seed orders and pairs them differently, but
 * every seed offers nearly the same load in every second, so
 * run-to-run spread reflects the system rather than the luck of the
 * draw. The rate only scales the gaps, so a burst
 * (rate 0) carries the same requests as the stream at any rate.
 */
std::vector<Request> makeChat(const ChatShape &shape, uint64_t seed);

/** @p n prompts of @p len uniform token ids each. */
std::vector<std::vector<int>> makePrompts(size_t n, size_t len,
                                          unsigned vocab,
                                          uint64_t seed);

/** @p k distinct indices from [0, n), ascending (k clamped to n). */
std::vector<size_t> sampleIndices(size_t n, size_t k, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH__
