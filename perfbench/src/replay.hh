/**
 * @file
 * Kernel replays of the traced run: the packed encoder, the packed
 * GEMM, KV append/attend and the generic-codec path, each called
 * directly through its public entry point (packActivations*,
 * packedMatmulNt, KvCache::append/attend) at the row counts the
 * workload itself produced. Bytes and flops are computed from tensor
 * sizes, not measured by hardware counters.
 */

#ifndef PERFBENCH_REPLAY_HH__
#define PERFBENCH_REPLAY_HH__

#include <vector>

#include "spans.hh"
#include "stats.hh"

namespace perfbench {

struct ReplayResult
{
    std::vector<Metric> metrics;
    /** @{ Summed over the model's linears: the cost model of the
     *  serving ledger (engines expose no linear timings). A decode
     *  step is charged per call (small batches are weight-bound), a
     *  prefill per row. */
    double quantizeSPerDecodeStep = 0.0, gemmSPerDecodeStep = 0.0;
    double quantizeSPerPrefillRow = 0.0, gemmSPerPrefillRow = 0.0;
    /** @} */
};

/**
 * Replay at @p decode_rows (rows of one decode step) and
 * @p prefill_rows (rows of one prefill chunk).
 */
ReplayResult runReplays(size_t decode_rows, size_t prefill_rows,
                        SpanRecorder *spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH__
