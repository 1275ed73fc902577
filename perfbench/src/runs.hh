/**
 * @file
 * The four benchmark workloads, driven through the runtime's public
 * API only (ServingEngine::submit/step/onToken and
 * DecodeSession::prefill/decode). A workload pass runs its timed
 * window, then checks a seeded sample of its outputs token for token
 * against single-sequence DecodeSession references, and returns what
 * it observed; main.cc turns that into metrics.
 */

#ifndef PERFBENCH_RUNS_HH__
#define PERFBENCH_RUNS_HH__

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/packed_codec.hh"
#include "model/config.hh"
#include "runtime/decode_session.hh"
#include "spans.hh"

namespace perfbench {

/** Parallel lanes of every engine, session and replay pool. */
constexpr unsigned benchLanes = 2;

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Everything one pass of a workload observed. */
struct Observations
{
    /** @{ End to end. */
    std::vector<double> ttftMs;  //!< due time -> first token
    std::vector<double> itlMs;   //!< gaps between a request's tokens
    double tokensPerS = 0.0;     //!< see README.md per workload
    size_t tokensPerSSamples = 0;
    double logitRelErr = 0.0;
    size_t attempted = 0;
    size_t failed = 0;
    double sloFrac = 0.0; //!< chat workloads; printed, not gated
    double peakRssMb = 0.0; //!< at the end of the timed window
    /** @} */

    /** Driver lateness: submissions (chat) or call-to-call glue. */
    std::vector<double> lateMs;

    /** @{ Scheduler view (serving; DecodeSession as its fixed-batch
     *  special case: one step per prefill or decode call). */
    std::vector<double> stepMs, admitStepMs, decodeStepMs;
    std::vector<double> queueWaitMs;
    std::vector<double> batchRows; //!< rows per decode step
    size_t preemptions = 0;
    size_t reprefillTokens = 0;
    size_t freshPrefillTokens = 0;
    /** @} */

    /** @{ KV arena and cache. */
    double occupancyMean = 0.0, occupancyPeak = 0.0;
    size_t highWaterPages = 0;
    double residentMb = 0.0;
    double kvBytesPerToken = 0.0;
    /** @} */

    /** @{ Step-time ledger. */
    size_t generated = 0; //!< tokens generated by the pass
    double busyS = 0.0;   //!< summed wall time of the runtime calls
    double attendS = 0.0; //!< public attendSeconds()
    bool linearExact = false; //!< quantize/gemm from layerStats()
    double quantizeS = 0.0, gemmS = 0.0, gemmFlops = 0.0;
    /** @} */

    /** decode_session layer: prefill and step call times. */
    std::vector<double> prefillMsPerSeq, sessionStepMs;

    /** Replay shapes: rows per decode step and per prefill chunk. */
    size_t decodeRows = 0, prefillRows = 0;

    /** @{ codec_decode: per-codec tokens/s (median over rounds) and
     *  per-codec ttftMs / itlMs samples; their percentiles are
     *  combined by geometric mean, like tokensPerS. */
    std::vector<std::pair<std::string, double>> perCodecTokensPerS;
    std::vector<std::vector<double>> ttftByCodec, itlByCodec;
    /** @} */
};

/**
 * Single-sequence references shared by the passes of one process:
 * per codec, one packed-KV and one fp32-KV session, each reference
 * a fresh sequence driven alone through prefill() (a one-token
 * chunk is exactly a decode step of one sequence).
 */
struct ReferenceCache
{
    struct Entry
    {
        std::vector<int> tokens;
        double err2 = 0.0; //!< sum of squared packed - fp32 logits
        double ref2 = 0.0; //!< sum of squared fp32 logits
    };
    std::map<std::string, Entry> entries;
    struct Sessions
    {
        std::unique_ptr<m2x::runtime::DecodeSession> packed, exact;
    };
    std::map<m2x::PackedCodec, Sessions> sessions;
    /** The reference sessions' decode_session / packed_linear
     *  samples: the chat workloads' view of those layers. */
    std::vector<double> prefillMs, stepMs;
    double quantizeS = 0.0, gemmS = 0.0, gemmFlops = 0.0;
};

struct PassContext
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    SpanRecorder *spans = nullptr; //!< null = untraced pass
    ReferenceCache *refs = nullptr;
};

/** The model every workload runs. */
m2x::model::ModelConfig benchModel();

/**
 * Run one pass of @p ctx.workload, one of workloadNames(): the timed
 * window, then the output check.
 */
void runWorkload(const PassContext &ctx, Observations &obs);

/**
 * Generate the workload's inputs and construct its engine or
 * sessions once, untimed by the pass; returns the seconds it took.
 */
double setupOnce(const std::string &workload, uint64_t seed,
                 double seconds);

/** Linear-layer shapes (in, out features) in model order. */
std::vector<std::pair<size_t, size_t>> linearShapes();

} // namespace perfbench

#endif // PERFBENCH_RUNS_HH__
