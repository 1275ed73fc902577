/**
 * @file
 * Benchmark driver: one workload, one seed, one pass per process.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out PATH]
 *
 * --trace 0 runs the workload untraced and reports the end-to-end
 * metrics. --trace 1 runs it untraced and then again with spans
 * recorded, replays the kernels at the workload's shapes, reports
 * the per-layer metrics and writes the spans to --trace-out as
 * Chrome trace JSON. Either way the last stdout line is the result
 * object; the exit code is non-zero when any output check failed.
 */

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "replay.hh"
#include "runs.hh"
#include "runtime/simd.hh"
#include "spans.hh"
#include "stats.hh"

namespace {

using namespace perfbench;

constexpr int setupRepeats = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *k = argv[i], *v = argv[i + 1];
        char *end = nullptr;
        if (std::strcmp(k, "--workload") == 0)
            a.workload = v;
        else if (std::strcmp(k, "--seed") == 0)
            a.seed = std::strtoull(v, &end, 10);
        else if (std::strcmp(k, "--seconds") == 0)
            a.seconds = std::strtod(v, &end);
        else if (std::strcmp(k, "--trace") == 0)
            a.trace = static_cast<int>(std::strtol(v, &end, 10));
        else if (std::strcmp(k, "--trace-out") == 0)
            a.traceOut = v;
        else
            return false;
        if (end && *end)
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

Metric
pct(const char *name, const std::vector<double> &v, double q)
{
    return {name, quantile(v, q), "ms", v.size()};
}

/**
 * Percentile of @p v, or, when @p groups is non-empty, the geometric
 * mean of the per-group percentiles.
 */
Metric
groupedPct(const char *name, const std::vector<double> &v,
           const std::vector<std::vector<double>> &groups, double q)
{
    if (groups.empty())
        return pct(name, v, q);
    double log_sum = 0.0;
    for (const auto &g : groups)
        log_sum += std::log(quantile(g, q));
    return {name, std::exp(log_sum / static_cast<double>(groups.size())),
            "ms", v.size()};
}

std::vector<Metric>
endToEnd(const Observations &o, double setup_s)
{
    return {
        {"setup_s", setup_s, "s", setupRepeats},
        {"peak_rss_mb", o.peakRssMb, "MB", 1},
        {"tokens_per_s", o.tokensPerS, "tok/s", o.tokensPerSSamples},
        groupedPct("ttft_p50_ms", o.ttftMs, o.ttftByCodec, 0.50),
        groupedPct("ttft_p95_ms", o.ttftMs, o.ttftByCodec, 0.95),
        groupedPct("itl_p50_ms", o.itlMs, o.itlByCodec, 0.50),
        groupedPct("itl_p99_ms", o.itlMs, o.itlByCodec, 0.99),
        {"logit_rel_err", o.logitRelErr, "ratio", 1},
    };
}

/** Reported alongside, not gated (see README.md). */
std::vector<Metric>
endToEndExtra(const Observations &o, bool chat)
{
    std::vector<Metric> m = {
        {"failed_frac",
         static_cast<double>(o.failed) /
             static_cast<double>(std::max<size_t>(o.attempted, 1)),
         "ratio", o.attempted}};
    if (chat)
        m.push_back({"slo_frac", o.sloFrac, "ratio", o.ttftMs.size()});
    for (const auto &[codec, tps] : o.perCodecTokensPerS)
        m.push_back({"tokens_per_s." + codec, tps, "tok/s",
                     o.tokensPerSSamples / o.perCodecTokensPerS.size()});
    return m;
}

std::vector<Metric>
perLayer(const Observations &o, const Observations &untraced,
         const ReferenceCache &refs, const ReplayResult &rep,
         const SpanRecorder &spans)
{
    // Linear-layer time: exact from layerStats() for the sessions;
    // for the serving engine, which exposes no linear timings, the
    // replayed cost of its decode steps and prefill rows.
    double quant_s = o.quantizeS, gemm_s = o.gemmS;
    if (!o.linearExact) {
        double decode_steps = static_cast<double>(o.batchRows.size());
        double prefill_rows = static_cast<double>(
            o.freshPrefillTokens + o.reprefillTokens);
        quant_s = decode_steps * rep.quantizeSPerDecodeStep +
                  prefill_rows * rep.quantizeSPerPrefillRow;
        gemm_s = decode_steps * rep.gemmSPerDecodeStep +
                 prefill_rows * rep.gemmSPerPrefillRow;
    }
    double residual = o.busyS - quant_s - gemm_s - o.attendS;

    // decode_session / packed_linear: the workload's own sessions, or
    // the reference sessions of the output check on chat workloads.
    double lq = o.linearExact ? o.quantizeS : refs.quantizeS;
    double lg = o.linearExact ? o.gemmS : refs.gemmS;
    double lf = o.linearExact ? o.gemmFlops : refs.gemmFlops;
    const auto &prefill_ms =
        o.linearExact ? o.prefillMsPerSeq : refs.prefillMs;
    const auto &session_step_ms =
        o.linearExact ? o.sessionStepMs : refs.stepMs;
    double prefill = o.freshPrefillTokens + o.reprefillTokens;
    size_t steps = o.stepMs.size();

    std::vector<Metric> m = {
        pct("driver.late_p99_ms", o.lateMs, 0.99),
        {"serving.steps", static_cast<double>(steps), "count", 1},
        pct("serving.step_ms_p50", o.stepMs, 0.50),
        pct("serving.step_ms_p99", o.stepMs, 0.99),
        pct("serving.admit_step_ms_p50", o.admitStepMs, 0.50),
        pct("serving.decode_step_ms_p50", o.decodeStepMs, 0.50),
        pct("serving.queue_wait_ms_p50", o.queueWaitMs, 0.50),
        pct("serving.queue_wait_ms_p95", o.queueWaitMs, 0.95),
        {"serving.batch_mean", mean(o.batchRows), "rows",
         o.batchRows.size()},
        {"serving.preemptions", static_cast<double>(o.preemptions),
         "count", 1},
        {"serving.reprefill_tokens",
         static_cast<double>(o.reprefillTokens), "count", 1},
        {"serving.useful_prefill_frac",
         prefill > 0 ? o.freshPrefillTokens / prefill : 0.0, "ratio",
         1},
        {"kv_page_arena.occupancy_mean", o.occupancyMean, "ratio",
         steps},
        {"kv_page_arena.occupancy_peak", o.occupancyPeak, "ratio",
         steps},
        {"kv_page_arena.high_water_pages",
         static_cast<double>(o.highWaterPages), "count", 1},
        {"kv_page_arena.resident_mb", o.residentMb, "MB", 1},
        {"kv_cache.attend_s", o.attendS, "s", 1},
        {"kv_cache.attend_frac", o.attendS / o.busyS, "ratio", 1},
        {"kv_cache.bytes_per_token", o.kvBytesPerToken, "B/tok", 1},
        {"decode_session.prefill_ms_per_seq", mean(prefill_ms), "ms",
         prefill_ms.size()},
        pct("decode_session.step_ms_p50", session_step_ms, 0.50),
        pct("decode_session.step_ms_p99", session_step_ms, 0.99),
        {"packed_linear.quantize_s", lq, "s", 1},
        {"packed_linear.gemm_s", lg, "s", 1},
        {"packed_linear.gemm_gflops", lg > 0 ? 1e-9 * lf / lg : 0.0,
         "GFLOP/s", 1},
    };
    m.insert(m.end(), rep.metrics.begin(), rep.metrics.end());
    m.push_back({"model.residual_frac", residual / o.busyS, "ratio", 1});
    // Per generated token: the two passes may run different numbers
    // of rounds.
    m.push_back({"trace.overhead_frac",
                 (o.busyS / o.generated) /
                         (untraced.busyS / untraced.generated) -
                     1.0,
                 "ratio", 2});
    m.push_back({"trace.spans", static_cast<double>(spans.size()),
                 "count", 1});

    std::printf("\nledger (%s): busy %.4f s = quantize %.4f + gemm "
                "%.4f + attend %.4f + residual %.4f (%.1f%%)\n",
                o.linearExact ? "quantize/gemm from layerStats"
                              : "quantize/gemm estimated from replay",
                o.busyS, quant_s, gemm_s, o.attendS, residual,
                100.0 * residual / o.busyS);
    return m;
}

/**
 * Pin the process to the first benchLanes CPUs it may run on; the
 * pool threads it starts later inherit the mask, so the lanes keep
 * their CPUs instead of landing wherever the scheduler puts them. A
 * host with fewer CPUs runs unpinned.
 */
void
pinToLanes()
{
    cpu_set_t allowed, mask;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    CPU_ZERO(&mask);
    unsigned n = 0;
    for (int c = 0; c < CPU_SETSIZE && n < benchLanes; ++c)
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &mask);
            ++n;
        }
    if (n == benchLanes)
        sched_setaffinity(0, sizeof mask, &mask);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const double first_call_s = nowS();
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--trace-out PATH]\n",
                     argv[0]);
        return 2;
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == a.workload;
    if (!known) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    const bool chat = a.workload.rfind("chat_", 0) == 0;
    pinToLanes();

    std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n"
                "host: nproc %u, isa %s, %u-lane pools\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace, std::thread::hardware_concurrency(),
                m2x::runtime::activeSimdIsaName(), benchLanes);

    std::vector<double> setups;
    for (int i = 0; i < setupRepeats; ++i)
        setups.push_back(setupOnce(a.workload, a.seed, a.seconds));
    std::printf("process start to first timed call: %.4f s\n",
                nowS() - first_call_s);

    ReferenceCache refs;
    Observations base;
    runWorkload({a.workload, a.seed, a.seconds, nullptr, &refs}, base);
    size_t attempted = base.attempted, failed = base.failed;

    std::vector<Metric> metrics;
    if (a.trace == 0) {
        metrics = endToEnd(base, median(setups));
        printTable("end-to-end metrics", metrics);
        printTable("reported, not gated", endToEndExtra(base, chat));
    } else {
        SpanRecorder spans;
        Observations traced;
        runWorkload({a.workload, a.seed, a.seconds, &spans, &refs},
                    traced);
        attempted += traced.attempted;
        failed += traced.failed;
        ReplayResult rep =
            runReplays(traced.decodeRows, traced.prefillRows, &spans);
        metrics = perLayer(traced, base, refs, rep, spans);
        printTable("per-layer metrics", metrics);
        if (!a.traceOut.empty()) {
            if (!spans.writeChromeTrace(a.traceOut)) {
                std::fprintf(stderr, "cannot write %s\n",
                             a.traceOut.c_str());
                return 1;
            }
            std::printf("wrote %zu spans to %s\n", spans.size(),
                        a.traceOut.c_str());
        }
    }
    std::printf("%s\n",
                resultJson(failed == 0, attempted, failed, metrics)
                    .c_str());
    return failed == 0 ? 0 : 1;
}
