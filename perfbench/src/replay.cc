#include "replay.hh"

#include <algorithm>
#include <string>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "runs.hh"
#include "runtime/kv_cache.hh"
#include "runtime/packed_gemm.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"
#include "workload.hh"

namespace perfbench {

using namespace m2x;
using namespace m2x::runtime;

namespace {

constexpr size_t attendCtxShort = 256, attendCtxLong = 2048;
constexpr size_t codecPrefillCap = 256;

/**
 * Median seconds of @p f over at least 3 calls and 20 ms (at most
 * 200 calls), after one warm-up call; one span per timed call.
 */
template <typename F>
double
timeCalls(SpanRecorder *spans, const char *name, int parent, F &&f)
{
    f();
    std::vector<double> t;
    double total = 0.0;
    while (t.size() < 3 || (total < 0.02 && t.size() < 200)) {
        ScopedSpan s(spans, name, parent);
        f();
        t.push_back(s.close());
        total += t.back();
    }
    return median(t);
}

Matrix
randomMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Matrix m(rows, cols);
    SeedRng r(seed);
    for (float &x : m.flat()) {
        // Sum of uniforms: a bell shape with the occasional larger
        // value, so every group exercises a real scale.
        double u = r.uniform() + r.uniform() + r.uniform() - 1.5;
        x = static_cast<float>(u * (r.uniform() < 0.01 ? 8.0 : 1.0));
    }
    return m;
}

/** Attend milliseconds for one query row at context @p ctx. */
double
attendMs(SpanRecorder *spans, const char *name, int parent,
         const KvCache &kc, size_t ctx, unsigned heads,
         ThreadPool &pool)
{
    Matrix q = randomMatrix(1, kc.dModel(), 7);
    Matrix out(1, kc.dModel());
    return 1e3 * timeCalls(spans, name, parent, [&] {
               kc.attend(0, q.data(), 1, ctx - 1, heads, out.data(),
                         &pool);
           });
}

/** A one-layer @p codec cache holding @p rows, appended by chunk. */
KvCache
filledCache(PackedCodec codec, const Matrix &rows, size_t chunk,
            ThreadPool &pool)
{
    KvCache kc(1, rows.cols(), KvCacheMode::Packed, M2xfpConfig{},
               activeSimdIsa(), codec);
    for (size_t r = 0; r < rows.rows(); r += chunk) {
        size_t n = std::min(chunk, rows.rows() - r);
        const float *p = rows.data() + r * rows.cols();
        kc.append(0, p, p, n, &pool);
    }
    return kc;
}

} // anonymous namespace

ReplayResult
runReplays(size_t decode_rows, size_t prefill_rows, SpanRecorder *spans)
{
    ReplayResult res;
    ScopedSpan top(spans, "replay");
    const int parent = top.id();
    const SimdIsa isa = activeSimdIsa();
    const M2xfpConfig cfg{};
    const ElemEmQuantizer act_q(cfg.activationConfig());
    const SgEmQuantizer w_q(cfg.weightConfig());
    ThreadPool pool(benchLanes), pool1(1);
    const auto shapes = linearShapes();
    decode_rows = std::max<size_t>(decode_rows, 1);
    prefill_rows = std::max<size_t>(prefill_rows, 1);

    // packed_quantize + packed_gemm (+ thread_pool) on the elem_em
    // per-ISA kernels, every linear shape of the model.
    double q_bytes = 0.0, q_s = 0.0;
    double flops_d = 0.0, gemm_d = 0.0, w_bytes = 0.0, gemm_d1 = 0.0;
    double flops_p = 0.0, gemm_p = 0.0;
    double quant_d = 0.0, quant_p = 0.0;
    for (size_t si = 0; si < shapes.size(); ++si) {
        auto [k, n] = shapes[si];
        PackedM2xfpTensor w = PackedM2xfpTensor::packWeights(
            randomMatrix(n, k, 100 + si), w_q);
        for (bool decode : {true, false}) {
            size_t rows = decode ? decode_rows : prefill_rows;
            Matrix x = randomMatrix(rows, k, 200 + si);
            PackedM2xfpTensor xa;
            Matrix c;
            double tq = timeCalls(spans, "replay.packed_quantize",
                                  parent, [&] {
                PackedM2xfpTensor::packActivations(x, act_q, &pool,
                                                   isa, xa);
            });
            double tg = timeCalls(spans, "replay.packed_gemm", parent,
                                  [&] {
                packedMatmulNt(xa, w, c, &pool, isa);
            });
            q_bytes += static_cast<double>(rows * k * sizeof(float) +
                                           xa.totalBytes());
            q_s += tq;
            double fl = 2.0 * static_cast<double>(rows * k * n);
            if (decode) {
                quant_d += tq;
                flops_d += fl;
                gemm_d += tg;
                w_bytes += static_cast<double>(w.totalBytes());
                gemm_d1 += timeCalls(spans, "replay.thread_pool_1lane",
                                     parent, [&] {
                    packedMatmulNt(xa, w, c, &pool1, isa);
                });
            } else {
                quant_p += tq;
                flops_p += fl;
                gemm_p += tg;
            }
        }
    }
    res.quantizeSPerDecodeStep = quant_d;
    res.gemmSPerDecodeStep = gemm_d;
    res.quantizeSPerPrefillRow =
        quant_p / static_cast<double>(prefill_rows);
    res.gemmSPerPrefillRow = gemm_p / static_cast<double>(prefill_rows);
    size_t n_q = shapes.size() * 2;
    res.metrics.push_back(
        {"packed_quantize.gbps", 1e-9 * q_bytes / q_s, "GB/s", n_q});
    res.metrics.push_back({"packed_gemm.gflops_decode",
                           1e-9 * flops_d / gemm_d, "GFLOP/s",
                           shapes.size()});
    res.metrics.push_back({"packed_gemm.gflops_prefill",
                           1e-9 * flops_p / gemm_p, "GFLOP/s",
                           shapes.size()});
    res.metrics.push_back({"packed_gemm.weight_gbps",
                           1e-9 * w_bytes / gemm_d, "GB/s",
                           shapes.size()});
    res.metrics.push_back({"thread_pool.scaling_2v1", gemm_d1 / gemm_d,
                           "ratio", shapes.size()});

    // kv_cache: prefill-sized appends, then decode-shaped attends.
    model::ModelConfig mc = benchModel();
    size_t chunk = std::min(prefill_rows, attendCtxLong);
    const Matrix kv_rows = randomMatrix(attendCtxLong, mc.kvDim(), 11);
    std::vector<double> fill_s;
    for (int rep = 0; rep < 3; ++rep) {
        ScopedSpan s(spans, "replay.kv_cache.append", parent);
        KvCache kc = filledCache(PackedCodec::ElemEm, kv_rows, chunk,
                                 pool);
        fill_s.push_back(s.close());
    }
    KvCache kc = filledCache(PackedCodec::ElemEm, kv_rows, chunk, pool);
    double a_short = attendMs(spans, "replay.kv_cache.attend", parent,
                              kc, attendCtxShort, mc.nHeads, pool);
    double a_long = attendMs(spans, "replay.kv_cache.attend", parent,
                             kc, attendCtxLong, mc.nHeads, pool);
    res.metrics.push_back({"kv_cache.append_rows_per_s",
                           static_cast<double>(attendCtxLong) /
                               median(fill_s),
                           "rows/s", fill_s.size()});
    res.metrics.push_back(
        {"kv_cache.attend_ms_ctx256", a_short, "ms", 1});
    res.metrics.push_back(
        {"kv_cache.attend_ms_ctx2048", a_long, "ms", 1});
    // K and V bytes of the attended rows (kc holds exactly them).
    res.metrics.push_back({"kv_cache.attend_gbps",
                           1e-6 * static_cast<double>(kc.totalBytes()) /
                               a_long,
                           "GB/s", 1});

    // codec_traits: the generic path, one codec at a time: GEMM at
    // the decode row count, encode also at the prefill row count
    // (capped, the functional encoders being slow).
    const size_t codec_prefill = std::min(prefill_rows, codecPrefillCap);
    for (PackedCodec codec : {PackedCodec::ElemEe, PackedCodec::SgEm,
                              PackedCodec::M2Nvfp4}) {
        std::string pre = std::string("codec_traits.") +
                          packedCodecName(codec);
        double e_bytes = 0.0, e_s = 0.0, g_flops = 0.0, g_s = 0.0;
        for (size_t si = 0; si < shapes.size(); ++si) {
            auto [k, n] = shapes[si];
            PackedM2xfpTensor w = PackedM2xfpTensor::packWeightsCodec(
                randomMatrix(n, k, 100 + si), codec);
            for (bool decode : {true, false}) {
                size_t rows = decode ? decode_rows : codec_prefill;
                Matrix x = randomMatrix(rows, k, 200 + si);
                PackedM2xfpTensor xa;
                e_s += timeCalls(spans, "replay.codec_traits.encode",
                                 parent, [&] {
                    PackedM2xfpTensor::packActivationsCodec(
                        x, codec, &pool, isa, xa);
                });
                e_bytes += static_cast<double>(
                    rows * k * sizeof(float) + xa.totalBytes());
                if (decode) {
                    Matrix c;
                    g_s += timeCalls(spans, "replay.codec_traits.gemm",
                                     parent, [&] {
                        packedMatmulNt(xa, w, c, &pool, isa);
                    });
                    g_flops += 2.0 * static_cast<double>(rows * k * n);
                }
            }
        }
        KvCache ckc = filledCache(codec, kv_rows, chunk, pool);
        double a = attendMs(spans, "replay.codec_traits.attend", parent,
                            ckc, attendCtxLong, mc.nHeads, pool);
        res.metrics.push_back(
            {pre + ".encode_gbps", 1e-9 * e_bytes / e_s, "GB/s", n_q});
        res.metrics.push_back({pre + ".gemm_gflops",
                               1e-9 * g_flops / g_s, "GFLOP/s",
                               shapes.size()});
        res.metrics.push_back({pre + ".attend_ms", a, "ms", 1});
    }
    return res;
}

} // namespace perfbench
