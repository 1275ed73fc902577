#include "runs.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "runtime/decode_session.hh"
#include "runtime/serving.hh"
#include "stats.hh"
#include "workload.hh"

namespace perfbench {

using namespace m2x;
using namespace m2x::runtime;

namespace {

/** @{ Workload shapes (README.md gives the reasons). */
constexpr double chatRatePerS = 20.0;
constexpr size_t chatPromptLo = 48, chatPromptHi = 192;
constexpr size_t chatGenLo = 16, chatGenHi = 64;
constexpr size_t chatMaxBatch = 16;
constexpr size_t pageRows = 16;
constexpr size_t burstRequests = 200;
constexpr size_t burstArenaPages = 512;
constexpr size_t chatChecked = 8; //!< requests checked per pass

constexpr size_t longBatch = 8, longPrompt = 2048, longDecode = 128;
constexpr size_t codecBatch = 8, codecPrompt = 128, codecDecode = 32;
const PackedCodec genericCodecs[] = {
    PackedCodec::ElemEe, PackedCodec::SgEm, PackedCodec::M2Nvfp4};
/** @} */

/** @{ slo_frac limits, fixed from the calibration run. */
constexpr double sloTtftMs = 200.0;
constexpr double sloGapMs = 100.0;
/** @} */

/** Input streams of one seed, one per purpose. */
enum Stream : uint64_t
{
    streamChat = 1,
    streamPrompts = 2,
    streamCheck = 3,
};

int
argmaxRow(const Matrix &logits, size_t row)
{
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(row, c) > logits(row, best))
            best = c;
    return static_cast<int>(best);
}

double
ms(uint64_t ns)
{
    return 1e-6 * static_cast<double>(ns);
}

ServingConfig
chatConfig(size_t arena_pages)
{
    ServingConfig c;
    c.threads = benchLanes;
    c.kvMode = KvCacheMode::Packed;
    c.pageRows = pageRows;
    c.arenaPages = arena_pages;
    c.maxBatch = chatMaxBatch;
    c.codec = PackedCodec::ElemEm;
    return c;
}

DecodeConfig
decodeConfig(PackedCodec codec, KvCacheMode mode)
{
    DecodeConfig c;
    c.threads = benchLanes;
    c.kvMode = mode;
    c.pageRows = pageRows;
    c.codec = codec;
    return c;
}

/**
 * chat_poisson's arena holds a full batch of the largest requests
 * (1536 pages), so it never preempts and its latency is queueing and
 * compute alone; chat_burst's 512-page arena is a third of that, so
 * preemption and re-prefill happen in every run.
 */
size_t
chatArenaPages(bool burst)
{
    return burst ? burstArenaPages
                 : chatMaxBatch * 2 * benchModel().nLayers *
                       KvPageArena::pagesForRows(chatPromptHi + chatGenHi,
                                                 pageRows);
}

/** chat_burst's requests, or chat_poisson's for @p seconds. */
ChatShape
chatShape(bool burst, double seconds)
{
    size_t requests = burst ? burstRequests
                            : std::max<long>(1, std::lround(
                                                    chatRatePerS * seconds));
    return {requests,  burst ? 0.0 : chatRatePerS,
            chatPromptLo, chatPromptHi,
            chatGenLo, chatGenHi,
            benchModel().vocab};
}

void
addLinearStats(const DecodeSession &s, double &quant_s, double &gemm_s,
               double &flops)
{
    for (const auto &st : s.layerStats()) {
        quant_s += st->quantizeSeconds();
        gemm_s += st->gemmSeconds();
        flops += 2.0 * static_cast<double>(st->rows.load()) *
                 static_cast<double>(st->inFeatures) *
                 static_cast<double>(st->outFeatures);
    }
}

/**
 * Single-sequence reference: greedy-decode @p prompt for @p max_new
 * tokens with the workload's codec and packed KV. Then run prompt
 * and generated tokens as one chunk with packed and with fp32 KV,
 * and accumulate the packed logits' squared error over every
 * position. Cached per key, so a traced pass reuses the untraced
 * pass's reference; the decode's call times and linear-layer time
 * are recorded in the cache.
 */
const ReferenceCache::Entry &
reference(const PassContext &ctx, const std::string &key,
          PackedCodec codec, const std::vector<int> &prompt,
          size_t max_new)
{
    auto it = ctx.refs->entries.find(key);
    if (it != ctx.refs->entries.end())
        return it->second;

    ReferenceCache &rc = *ctx.refs;
    auto &ss = rc.sessions[codec];
    if (!ss.packed) {
        ss.packed = std::make_unique<DecodeSession>(
            benchModel(), decodeConfig(codec, KvCacheMode::Packed));
        ss.exact = std::make_unique<DecodeSession>(
            benchModel(), decodeConfig(codec, KvCacheMode::Fp32));
    }
    DecodeSession &packed = *ss.packed, &exact = *ss.exact;
    double q0 = 0.0, g0 = 0.0, f0 = 0.0;
    addLinearStats(packed, q0, g0, f0);

    ReferenceCache::Entry e;
    size_t seq = packed.addSequence();
    uint64_t t0 = nowNs();
    Matrix logits = packed.prefill(seq, prompt);
    rc.prefillMs.push_back(ms(nowNs() - t0));
    e.tokens.push_back(argmaxRow(logits, logits.rows() - 1));
    while (e.tokens.size() < max_new) {
        int next = e.tokens.back();
        uint64_t s0 = nowNs();
        logits = packed.prefill(seq, {&next, 1});
        rc.stepMs.push_back(ms(nowNs() - s0));
        e.tokens.push_back(argmaxRow(logits, 0));
    }
    double q1 = 0.0, g1 = 0.0, f1 = 0.0;
    addLinearStats(packed, q1, g1, f1);
    rc.quantizeS += q1 - q0;
    rc.gemmS += g1 - g0;
    rc.gemmFlops += f1 - f0;

    std::vector<int> all(prompt);
    all.insert(all.end(), e.tokens.begin(), e.tokens.end() - 1);
    Matrix lp = packed.prefill(packed.addSequence(), all);
    Matrix lf = exact.prefill(exact.addSequence(), all);
    for (size_t i = 0; i < lf.size(); ++i) {
        double d = lp.data()[i] - lf.data()[i];
        e.err2 += d * d;
        e.ref2 += static_cast<double>(lf.data()[i]) * lf.data()[i];
    }
    return rc.entries.emplace(key, std::move(e)).first->second;
}

/** Relative RMS error of the packed logits over @p refs. */
double
relErr(const std::vector<const ReferenceCache::Entry *> &refs)
{
    double err2 = 0.0, ref2 = 0.0;
    for (const auto *e : refs) {
        err2 += e->err2;
        ref2 += e->ref2;
    }
    return ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0;
}

/**
 * Outputs that differ from the same inputs' first round: greedy
 * decoding must repeat exactly, so each difference is a failure.
 */
size_t
repeatMismatches(const std::vector<std::vector<int>> &first,
                 const std::vector<std::vector<int>> &again)
{
    size_t bad = 0;
    for (size_t i = 0; i < first.size(); ++i)
        bad += first[i] != again[i];
    return bad;
}

// ---------------------------------------------------------------
// Chat workloads: ServingEngine under open-loop or burst arrivals
// ---------------------------------------------------------------

/** Per-request driver bookkeeping. */
struct Track
{
    uint64_t dueNs = 0;
    uint64_t lastNs = 0; //!< last token (the finish, once done)
    double maxGapMs = 0.0;
    double ttftMs = -1.0;
    RequestState state = RequestState::Queued;
    size_t generated = 0;
    size_t preemptions = 0;
    uint64_t preemptedAtNs = 0;
};

struct ChatRound
{
    double wallS = 0.0;
    size_t tokens = 0;
};

/**
 * One round: submit @p reqs as they fall due (relative to the round
 * start) and step the engine until every request has finished.
 */
ChatRound
runChatRound(const PassContext &ctx, ServingEngine &eng,
             const std::vector<Request> &reqs, Observations &obs,
             std::vector<Track> &track)
{
    SpanRecorder *spans = ctx.spans;
    ScopedSpan round(spans, "round");
    const uint64_t t0 = nowNs();
    track.assign(reqs.size(), Track{});
    for (size_t i = 0; i < reqs.size(); ++i)
        track[i].dueNs =
            t0 + static_cast<uint64_t>(reqs[i].dueS * 1e9 + 0.5);

    size_t step_tokens = 0, step_fresh = 0;
    eng.onToken([&](size_t id, int, bool) {
        uint64_t t = nowNs();
        Track &tr = track[id];
        if (tr.ttftMs < 0.0) {
            tr.ttftMs = ms(t - tr.dueNs);
            obs.ttftMs.push_back(tr.ttftMs);
            ++step_fresh;
        } else {
            double gap = ms(t - tr.lastNs);
            obs.itlMs.push_back(gap);
            tr.maxGapMs = std::max(tr.maxGapMs, gap);
        }
        tr.lastNs = t;
        ++step_tokens;
    });

    std::vector<size_t> open; // submitted, not finished
    size_t next = 0;
    ChatRound out;
    while (next < reqs.size() || !open.empty()) {
        uint64_t now = nowNs();
        while (next < reqs.size() && track[next].dueNs <= now) {
            ScopedSpan sub(spans, "driver.submit", round.id(),
                           static_cast<int64_t>(next));
            eng.submit(reqs[next].prompt, reqs[next].maxNew);
            obs.lateMs.push_back(ms(sub.startNs() - track[next].dueNs));
            open.push_back(next++);
            now = nowNs();
        }
        if (open.empty()) {
            // Idle until the next arrival: an open loop keeps its
            // schedule whatever the engine does.
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                track[next].dueNs - now));
            continue;
        }

        step_tokens = step_fresh = 0;
        ScopedSpan sp(spans, "serving.step", round.id());
        eng.step();
        double step_ms = 1e3 * sp.close();
        obs.busyS += 1e-3 * step_ms;
        obs.stepMs.push_back(step_ms);

        size_t admitted = 0, w = 0;
        for (size_t id : open) {
            const RequestStats &st = eng.stats(id);
            Track &tr = track[id];
            if (tr.generated == 0 && st.generated > 0) {
                ++admitted;
                obs.freshPrefillTokens += reqs[id].prompt.size();
                obs.queueWaitMs.push_back(ms(sp.startNs() - tr.dueNs));
                if (spans)
                    spans->add("request.queued", tr.dueNs, sp.startNs(),
                               SpanRecorder::none,
                               static_cast<int64_t>(id));
            }
            bool resumed = tr.state == RequestState::Preempted &&
                           (st.state != RequestState::Preempted ||
                            st.preemptions > tr.preemptions);
            if (resumed) {
                ++admitted;
                obs.reprefillTokens +=
                    reqs[id].prompt.size() + tr.generated - 1;
                if (spans)
                    spans->add("request.preempted", tr.preemptedAtNs,
                               sp.startNs(), SpanRecorder::none,
                               static_cast<int64_t>(id));
            }
            if (st.preemptions > tr.preemptions) {
                obs.preemptions += st.preemptions - tr.preemptions;
                tr.preemptedAtNs = nowNs();
            }
            tr.state = st.state;
            tr.generated = st.generated;
            tr.preemptions = st.preemptions;
            if (st.state == RequestState::Finished) {
                out.tokens += st.generated;
                if (spans)
                    spans->add("request", tr.dueNs, tr.lastNs,
                               SpanRecorder::none,
                               static_cast<int64_t>(id));
            } else {
                open[w++] = id;
            }
        }
        open.resize(w);
        (admitted ? obs.admitStepMs : obs.decodeStepMs)
            .push_back(step_ms);
        if (step_tokens > step_fresh)
            obs.batchRows.push_back(
                static_cast<double>(step_tokens - step_fresh));
    }
    eng.onToken(nullptr);
    out.wallS = round.close();
    return out;
}

void
runChat(const PassContext &ctx, bool burst, Observations &obs)
{
    model::ModelConfig mc = benchModel();
    std::vector<Request> reqs = makeChat(chatShape(burst, ctx.seconds),
                                         streamSeed(ctx.seed, streamChat));

    std::vector<double> round_tps;
    std::vector<Track> track;
    std::vector<std::vector<int>> first_out, out(reqs.size());
    std::unique_ptr<ServingEngine> eng;
    double occ_sum = 0.0, elapsed = 0.0;
    size_t rounds = 0, slo_met = 0;
    // chat_poisson is one round whose arrivals span the window;
    // chat_burst repeats the burst while a further round still fits.
    do {
        eng = std::make_unique<ServingEngine>(
            mc, chatConfig(chatArenaPages(burst)));
        ChatRound r = runChatRound(ctx, *eng, reqs, obs, track);
        obs.generated += r.tokens;
        elapsed += r.wallS;
        ++rounds;
        round_tps.push_back(static_cast<double>(r.tokens) / r.wallS);
        std::printf("round %zu: %.1f tok/s\n", rounds - 1,
                    round_tps.back());
        obs.attendS += eng->attendSeconds();
        occ_sum += eng->occupancyMean();
        obs.occupancyPeak =
            std::max(obs.occupancyPeak, eng->occupancyPeak());
        obs.highWaterPages = std::max(obs.highWaterPages,
                                      eng->arena().highWaterPages());
        obs.residentMb = std::max(
            obs.residentMb,
            1e-6 * static_cast<double>(eng->arena().residentBytes()));
        obs.attempted += reqs.size();
        for (size_t i = 0; i < reqs.size(); ++i) {
            bool ok = eng->stats(i).state == RequestState::Finished &&
                      eng->generated(i).size() == reqs[i].maxNew;
            obs.failed += !ok;
            slo_met += ok && track[i].ttftMs <= sloTtftMs &&
                       track[i].maxGapMs <= sloGapMs;
            out[i] = eng->generated(i);
        }
        if (first_out.empty())
            first_out = out;
        else
            obs.failed += repeatMismatches(first_out, out);
    } while (burst &&
             elapsed + elapsed / static_cast<double>(rounds) <=
                 ctx.seconds);
    obs.tokensPerS = median(round_tps);
    obs.tokensPerSSamples = round_tps.size();
    obs.occupancyMean = occ_sum / static_cast<double>(rounds);
    obs.kvBytesPerToken =
        2.0 * mc.nLayers * static_cast<double>(eng->arena().pageBytes()) /
        static_cast<double>(pageRows);

    obs.sloFrac = static_cast<double>(slo_met) /
                  static_cast<double>(obs.attempted);

    obs.decodeRows = static_cast<size_t>(std::lround(median(obs.batchRows)));
    std::vector<double> plens;
    for (const Request &r : reqs)
        plens.push_back(static_cast<double>(r.prompt.size()));
    obs.prefillRows = static_cast<size_t>(std::lround(median(plens)));

    obs.peakRssMb = peakRssMb();
    // Output check on the last round: a seeded sample of requests
    // against single-sequence references.
    ScopedSpan chk(ctx.spans, "check");
    std::vector<const ReferenceCache::Entry *> checked;
    for (size_t id : sampleIndices(reqs.size(), chatChecked,
                                   streamSeed(ctx.seed, streamCheck))) {
        const auto &ref = reference(
            ctx, ctx.workload + "/" + std::to_string(id),
            PackedCodec::ElemEm, reqs[id].prompt, reqs[id].maxNew);
        if (eng->generated(id) != ref.tokens) {
            std::printf("MISMATCH: %s request %zu differs from its "
                        "single-sequence reference\n",
                        ctx.workload.c_str(), id);
            ++obs.failed;
        }
        checked.push_back(&ref);
    }
    obs.logitRelErr = relErr(checked);
}

// ---------------------------------------------------------------
// DecodeSession workloads: fixed batches, prefill then decode
// ---------------------------------------------------------------

struct DecodeRound
{
    double wallS = 0.0;
    double decodeS = 0.0;
    size_t tokens = 0;
    std::vector<std::vector<int>> out; //!< generated, per sequence
};

DecodeRound
runDecodeRound(const PassContext &ctx, PackedCodec codec,
               const std::vector<std::vector<int>> &prompts,
               size_t decode_steps, Observations &obs)
{
    SpanRecorder *spans = ctx.spans;
    model::ModelConfig mc = benchModel();
    DecodeSession s(mc, decodeConfig(codec, KvCacheMode::Packed));
    for (size_t i = 0; i < prompts.size(); ++i)
        s.addSequence();
    double occ_sum = 0.0;
    size_t occ_n = 0;
    auto sampleArena = [&] {
        double occ = s.arena().occupancy();
        occ_sum += occ;
        ++occ_n;
        obs.occupancyPeak = std::max(obs.occupancyPeak, occ);
    };

    DecodeRound r;
    r.out.resize(prompts.size());
    ScopedSpan round(spans, "round");
    const uint64_t t0 = round.startNs();
    uint64_t last_end = t0;
    for (size_t i = 0; i < prompts.size(); ++i) {
        ScopedSpan sp(spans, "decode_session.prefill", round.id(),
                      static_cast<int64_t>(i));
        obs.lateMs.push_back(ms(sp.startNs() - last_end));
        obs.queueWaitMs.push_back(ms(sp.startNs() - t0));
        Matrix logits = s.prefill(i, prompts[i]);
        double step_ms = 1e3 * sp.close();
        r.out[i].push_back(argmaxRow(logits, logits.rows() - 1));
        last_end = nowNs();
        obs.ttftMs.push_back(ms(last_end - t0));
        obs.stepMs.push_back(step_ms);
        obs.admitStepMs.push_back(step_ms);
        obs.prefillMsPerSeq.push_back(step_ms);
        obs.freshPrefillTokens += prompts[i].size();
        sampleArena();
    }
    std::vector<int> next(prompts.size());
    uint64_t d0 = nowNs();
    for (size_t step = 0; step < decode_steps; ++step) {
        for (size_t i = 0; i < prompts.size(); ++i)
            next[i] = r.out[i].back();
        ScopedSpan sp(spans, "decode_session.decode", round.id());
        obs.lateMs.push_back(ms(sp.startNs() - last_end));
        Matrix logits = s.decode(next);
        double step_ms = 1e3 * sp.close();
        for (size_t i = 0; i < prompts.size(); ++i)
            r.out[i].push_back(argmaxRow(logits, i));
        last_end = nowNs();
        // Every sequence of the batch receives its token when the
        // step returns: one inter-token gap sample per step.
        obs.itlMs.push_back(step_ms);
        obs.stepMs.push_back(step_ms);
        obs.decodeStepMs.push_back(step_ms);
        obs.sessionStepMs.push_back(step_ms);
        obs.batchRows.push_back(static_cast<double>(prompts.size()));
        sampleArena();
    }
    r.decodeS = 1e-9 * static_cast<double>(last_end - d0);
    r.wallS = round.close();
    r.tokens = prompts.size() * (decode_steps + 1);
    obs.generated += r.tokens;

    obs.busyS += r.wallS;
    obs.attendS += s.attendSeconds();
    obs.linearExact = true;
    addLinearStats(s, obs.quantizeS, obs.gemmS, obs.gemmFlops);
    obs.occupancyMean = occ_sum / static_cast<double>(occ_n);
    obs.highWaterPages =
        std::max(obs.highWaterPages, s.arena().highWaterPages());
    obs.residentMb =
        std::max(obs.residentMb,
                 1e-6 * static_cast<double>(s.arena().residentBytes()));
    obs.kvBytesPerToken = 2.0 * mc.nLayers *
                          static_cast<double>(s.arena().pageBytes()) /
                          static_cast<double>(pageRows);
    obs.attempted += prompts.size();
    return r;
}

/** Check one seeded sequence of @p r against its reference. */
void
checkDecodeRound(const PassContext &ctx, PackedCodec codec,
                 const std::vector<std::vector<int>> &prompts,
                 size_t decode_steps, const DecodeRound &r,
                 Observations &obs,
                 std::vector<const ReferenceCache::Entry *> &checked)
{
    size_t seq = sampleIndices(prompts.size(), 1,
                               streamSeed(ctx.seed, streamCheck))[0];
    const auto &ref = reference(
        ctx, ctx.workload + "/" + packedCodecName(codec), codec,
        prompts[seq], decode_steps + 1);
    for (size_t i = 0; i < r.out.size(); ++i)
        if (r.out[i].size() != decode_steps + 1)
            ++obs.failed;
    if (r.out[seq] != ref.tokens) {
        std::printf("MISMATCH: %s/%s sequence %zu differs from its "
                    "single-sequence reference\n",
                    ctx.workload.c_str(), packedCodecName(codec), seq);
        ++obs.failed;
    }
    checked.push_back(&ref);
}

void
runLongContext(const PassContext &ctx, Observations &obs)
{
    auto prompts = makePrompts(longBatch, longPrompt, benchModel().vocab,
                               streamSeed(ctx.seed, streamPrompts));
    std::vector<double> tps;
    double elapsed = 0.0;
    DecodeRound first, r;
    do {
        r = runDecodeRound(ctx, PackedCodec::ElemEm, prompts,
                           longDecode, obs);
        if (tps.empty())
            first = r;
        else
            obs.failed += repeatMismatches(first.out, r.out);
        elapsed += r.wallS;
        tps.push_back(static_cast<double>(r.tokens) / r.wallS);
        std::printf("round %zu: %.1f tok/s (decode %.1f tok/s)\n",
                    tps.size() - 1, tps.back(),
                    static_cast<double>(longBatch * longDecode) /
                        r.decodeS);
    } while (elapsed + elapsed / static_cast<double>(tps.size()) <=
             ctx.seconds);
    obs.tokensPerS = median(tps);
    obs.tokensPerSSamples = tps.size();
    obs.decodeRows = longBatch;
    obs.prefillRows = longPrompt;
    obs.peakRssMb = peakRssMb();

    ScopedSpan chk(ctx.spans, "check");
    std::vector<const ReferenceCache::Entry *> checked;
    checkDecodeRound(ctx, PackedCodec::ElemEm, prompts, longDecode, r,
                     obs, checked);
    obs.logitRelErr = relErr(checked);
}

void
runCodecDecode(const PassContext &ctx, Observations &obs)
{
    auto prompts = makePrompts(codecBatch, codecPrompt,
                               benchModel().vocab,
                               streamSeed(ctx.seed, streamPrompts));
    constexpr size_t n_codecs = std::size(genericCodecs);
    std::vector<double> tps[n_codecs];
    DecodeRound first[n_codecs], last[n_codecs];
    obs.ttftByCodec.resize(n_codecs);
    obs.itlByCodec.resize(n_codecs);
    double elapsed = 0.0;
    size_t cycles = 0;
    // Interleave the codecs round by round so drift on the host
    // lands on all of them alike; each codec runs the same rounds.
    do {
        for (size_t c = 0; c < n_codecs; ++c) {
            size_t n_ttft = obs.ttftMs.size(), n_itl = obs.itlMs.size();
            last[c] = runDecodeRound(ctx, genericCodecs[c], prompts,
                                     codecDecode, obs);
            if (cycles == 0)
                first[c] = last[c];
            else
                obs.failed += repeatMismatches(first[c].out, last[c].out);
            obs.ttftByCodec[c].insert(obs.ttftByCodec[c].end(),
                                      obs.ttftMs.begin() + n_ttft,
                                      obs.ttftMs.end());
            obs.itlByCodec[c].insert(obs.itlByCodec[c].end(),
                                     obs.itlMs.begin() + n_itl,
                                     obs.itlMs.end());
            elapsed += last[c].wallS;
            tps[c].push_back(static_cast<double>(last[c].tokens) /
                             last[c].wallS);
            std::printf("round %zu %s: %.1f tok/s\n", cycles,
                        packedCodecName(genericCodecs[c]),
                        tps[c].back());
        }
        ++cycles;
    } while (elapsed + elapsed / static_cast<double>(cycles) <=
             ctx.seconds);

    double log_sum = 0.0;
    for (size_t c = 0; c < n_codecs; ++c) {
        double m = median(tps[c]);
        obs.perCodecTokensPerS.emplace_back(
            packedCodecName(genericCodecs[c]), m);
        log_sum += std::log(m);
    }
    obs.tokensPerS = std::exp(log_sum / static_cast<double>(n_codecs));
    obs.tokensPerSSamples = cycles * n_codecs;
    obs.decodeRows = codecBatch;
    obs.prefillRows = codecPrompt;
    obs.peakRssMb = peakRssMb();

    ScopedSpan chk(ctx.spans, "check");
    std::vector<const ReferenceCache::Entry *> checked;
    for (size_t c = 0; c < n_codecs; ++c)
        checkDecodeRound(ctx, genericCodecs[c], prompts, codecDecode,
                         last[c], obs, checked);
    obs.logitRelErr = relErr(checked);
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "chat_poisson", "chat_burst", "long_context", "codec_decode"};
    return names;
}

model::ModelConfig
benchModel()
{
    return model::llama2_7b();
}

void
runWorkload(const PassContext &ctx, Observations &obs)
{
    if (ctx.workload == "chat_poisson")
        runChat(ctx, false, obs);
    else if (ctx.workload == "chat_burst")
        runChat(ctx, true, obs);
    else if (ctx.workload == "long_context")
        runLongContext(ctx, obs);
    else
        runCodecDecode(ctx, obs);
}

double
setupOnce(const std::string &workload, uint64_t seed, double seconds)
{
    model::ModelConfig mc = benchModel();
    uint64_t t0 = nowNs();
    if (workload == "chat_poisson" || workload == "chat_burst") {
        bool burst = workload == "chat_burst";
        auto reqs = makeChat(chatShape(burst, seconds),
                             streamSeed(seed, streamChat));
        ServingEngine eng(mc, chatConfig(chatArenaPages(burst)));
    } else if (workload == "long_context") {
        auto prompts = makePrompts(longBatch, longPrompt, mc.vocab,
                                   streamSeed(seed, streamPrompts));
        DecodeSession s(mc, decodeConfig(PackedCodec::ElemEm,
                                         KvCacheMode::Packed));
        for (size_t i = 0; i < longBatch; ++i)
            s.addSequence();
    } else {
        auto prompts = makePrompts(codecBatch, codecPrompt, mc.vocab,
                                   streamSeed(seed, streamPrompts));
        for (PackedCodec c : genericCodecs) {
            DecodeSession s(mc, decodeConfig(c, KvCacheMode::Packed));
            for (size_t i = 0; i < codecBatch; ++i)
                s.addSequence();
        }
    }
    return 1e-9 * static_cast<double>(nowNs() - t0);
}

std::vector<std::pair<size_t, size_t>>
linearShapes()
{
    DecodeSession s(benchModel(),
                    decodeConfig(PackedCodec::ElemEm, KvCacheMode::Packed));
    std::vector<std::pair<size_t, size_t>> shapes;
    for (const auto &st : s.layerStats())
        shapes.emplace_back(st->inFeatures, st->outFeatures);
    return shapes;
}

} // namespace perfbench
