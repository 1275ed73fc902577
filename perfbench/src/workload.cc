#include "workload.hh"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t
SeedRng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
SeedRng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
SeedRng::between(size_t lo, size_t hi)
{
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<size_t>(next() % span);
}

uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    SeedRng r(seed ^ (0xd1b54a32d192ed03ull * (stream + 1)));
    return r.next();
}

namespace {

/** Requests per stratified block (about 1 s of chat_poisson). */
constexpr size_t strataBlock = 20;

/**
 * @p n block-stratified uniforms: each block of strataBlock
 * consecutive values holds one draw from each of its equal strata of
 * [0, 1), in a seeded random order. Every seed, and every second of
 * the stream, gets nearly the same empirical distribution, in a
 * different order.
 */
std::vector<double>
stratified(size_t n, SeedRng &r)
{
    std::vector<double> u(n);
    for (size_t b0 = 0; b0 < n; b0 += strataBlock) {
        size_t m = std::min(strataBlock, n - b0);
        std::vector<size_t> perm(m);
        for (size_t i = 0; i < m; ++i)
            perm[i] = i;
        for (size_t i = m; i > 1; --i)
            std::swap(perm[i - 1], perm[r.between(0, i - 1)]);
        for (size_t i = 0; i < m; ++i)
            u[b0 + i] = (static_cast<double>(perm[i]) + r.uniform()) /
                        static_cast<double>(m);
    }
    return u;
}

size_t
uniformLength(double u, size_t lo, size_t hi)
{
    return std::min(hi, lo + static_cast<size_t>(
                                 u * static_cast<double>(hi - lo + 1)));
}

} // anonymous namespace

std::vector<Request>
makeChat(const ChatShape &shape, uint64_t seed)
{
    const size_t n = shape.requests;
    SeedRng r(seed);
    std::vector<double> gap = stratified(n, r);
    std::vector<double> plen = stratified(n, r);
    std::vector<double> glen = stratified(n, r);
    std::vector<Request> out(n);
    double at = 0.0;
    for (size_t i = 0; i < n; ++i) {
        if (shape.ratePerS > 0.0) {
            at += -std::log(1.0 - gap[i]) / shape.ratePerS;
            out[i].dueS = at;
        }
        out[i].prompt.resize(
            uniformLength(plen[i], shape.promptLo, shape.promptHi));
        SeedRng tok(streamSeed(seed, i));
        for (int &t : out[i].prompt)
            t = static_cast<int>(tok.between(0, shape.vocab - 1));
        out[i].maxNew = uniformLength(glen[i], shape.genLo, shape.genHi);
    }
    return out;
}

std::vector<std::vector<int>>
makePrompts(size_t n, size_t len, unsigned vocab, uint64_t seed)
{
    std::vector<std::vector<int>> out(n, std::vector<int>(len));
    for (size_t i = 0; i < n; ++i) {
        SeedRng r(streamSeed(seed, i));
        for (int &t : out[i])
            t = static_cast<int>(r.between(0, vocab - 1));
    }
    return out;
}

std::vector<size_t>
sampleIndices(size_t n, size_t k, uint64_t seed)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    SeedRng r(seed);
    k = std::min(k, n);
    for (size_t i = 0; i < k; ++i)
        std::swap(idx[i], idx[r.between(i, n - 1)]);
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

} // namespace perfbench
