/**
 * @file
 * Generator determinism: the same seed gives identical arrivals,
 * prompts and lengths; a different seed does not. Run through ctest
 * in the benchmark's build tree (see ../README.md).
 */

#include <cstdio>
#include <cstdlib>

#include "workload.hh"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
same(const std::vector<perfbench::Request> &a,
     const std::vector<perfbench::Request> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].dueS != b[i].dueS || a[i].prompt != b[i].prompt ||
            a[i].maxNew != b[i].maxNew)
            return false;
    return true;
}

} // anonymous namespace

int
main()
{
    using namespace perfbench;
    const ChatShape poisson{300, 20.0, 48, 192, 16, 64, 512};
    ChatShape burst = poisson;
    burst.requests = 200;
    burst.ratePerS = 0.0;

    auto a = makeChat(poisson, 7);
    check(same(a, makeChat(poisson, 7)), "same seed, same stream");
    check(!same(a, makeChat(poisson, 8)), "other seed, other stream");

    bool arrivals_differ = false, prompts_differ = false,
         lengths_differ = false;
    auto b = makeChat(poisson, 8);
    for (size_t i = 0; i < a.size(); ++i) {
        arrivals_differ |= a[i].dueS != b[i].dueS;
        prompts_differ |= a[i].prompt != b[i].prompt;
        lengths_differ |= a[i].maxNew != b[i].maxNew;
    }
    check(arrivals_differ && prompts_differ && lengths_differ,
          "other seed changes arrivals, prompts and lengths");

    double last = 0.0;
    bool in_shape = true, ordered = true;
    for (const Request &r : a) {
        ordered &= r.dueS > last;
        last = r.dueS;
        in_shape &= r.prompt.size() >= 48 && r.prompt.size() <= 192 &&
                    r.maxNew >= 16 && r.maxNew <= 64;
        for (int t : r.prompt)
            in_shape &= t >= 0 && t < 512;
    }
    check(ordered, "arrivals strictly increase");
    check(in_shape, "lengths and token ids within the shape");
    // 300 arrivals at 20/s span about 15 s.
    check(last > 11.0 && last < 19.0, "arrival span matches the rate");

    auto c = makeChat(burst, 7);
    ChatShape paced = burst;
    paced.ratePerS = 20.0;
    auto d = makeChat(paced, 7);
    bool burst_matches = true;
    for (size_t i = 0; i < c.size(); ++i)
        burst_matches &= c[i].dueS == 0.0 && d[i].dueS > 0.0 &&
                         c[i].prompt == d[i].prompt &&
                         c[i].maxNew == d[i].maxNew;
    check(burst_matches, "a burst carries the paced requests at t=0");

    auto p = makePrompts(8, 2048, 512, 3);
    check(p == makePrompts(8, 2048, 512, 3), "prompts repeat per seed");
    check(p != makePrompts(8, 2048, 512, 4), "prompts vary by seed");

    auto s = sampleIndices(300, 8, 5);
    check(s == sampleIndices(300, 8, 5), "sample repeats per seed");
    check(s != sampleIndices(300, 8, 6), "sample varies by seed");
    check(s.size() == 8 && s.back() < 300, "sample size and range");

    if (failures == 0)
        std::printf("generator_test: all checks passed\n");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
