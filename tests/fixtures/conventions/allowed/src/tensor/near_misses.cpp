/**
 * @file
 * Text that mentions every rule without breaking one: assert(x),
 * rand(), time(nullptr) and std::fma(a, b, c) in a doc comment.
 */

#include <thread>

#include "check/contracts.hpp"
#include "util/rng.hpp"

// A plain comment may say std::thread, srand(7), FP_CONTRACT or
// obs::counter("kernel.x.calls") too.
template <typename Clock>
float
scaledDraw(smoothe::util::Rng& rng, const Clock& clock, const Clock* lap)
{
    static_assert(sizeof(float) == 4, "IEEE single precision");
    SMOOTHE_ASSERT(lap != nullptr, "lap clock required");
    std::this_thread::yield();
    const double elapsed = clock.time() + lap->time(); // not time()
    const float fmadd_count = 2.0f;
    return static_cast<float>(rng.uniform(0.0, elapsed)) * fmadd_count;
}
