#include "tensor/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace smoothe::tensor::simd {

namespace {

/** One-time cpuid probe. __builtin_cpu_supports covers gcc and clang;
 *  non-x86 targets simply never report AVX2. */
Level
probeDetectedLevel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

/** Resolves SMOOTHE_SIMD against the detected level (first call only;
 *  later reads hit the cached atomic in activeLevel()). */
Level
resolveInitialLevel()
{
    const Level detected = probeDetectedLevel();
    const char* env = std::getenv("SMOOTHE_SIMD");
    if (env == nullptr || std::strcmp(env, "auto") == 0)
        return detected;
    if (std::strcmp(env, "scalar") == 0)
        return Level::Scalar;
    if (std::strcmp(env, "avx2") == 0) {
        if (detected == Level::Avx2)
            return Level::Avx2;
        std::fprintf(stderr, "smoothe: SMOOTHE_SIMD=avx2 requested but the "
                             "CPU lacks AVX2; falling back to scalar "
                             "kernels\n");
        return Level::Scalar;
    }
    std::fprintf(stderr, "smoothe: unknown SMOOTHE_SIMD value '%s' "
                         "(expected scalar, avx2, or auto); using auto\n",
                 env);
    return detected;
}

std::atomic<Level>&
levelCache()
{
    static std::atomic<Level> level{resolveInitialLevel()};
    return level;
}

} // namespace

Level
detectedLevel()
{
    static const Level detected = probeDetectedLevel();
    return detected;
}

Level
activeLevel()
{
    return levelCache().load(std::memory_order_relaxed);
}

void
setLevel(Level level)
{
    if (level > detectedLevel())
        level = detectedLevel();
    levelCache().store(level, std::memory_order_relaxed);
}

const char*
levelName(Level level)
{
    switch (level) {
      case Level::Scalar:
        return "scalar";
      case Level::Avx2:
        return "avx2";
    }
    return "unknown";
}

const char*
kernelSuffix()
{
    return avx2Active() ? "@avx2" : "";
}

} // namespace smoothe::tensor::simd
