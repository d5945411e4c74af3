#include <cstddef>

void
scaleInto(const float* x, float alpha, float* out, std::size_t n)
{
    smoothe::obs::counter("kernel.scale.calls").add(1);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = alpha * x[i];
}
