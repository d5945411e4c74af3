#include "obs/obs.hpp"

void
scaleInto(const float* x, float alpha, float* out, int n)
{
    smoothe::obs::counter("kernel.scale.calls").add(1);
    for (int i = 0; i < n; ++i)
        out[i] = alpha * x[i];
}
