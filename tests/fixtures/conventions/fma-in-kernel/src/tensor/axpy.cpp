#include <cmath>

float
axpy(float alpha, float x, float y)
{
    return std::fma(alpha, x, y);
}
