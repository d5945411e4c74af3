#include "autodiff/adam.hpp"

#include <cmath>

#include "tensor/kernels_avx2.hpp"
#include "tensor/simd.hpp"

namespace smoothe::ad {

Adam::Adam(std::vector<Param*> params, AdamConfig config, Arena* arena)
    : params_(std::move(params)), config_(config)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (const Param* p : params_) {
        m_.emplace_back(p->value.rows(), p->value.cols(), arena);
        v_.emplace_back(p->value.rows(), p->value.cols(), arena);
    }
}

void
Adam::zeroGrad()
{
    for (Param* p : params_)
        p->zeroGrad();
}

void
Adam::step()
{
    ++step_;
    const float correction1 =
        1.0f - std::pow(config_.beta1, static_cast<float>(step_));
    const float correction2 =
        1.0f - std::pow(config_.beta2, static_cast<float>(step_));
    const bool useAvx2 = tensor::simd::avx2Active();
    for (std::size_t p = 0; p < params_.size(); ++p) {
        float* __restrict w = params_[p]->value.data();
        const float* __restrict gr = params_[p]->grad.data();
        float* __restrict m = m_[p].data();
        float* __restrict v = v_[p].data();
        const std::size_t n = params_[p]->value.size();
        if (useAvx2) {
            // Same rounded operations in the same order, 8 at a time.
            tensor::avx2::adamStep({config_.beta1, config_.beta2,
                                    config_.lr, config_.epsilon,
                                    correction1, correction2},
                                   gr, w, m, v, n);
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            m[i] = config_.beta1 * m[i] + (1.0f - config_.beta1) * gr[i];
            v[i] = config_.beta2 * v[i] +
                   (1.0f - config_.beta2) * gr[i] * gr[i];
            const float mHat = m[i] / correction1;
            const float vHat = v[i] / correction2;
            w[i] -= config_.lr * mHat /
                    (std::sqrt(vHat) + config_.epsilon);
        }
    }
}

} // namespace smoothe::ad
