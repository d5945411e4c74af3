/**
 * @file
 * Adam optimizer over autodiff Params (Kingma & Ba), used both for
 * SmoothE's theta optimization and for MLP cost-model training.
 */

#ifndef SMOOTHE_AUTODIFF_ADAM_HPP
#define SMOOTHE_AUTODIFF_ADAM_HPP

#include <vector>

#include "autodiff/tape.hpp"

namespace smoothe::ad {

/** Adam hyper-parameters. */
struct AdamConfig
{
    float lr = 0.05f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float epsilon = 1e-8f;
};

/** Standard Adam with bias correction. */
class Adam
{
  public:
    Adam(std::vector<Param*> params, AdamConfig config,
         Arena* arena = nullptr);

    /** Zeroes all parameter gradients. */
    void zeroGrad();

    /** Applies one update from the accumulated gradients. */
    void step();

    float learningRate() const { return config_.lr; }

    /**
     * Optimizer-state access for warm starts: a caller resuming
     * optimization on a grown parameter remaps the first/second moments
     * element-wise; the bias-correction step count stays with this
     * optimizer, so the carried moments keep their calibration.
     */
    Tensor& moment1(std::size_t param) { return m_[param]; }
    Tensor& moment2(std::size_t param) { return v_[param]; }
    const Tensor& moment1(std::size_t param) const { return m_[param]; }
    const Tensor& moment2(std::size_t param) const { return v_[param]; }

  private:
    std::vector<Param*> params_;
    AdamConfig config_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
    long step_ = 0;
};

} // namespace smoothe::ad

#endif // SMOOTHE_AUTODIFF_ADAM_HPP
