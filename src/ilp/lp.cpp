#include "ilp/lp.hpp"

#include <algorithm>
#include <cmath>

#include "check/contracts.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace smoothe::ilp {

std::size_t
LinearProgram::addVariable(double objective, double upper)
{
    objective_.push_back(objective);
    upper_.push_back(upper);
    return objective_.size() - 1;
}

std::size_t
LinearProgram::addConstraint(Constraint constraint)
{
    constraints_.push_back(std::move(constraint));
    return constraints_.size() - 1;
}

namespace {

/** Pivot tolerance: smaller magnitudes count as zero. */
constexpr double kTolerance = 1e-9;

/**
 * Dense two-phase simplex on the tableau
 *   [ A | I_slack/artificial | b ]
 * Rows are equalities after slack/surplus insertion. Phase 1 minimizes the
 * artificial sum; phase 2 minimizes the real objective. Bland's rule
 * guarantees termination.
 */
class Tableau
{
  public:
    Tableau(const LinearProgram& lp, const SimplexOptions& options)
        : options_(options)
    {
        // Expand upper bounds into explicit x_j <= u_j rows.
        std::vector<Constraint> rows = lp.constraints();
        for (std::size_t j = 0; j < lp.numVariables(); ++j) {
            if (lp.upperBounds()[j] != LinearProgram::kUnbounded) {
                Constraint c;
                c.terms.emplace_back(j, 1.0);
                c.sense = Sense::LessEqual;
                c.rhs = lp.upperBounds()[j];
                rows.push_back(std::move(c));
            }
        }

        numStructural_ = lp.numVariables();
        const std::size_t m = rows.size();

        // Count slacks and artificials.
        std::size_t slackCount = 0;
        for (const Constraint& row : rows) {
            if (row.sense != Sense::Equal)
                ++slackCount;
        }
        numSlack_ = slackCount;
        numArtificial_ = m; // worst case; unused ones stay nonbasic
        cols_ = numStructural_ + numSlack_ + numArtificial_ + 1;
        rowsCount_ = m;

        tableau_.assign(m * cols_, 0.0);
        basis_.assign(m, 0);

        std::size_t slackAt = numStructural_;
        const std::size_t artBase = numStructural_ + numSlack_;
        artificialUsed_.assign(m, false);
        for (std::size_t i = 0; i < m; ++i) {
            Constraint row = rows[i];
            double rhs = row.rhs;
            // Normalize to rhs >= 0 by negating the row when needed.
            double sign = 1.0;
            if (rhs < 0.0) {
                sign = -1.0;
                rhs = -rhs;
                if (row.sense == Sense::LessEqual)
                    row.sense = Sense::GreaterEqual;
                else if (row.sense == Sense::GreaterEqual)
                    row.sense = Sense::LessEqual;
            }
            for (const auto& [var, coeff] : row.terms)
                at(i, var) += sign * coeff;
            at(i, cols_ - 1) = rhs;

            if (row.sense == Sense::LessEqual) {
                at(i, slackAt) = 1.0;
                basis_[i] = slackAt;
                ++slackAt;
            } else if (row.sense == Sense::GreaterEqual) {
                at(i, slackAt) = -1.0;
                ++slackAt;
                at(i, artBase + i) = 1.0;
                basis_[i] = artBase + i;
                artificialUsed_[i] = true;
            } else {
                at(i, artBase + i) = 1.0;
                basis_[i] = artBase + i;
                artificialUsed_[i] = true;
            }
        }
    }

    LpResult
    solve(const std::vector<double>& objective)
    {
        LpResult result;

        // Phase 1: minimize sum of artificials.
        bool needPhase1 = false;
        for (bool used : artificialUsed_)
            needPhase1 = needPhase1 || used;
        if (needPhase1) {
            std::vector<double> phase1(cols_ - 1, 0.0);
            const std::size_t artBase = numStructural_ + numSlack_;
            for (std::size_t i = 0; i < rowsCount_; ++i) {
                if (artificialUsed_[i])
                    phase1[artBase + i] = 1.0;
            }
            const LpStatus status = optimize(phase1, /*phase1=*/true);
            if (status == LpStatus::IterationLimit) {
                result.status = status;
                return result;
            }
            // Infeasible when artificials cannot be driven to zero.
            double artValue = 0.0;
            for (std::size_t i = 0; i < rowsCount_; ++i) {
                if (basis_[i] >= artBase)
                    artValue += at(i, cols_ - 1);
            }
            if (artValue > 1e-7) {
                result.status = LpStatus::Infeasible;
                return result;
            }
            // Drive remaining basic artificials out of the basis.
            for (std::size_t i = 0; i < rowsCount_; ++i) {
                if (basis_[i] < artBase)
                    continue;
                bool pivoted = false;
                for (std::size_t j = 0; j < artBase && !pivoted; ++j) {
                    if (std::fabs(at(i, j)) > kTolerance) {
                        pivot(i, j);
                        pivoted = true;
                    }
                }
                // A fully zero row is redundant; leave the artificial
                // basic at value zero (harmless).
            }
        }

        // Phase 2: real objective (artificial columns are frozen out).
        std::vector<double> phase2(cols_ - 1, 0.0);
        for (std::size_t j = 0;
             j < objective.size() && j < numStructural_; ++j)
            phase2[j] = objective[j];
        const LpStatus status = optimize(phase2, /*phase1=*/false);
        result.status = status;
        if (status != LpStatus::Optimal)
            return result;

        result.values.assign(numStructural_, 0.0);
        for (std::size_t i = 0; i < rowsCount_; ++i) {
            if (basis_[i] < numStructural_)
                result.values[basis_[i]] = at(i, cols_ - 1);
        }
        result.objective = 0.0;
        for (std::size_t j = 0; j < numStructural_; ++j)
            result.objective += phase2[j] * result.values[j];
        return result;
    }

  private:
    double& at(std::size_t r, std::size_t c)
    {
        return tableau_[r * cols_ + c];
    }

    void
    pivot(std::size_t pivotRow, std::size_t pivotCol)
    {
        // Each pivot rewrites the whole O(rows x cols) tableau, so one
        // relaxed add per call is noise by comparison.
        static obs::Counter& pivots = obs::counter("ilp.simplex_pivots");
        pivots.add(1);
        const double pivotValue = at(pivotRow, pivotCol);
        SMOOTHE_DCHECK(std::fabs(pivotValue) > 0.0, "degenerate simplex pivot");
        const double inv = 1.0 / pivotValue;
        for (std::size_t j = 0; j < cols_; ++j)
            at(pivotRow, j) *= inv;
        for (std::size_t i = 0; i < rowsCount_; ++i) {
            if (i == pivotRow)
                continue;
            const double factor = at(i, pivotCol);
            if (std::fabs(factor) <= kTolerance * 1e-3)
                continue;
            for (std::size_t j = 0; j < cols_; ++j)
                at(i, j) -= factor * at(pivotRow, j);
        }
        basis_[pivotRow] = pivotCol;
    }

    /** Runs simplex iterations for the given objective. */
    LpStatus
    optimize(const std::vector<double>& objective, bool phase1)
    {
        const util::Deadline deadline(options_.timeLimitSeconds);
        const std::size_t artBase = numStructural_ + numSlack_;
        // Reduced costs are recomputed per iteration from the objective
        // and basis (slower than maintaining an objective row, but simple
        // and numerically self-correcting).
        for (std::size_t iter = 0; iter < options_.maxIterations; ++iter) {
            if ((iter & 63u) == 0 && deadline.expired())
                return LpStatus::IterationLimit;
            // Compute simplex multipliers implicitly via reduced costs:
            // rc_j = c_j - c_B^T B^{-1} A_j. With a full tableau, B^{-1}A
            // is the tableau itself, so rc_j = c_j - sum_i c_basis(i) *
            // tableau[i][j].
            std::size_t entering = cols_; // none
            const std::size_t limit = phase1 ? cols_ - 1 : artBase;
            for (std::size_t j = 0; j < limit; ++j) {
                double rc = j < objective.size() ? objective[j] : 0.0;
                for (std::size_t i = 0; i < rowsCount_; ++i) {
                    const double coeff = at(i, j);
                    if (coeff == 0.0)
                        continue;
                    const std::size_t bj = basis_[i];
                    const double cb =
                        bj < objective.size() ? objective[bj] : 0.0;
                    if (cb != 0.0)
                        rc -= cb * coeff;
                }
                if (rc < -1e-7) {
                    entering = j; // Bland: first improving column
                    break;
                }
            }
            if (entering == cols_)
                return LpStatus::Optimal;

            // Ratio test (Bland: smallest basis index on ties).
            std::size_t leaving = rowsCount_;
            double bestRatio = 0.0;
            for (std::size_t i = 0; i < rowsCount_; ++i) {
                const double coeff = at(i, entering);
                if (coeff > kTolerance) {
                    const double ratio = at(i, cols_ - 1) / coeff;
                    if (leaving == rowsCount_ ||
                        ratio < bestRatio - 1e-12 ||
                        (std::fabs(ratio - bestRatio) <= 1e-12 &&
                         basis_[i] < basis_[leaving])) {
                        leaving = i;
                        bestRatio = ratio;
                    }
                }
            }
            if (leaving == rowsCount_)
                return LpStatus::Unbounded;
            pivot(leaving, entering);
        }
        return LpStatus::IterationLimit;
    }

    SimplexOptions options_;
    std::size_t numStructural_ = 0;
    std::size_t numSlack_ = 0;
    std::size_t numArtificial_ = 0;
    std::size_t rowsCount_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> tableau_;
    std::vector<std::size_t> basis_;
    std::vector<bool> artificialUsed_;
};

} // namespace

LpResult
solveSimplex(const LinearProgram& lp, const SimplexOptions& options)
{
    Tableau tableau(lp, options);
    return tableau.solve(lp.objective());
}

} // namespace smoothe::ilp
