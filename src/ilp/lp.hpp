/**
 * @file
 * A small linear-programming toolkit: model builder plus a two-phase
 * dense-tableau primal simplex solver with Bland's anti-cycling rule.
 *
 * This is the LP engine underneath the branch-and-bound MILP solver that
 * stands in for CPLEX/SCIP/CBC in the paper's baselines. It is exact but
 * dense, so it is reserved for root-relaxation bounds and moderate-size
 * models; the combinatorial bound in bnb.cpp covers the rest.
 */

#ifndef SMOOTHE_ILP_LP_HPP
#define SMOOTHE_ILP_LP_HPP

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace smoothe::ilp {

/** Constraint sense. */
enum class Sense { LessEqual, GreaterEqual, Equal };

/** A sparse linear constraint sum(coeff * var) sense rhs. */
struct Constraint
{
    std::vector<std::pair<std::size_t, double>> terms;
    Sense sense = Sense::LessEqual;
    double rhs = 0.0;
};

/** A minimization LP over non-negative, optionally upper-bounded vars. */
class LinearProgram
{
  public:
    /**
     * Adds a variable with objective coefficient and bounds [0, upper].
     * @param upper use kUnbounded for no upper bound
     * @return the variable index
     */
    std::size_t addVariable(double objective,
                            double upper = kUnbounded);

    /** Adds a constraint; returns its index. */
    std::size_t addConstraint(Constraint constraint);

    std::size_t numVariables() const { return objective_.size(); }
    std::size_t numConstraints() const { return constraints_.size(); }

    /** Tightens a variable's upper bound (used by branch-and-bound). */
    void setUpperBound(std::size_t var, double upper) { upper_[var] = upper; }

    const std::vector<double>& objective() const { return objective_; }
    const std::vector<double>& upperBounds() const { return upper_; }
    const std::vector<Constraint>& constraints() const
    {
        return constraints_;
    }

    static constexpr double kUnbounded =
        std::numeric_limits<double>::infinity();

  private:
    std::vector<double> objective_;
    std::vector<double> upper_;
    std::vector<Constraint> constraints_;
};

/** Solver outcome. */
enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

/** LP solution. */
struct LpResult
{
    LpStatus status = LpStatus::IterationLimit;
    double objective = 0.0;
    std::vector<double> values;
};

/** Options for the simplex solver. */
struct SimplexOptions
{
    std::size_t maxIterations = 200000;
    /** Wall-clock budget in seconds; <= 0 means unlimited. The solver
     *  returns IterationLimit when it runs out mid-solve. */
    double timeLimitSeconds = 0.0;
};

/**
 * Solves the LP with the two-phase primal simplex method.
 * Upper bounds are expanded into explicit constraints, so this is best for
 * models up to a few thousand rows/columns.
 */
LpResult solveSimplex(const LinearProgram& lp,
                      const SimplexOptions& options = {});

} // namespace smoothe::ilp

#endif // SMOOTHE_ILP_LP_HPP
