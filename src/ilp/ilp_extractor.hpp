/**
 * @file
 * ILP-based exact extraction: the paper's Eq. (1a)-(1f) formulation and a
 * from-scratch branch-and-bound solver with three strength presets that
 * stand in for CPLEX / SCIP / CBC (see DESIGN.md, substitutions).
 *
 * The model: binary s_i per e-node, continuous t_j per e-class;
 *   (1b) exactly one root e-node,
 *   (1c) s_i <= sum of s_k over each child class (completeness),
 *   (1e/f) topological-order variables forbidding cycles.
 *
 * buildExtractionLp() materializes that model for the dense simplex, which
 * the Strong and Medium presets branch on for small models. Otherwise
 * IlpExtractor branches on *class choices* — each branch decides which
 * e-node a needed class uses — with an admissible lower bound
 * (cost so far + sum of per-class minimum costs over open classes),
 * incremental cycle detection, and optional warm starting. Complete runs
 * prove optimality; the wall-clock limit yields best-effort incumbents,
 * matching how the paper's ILP baselines behave under their 15-minute cap.
 */

#ifndef SMOOTHE_ILP_ILP_EXTRACTOR_HPP
#define SMOOTHE_ILP_ILP_EXTRACTOR_HPP

#include "extraction/extractor.hpp"
#include "ilp/lp.hpp"

namespace smoothe::ilp {

/** Solver strength preset (emulating the paper's three ILP baselines). */
enum class IlpPreset {
    Strong, ///< "CPLEX-like": warm start, guided ordering, strong bound
    Medium, ///< "SCIP-like": guided ordering, strong bound
    Weak,   ///< "CBC-like": plain ordering, weak bound
};

/** Returns the table label for a preset ("ILP-strong", ...). */
const char* presetName(IlpPreset preset);

/**
 * Builds the paper's ILP model for a finalized e-graph.
 * Variable layout: s_0..s_{N-1} (binary, relaxed to [0,1]) followed by
 * t_0..t_{M-1} in [0,1]. Acyclicity rows are added only when the class
 * dependency graph actually has cycles.
 */
LinearProgram buildExtractionLp(const eg::EGraph& graph);

/** Branch-and-bound extraction solver. */
class IlpExtractor : public extract::Extractor
{
  public:
    explicit IlpExtractor(IlpPreset preset = IlpPreset::Strong)
        : preset_(preset)
    {}

    std::string name() const override { return presetName(preset_); }

  protected:
    extract::ExtractionResult
    extractImpl(const eg::EGraph& graph,
                const extract::ExtractOptions& options) override;

  private:
    IlpPreset preset_;
};

} // namespace smoothe::ilp

#endif // SMOOTHE_ILP_ILP_EXTRACTOR_HPP
