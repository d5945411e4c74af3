#include "api/factory.hpp"

#include "extraction/bottom_up.hpp"
#include "extraction/genetic.hpp"
#include "ilp/ilp_extractor.hpp"
#include "smoothe/smoothe.hpp"

namespace smoothe::api {

const std::vector<std::string>&
extractorNames()
{
    static const std::vector<std::string> names = {
        "heuristic",  "heuristic+", "genetic", "ilp-strong",
        "ilp-medium", "ilp-weak",   "smoothe"};
    return names;
}

std::unique_ptr<extract::Extractor>
makeExtractor(const std::string& name,
              const core::SmoothEConfig& smoothe_config)
{
    if (name == "heuristic")
        return std::make_unique<extract::BottomUpExtractor>();
    if (name == "heuristic+")
        return std::make_unique<extract::FasterBottomUpExtractor>();
    if (name == "genetic")
        return std::make_unique<extract::GeneticExtractor>();
    if (name == "ilp-strong")
        return std::make_unique<ilp::IlpExtractor>(ilp::IlpPreset::Strong);
    if (name == "ilp-medium")
        return std::make_unique<ilp::IlpExtractor>(ilp::IlpPreset::Medium);
    if (name == "ilp-weak")
        return std::make_unique<ilp::IlpExtractor>(ilp::IlpPreset::Weak);
    if (name == "smoothe")
        return std::make_unique<core::SmoothEExtractor>(smoothe_config);
    return nullptr;
}

} // namespace smoothe::api
