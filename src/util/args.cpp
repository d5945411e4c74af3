#include "util/args.hpp"

#include <cerrno>
#include <cstdlib>

namespace smoothe::util {

Args::Args(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0) {
            positionals_.push_back(token);
            continue;
        }
        token = token.substr(2);
        std::string name;
        const auto eq = token.find('=');
        if (eq != std::string::npos) {
            name = token.substr(0, eq);
            values_[name] = token.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            name = token;
            values_[name] = argv[++i];
        } else {
            name = token;
            values_[name] = "";
        }
        order_.push_back(name);
    }
    // Repeated flags keep the last value; list each name once.
    std::set<std::string> seen;
    std::vector<std::string> unique;
    for (const std::string& name : order_) {
        if (seen.insert(name).second)
            unique.push_back(name);
    }
    order_ = std::move(unique);
}

bool
Args::has(const std::string& name) const
{
    queried_.insert(name);
    return values_.count(name) > 0;
}

std::string
Args::getString(const std::string& name, const std::string& fallback) const
{
    queried_.insert(name);
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

const std::string*
Args::valueOf(const std::string& name) const
{
    queried_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return nullptr;
    return &it->second;
}

double
Args::getDouble(const std::string& name, double fallback) const
{
    const std::string* text = valueOf(name);
    if (!text)
        return fallback;
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text->c_str(), &end);
    if (*end != '\0' || end == text->c_str() || errno == ERANGE) {
        malformed_.insert(name);
        return fallback;
    }
    return value;
}

std::int64_t
Args::getInt(const std::string& name, std::int64_t fallback) const
{
    const std::string* text = valueOf(name);
    if (!text)
        return fallback;
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text->c_str(), &end, 10);
    if (*end != '\0' || end == text->c_str() || errno == ERANGE) {
        malformed_.insert(name);
        return fallback;
    }
    return value;
}

std::size_t
Args::getCount(const std::string& name, std::size_t fallback) const
{
    if (!valueOf(name))
        return fallback;
    const std::int64_t value = getInt(name, -1);
    if (value < 0) {
        malformed_.insert(name);
        return fallback;
    }
    return static_cast<std::size_t>(value);
}

bool
Args::getBool(const std::string& name, bool fallback) const
{
    queried_.insert(name);
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    if (it->second.empty() || it->second == "true" || it->second == "1")
        return true;
    return false;
}

void
Args::acknowledge(const std::string& name) const
{
    queried_.insert(name);
}

std::vector<std::string>
Args::malformed() const
{
    std::vector<std::string> bad;
    for (const std::string& name : order_) {
        if (malformed_.count(name))
            bad.push_back(name);
    }
    return bad;
}

std::vector<std::string>
Args::unrecognized() const
{
    std::vector<std::string> unknown;
    for (const std::string& name : order_) {
        if (!queried_.count(name))
            unknown.push_back(name);
    }
    return unknown;
}

} // namespace smoothe::util
