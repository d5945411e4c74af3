/**
 * @file
 * Tiny command-line flag parser for the bench and example binaries.
 *
 * Supports `--name value` and `--name=value` forms plus boolean switches.
 */

#ifndef SMOOTHE_UTIL_ARGS_HPP
#define SMOOTHE_UTIL_ARGS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace smoothe::util {

/**
 * Parsed command-line flags with typed, defaulted accessors.
 *
 * Every accessor records which flag names the program asked about; after
 * all flags are queried, unrecognized() lists what the user passed that
 * the program never looked at — the binaries use this to reject typos
 * like `--seeeds` instead of silently running with defaults. Likewise
 * malformed() lists numeric flags whose value did not parse, such as
 * `--seeds abc`.
 */
class Args
{
  public:
    /** Parses argv; positional (non-flag) arguments are collected in
     *  order and exposed through positionals(). */
    Args(int argc, char** argv);

    /** Returns true when the flag was passed (with or without a value). */
    bool has(const std::string& name) const;

    /** Returns the string value or the default when absent. */
    std::string getString(const std::string& name,
                          const std::string& fallback) const;

    /**
     * Returns the flag parsed as double or the default. Like getInt() and
     * getCount(), it also returns the default when the value does not
     * parse completely as the asked-for number; malformed() then lists
     * the flag.
     */
    double getDouble(const std::string& name, double fallback) const;

    /** Returns the flag parsed as int64 or the default. */
    std::int64_t getInt(const std::string& name, std::int64_t fallback) const;

    /** Returns the flag parsed as a non-negative integer or the default;
     *  a negative value is malformed. */
    std::size_t getCount(const std::string& name, std::size_t fallback) const;

    /** Returns the flag parsed as bool ("--x", "--x=true/false"). */
    bool getBool(const std::string& name, bool fallback) const;

    /** Marks a flag as known without reading its value. */
    void acknowledge(const std::string& name) const;

    /** All flag names that were passed, in command-line order. */
    const std::vector<std::string>& flags() const { return order_; }

    /** Non-flag arguments in command-line order (e.g. input files). */
    const std::vector<std::string>& positionals() const
    {
        return positionals_;
    }

    /**
     * Flags that were passed but never queried through any accessor (nor
     * acknowledge()d), in command-line order. Call only after querying
     * every flag the program understands.
     */
    std::vector<std::string> unrecognized() const;

    /** Flags read by a numeric accessor whose value did not parse, in
     *  command-line order. */
    std::vector<std::string> malformed() const;

  private:
    /** The value of a passed, non-empty flag, or null; marks it queried. */
    const std::string* valueOf(const std::string& name) const;

    std::map<std::string, std::string> values_;
    std::vector<std::string> order_;
    std::vector<std::string> positionals_;
    mutable std::set<std::string> queried_;
    mutable std::set<std::string> malformed_;
};

} // namespace smoothe::util

#endif // SMOOTHE_UTIL_ARGS_HPP
