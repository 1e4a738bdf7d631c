// One command-line walk for every tool and bench.
//
// A binary lists the flags it accepts as a table; parse_flags walks argv
// once, hands each flag its value, and returns the positional tokens.
// Anything it cannot place (an unknown flag, a value flag with no value, a
// value its handler rejects) prints the binary's usage and exits 2 before
// any work starts, so a misspelt flag never runs a different experiment
// than the one asked for.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"

namespace tvacr::common {

/// One entry of a flag table. `name` must be a string literal.
struct Flag {
    using Handler = std::function<bool(std::string_view)>;

    /// A value flag: `handler` gets the token after the flag, even one
    /// starting with '-' (so `--seed -1` reaches the seed parser), and
    /// returns false to reject it.
    Flag(const char* flag_name, Handler handler);
    /// A switch: takes no value and sets `on`.
    Flag(const char* flag_name, bool& on);
    /// A value stored verbatim.
    Flag(const char* flag_name, std::string& out);
    /// A full-range unsigned value (seeds, counts) via parse_flag_u64.
    Flag(const char* flag_name, std::uint64_t& out);

    /// An integer in [min, max] via parse_flag_int.
    template <std::integral Int>
    Flag(const char* flag_name, Int& out, long long min, long long max)
        : Flag(flag_name, [&out, flag_name, min, max](std::string_view value) {
              out = static_cast<Int>(parse_flag_int(flag_name, value, min, max));
              return true;
          }) {}

    /// A value with a fixed set of spellings (tv::parse_brand and kin);
    /// a spelling `parse` does not know is rejected.
    template <typename T>
    Flag(const char* flag_name, T& out, std::optional<T> (*parse)(std::string_view))
        : Flag(flag_name, [&out, parse](std::string_view value) {
              const std::optional<T> parsed = parse(value);
              if (parsed) out = *parsed;
              return parsed.has_value();
          }) {}

    const char* name;
    Handler on_value;           // empty for a switch
    bool* on_switch = nullptr;  // set for a switch
};

/// Prints a binary's usage to stderr and returns 2.
using UsageFn = int (*)(const char* argv0);

/// Walks argv[1..argc) once and returns the tokens that are neither flags
/// nor flag values, in order. A token starting with '-' that names no flag
/// (--help and -h included), a value flag that is the last token, or a
/// rejected value prints a one-line reason and `usage`, then exits 2.
[[nodiscard]] std::vector<std::string> parse_flags(int argc, char** argv,
                                                   std::initializer_list<Flag> flags,
                                                   UsageFn usage);

}  // namespace tvacr::common
