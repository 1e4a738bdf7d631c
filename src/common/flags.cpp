#include "common/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tvacr::common {

namespace {

[[noreturn]] void reject(const char* argv0, UsageFn usage, const char* reason,
                         std::string_view flag) {
    std::fprintf(stderr, "%s: %s '%.*s'\n", argv0, reason, static_cast<int>(flag.size()),
                 flag.data());
    std::exit(usage(argv0));
}

}  // namespace

Flag::Flag(const char* flag_name, Handler handler)
    : name(flag_name), on_value(std::move(handler)) {}

Flag::Flag(const char* flag_name, bool& on) : name(flag_name), on_switch(&on) {}

Flag::Flag(const char* flag_name, std::string& out)
    : Flag(flag_name, [&out](std::string_view value) {
          out = value;
          return true;
      }) {}

Flag::Flag(const char* flag_name, std::uint64_t& out)
    : Flag(flag_name, [&out, flag_name](std::string_view value) {
          out = parse_flag_u64(flag_name, value);
          return true;
      }) {}

std::vector<std::string> parse_flags(int argc, char** argv, std::initializer_list<Flag> flags,
                                     UsageFn usage) {
    std::vector<std::string> positionals;
    for (int i = 1; i < argc; ++i) {
        const std::string_view token = argv[i];
        if (token.empty() || token.front() != '-') {
            positionals.emplace_back(token);
            continue;
        }
        const Flag* flag = std::find_if(flags.begin(), flags.end(),
                                        [&](const Flag& f) { return token == f.name; });
        if (flag == flags.end()) reject(argv[0], usage, "unknown flag", token);
        if (flag->on_switch != nullptr) {
            *flag->on_switch = true;
        } else if (++i == argc) {
            reject(argv[0], usage, "missing value for", token);
        } else if (!flag->on_value(argv[i])) {
            reject(argv[0], usage, "bad value for", token);
        }
    }
    return positionals;
}

}  // namespace tvacr::common
