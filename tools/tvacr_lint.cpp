// tvacr_lint — static determinism linter for the tvacr tree.
//
//   tvacr_lint [options] <paths...>
//
//   --format text|json        report format (default text)
//   --out FILE                write the report to FILE instead of stdout
//   --list-rules              print the rule catalogue and exit
//
// Paths may be files or directories; directories are walked recursively for
// C++ sources (.cpp/.cc/.cxx/.hpp/.h/.hh), skipping build trees and the
// linter's own rule fixtures (tests/lint_fixtures/, which fire on purpose).
// Every file gets the per-file rules; the whole set then gets the module
// include-layering and include-cycle checks. Exit status: 0 clean, 1
// findings, 2 usage or I/O error — a directory that cannot be walked is an
// error, never a smaller lint. The file list is sorted before linting so
// reports are byte-stable across filesystems.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "lint/include_graph.hpp"
#include "lint/registry.hpp"
#include "lint/report.hpp"

namespace fs = std::filesystem;

namespace {

int usage(const char* /*argv0*/) {
    std::cerr << "usage: tvacr_lint [--format text|json] [--out FILE] [--list-rules] <paths...>\n";
    return 2;
}

bool lintable_extension(const fs::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" || ext == ".h" ||
           ext == ".hh";
}

bool skipped_directory(const fs::path& path) {
    const std::string name = path.filename().string();
    return name == "build" || name == "lint_fixtures" || (!name.empty() && name[0] == '.');
}

std::vector<std::string> collect_files(const std::vector<std::string>& roots,
                                       std::string& error) {
    std::vector<std::string> files;
    for (const auto& root : roots) {
        std::error_code ec;
        const fs::file_status status = fs::status(root, ec);
        if (ec || status.type() == fs::file_type::not_found) {
            error = "tvacr_lint: cannot read '" + root + "'";
            return {};
        }
        if (fs::is_regular_file(status)) {
            files.push_back(root);  // explicit files are linted regardless of extension
            continue;
        }
        fs::recursive_directory_iterator it(root, ec);
        // On a failed increment the iterator is spent, so remember which
        // entry it was about to descend into.
        fs::path at = root;
        for (const auto end = fs::recursive_directory_iterator(); !ec && it != end;
             it.increment(ec)) {
            at = it->path();
            if (it->is_directory() && skipped_directory(it->path())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable_extension(it->path())) {
                files.push_back(it->path().generic_string());
            }
        }
        if (ec) {
            error = "tvacr_lint: cannot read '" + at.generic_string() + "'";
            return {};
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

bool read_file(const std::string& path, std::string& content) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    content = buffer.str();
    return true;
}

bool write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << content;
    return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
    std::string format = "text";
    std::string out_path;
    bool list_rules = false;
    const std::vector<std::string> roots = tvacr::common::parse_flags(
        argc, argv,
        {
            {"--format",
             [&](std::string_view v) {
                 format = v;
                 return v == "text" || v == "json";
             }},
            {"--out", out_path},
            {"--list-rules", list_rules},
        },
        usage);

    const auto registry = tvacr::lint::Registry::with_builtin_rules();
    if (list_rules) {
        std::cout << tvacr::lint::render_rule_list(registry);
        return 0;
    }
    if (roots.empty()) return usage(argv[0]);

    std::string error;
    const std::vector<std::string> files = collect_files(roots, error);
    if (!error.empty()) {
        std::cerr << error << "\n";
        return 2;
    }

    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(files.size());
    for (const auto& file : files) {
        std::string content;
        if (!read_file(file, content)) {
            std::cerr << "tvacr_lint: cannot read '" << file << "'\n";
            return 2;
        }
        sources.emplace_back(file, std::move(content));
    }

    // The renderers sort, so the graph findings need no merge step.
    std::vector<tvacr::lint::Finding> findings = registry.run_files(sources);
    tvacr::lint::IncludeGraph::build(sources).check(findings);

    const std::string report = format == "json" ? tvacr::lint::render_json(findings)
                                                : tvacr::lint::render_text(findings);
    if (out_path.empty()) {
        std::cout << report;
    } else if (!write_file(out_path, report)) {
        std::cerr << "tvacr_lint: cannot write '" << out_path << "'\n";
        return 2;
    }
    return findings.empty() ? 0 : 1;
}
