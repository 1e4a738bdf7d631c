// tvacr_lint — static determinism linter for the tvacr tree.
//
//   tvacr_lint [options] <paths...>
//
//   --format text|json        report format (default text)
//   --out FILE                write the report to FILE instead of stdout
//   --list-rules              print the rule catalogue and exit
//   --jobs N                  analyze files on N worker threads; the report
//                             is byte-identical at any N (default 1)
//   --fix                     apply mechanical autofixes in place (pragma
//                             once, float-literal spelling), then lint the
//                             fixed sources; fixing twice is a no-op
//   --baseline FILE           filter known findings through a baseline;
//                             stale entries fail the run (baseline-stale)
//   --write-baseline FILE     write the current findings as a baseline and
//                             exit 0 (engine-hygiene rules excluded)
//   --changed-only FILE       lint only files named in FILE (one path per
//                             line, e.g. `git diff --name-only` output);
//                             include-graph checks run over that subset
//   --include-graph-dot FILE  write the module include graph as DOT
//
// Paths may be files or directories; directories are walked recursively for
// C++ sources (.cpp/.cc/.cxx/.hpp/.h/.hh), skipping build trees and the
// linter's own rule fixtures (tests/lint_fixtures/, which fire on purpose).
// Exit status: 0 clean, 1 findings, 2 usage or I/O error. The file list is
// sorted before linting so reports are byte-stable across filesystems.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/flags.hpp"
#include "lint/baseline.hpp"
#include "lint/driver.hpp"
#include "lint/fix.hpp"
#include "lint/registry.hpp"
#include "lint/report.hpp"

namespace fs = std::filesystem;

namespace {

int usage(const char* /*argv0*/) {
    std::cerr << "usage: tvacr_lint [--format text|json] [--out FILE] [--list-rules] [--jobs N]\n"
                 "                  [--fix] [--baseline FILE] [--write-baseline FILE]\n"
                 "                  [--changed-only FILE] [--include-graph-dot FILE] <paths...>\n";
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
        fs::recursive_directory_iterator it(root, fs::directory_options::skip_permission_denied,
                                            ec);
        for (const auto end = fs::recursive_directory_iterator(); it != end;
             it.increment(ec)) {
            if (ec) break;
            if (it->is_directory() && skipped_directory(it->path())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable_extension(it->path())) {
                files.push_back(it->path().generic_string());
            }
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
    std::string baseline_path;
    std::string write_baseline_path;
    std::string changed_only_path;
    std::string dot_path;
    std::size_t jobs = 1;
    bool apply_fixes = false;
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
            {"--jobs", jobs, 1, 256},
            {"--fix", apply_fixes},
            {"--baseline", baseline_path},
            {"--write-baseline", write_baseline_path},
            {"--changed-only", changed_only_path},
            {"--include-graph-dot", dot_path},
        },
        usage);

    const auto registry = tvacr::lint::Registry::with_builtin_rules();
    if (list_rules) {
        std::cout << tvacr::lint::render_rule_list(registry);
        return 0;
    }
    if (roots.empty()) return usage(argv[0]);

    std::string error;
    std::vector<std::string> files = collect_files(roots, error);
    if (!error.empty()) {
        std::cerr << error << "\n";
        return 2;
    }

    if (!changed_only_path.empty()) {
        std::string listing;
        if (!read_file(changed_only_path, listing)) {
            std::cerr << "tvacr_lint: cannot read '" << changed_only_path << "'\n";
            return 2;
        }
        const std::vector<std::string> changed = tvacr::lint::parse_changed_list(listing);
        std::erase_if(files, [&](const std::string& file) {
            return !tvacr::lint::path_in_changed_list(file, changed);
        });
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

    if (apply_fixes) {
        std::size_t fixed_files = 0;
        for (auto& [path, source] : sources) {
            tvacr::lint::FixResult fixed = tvacr::lint::fix_source(path, source);
            if (!fixed.changed()) continue;
            if (!write_file(path, fixed.content)) {
                std::cerr << "tvacr_lint: cannot write '" << path << "'\n";
                return 2;
            }
            std::cerr << "tvacr_lint: fixed " << path << " (";
            for (std::size_t r = 0; r < fixed.rules_applied.size(); ++r) {
                if (r > 0) std::cerr << ", ";
                std::cerr << fixed.rules_applied[r];
            }
            std::cerr << ")\n";
            source = std::move(fixed.content);  // lint what is now on disk
            ++fixed_files;
        }
        if (fixed_files > 0) {
            std::cerr << "tvacr_lint: fixed " << fixed_files << " file(s)\n";
        }
    }

    tvacr::lint::Baseline baseline;
    tvacr::lint::DriverOptions options;
    options.jobs = jobs;
    if (!baseline_path.empty() && write_baseline_path.empty()) {
        std::string text;
        if (!read_file(baseline_path, text)) {
            std::cerr << "tvacr_lint: cannot read '" << baseline_path << "'\n";
            return 2;
        }
        std::string parse_error;
        if (!tvacr::lint::Baseline::parse(text, baseline, parse_error)) {
            std::cerr << "tvacr_lint: " << parse_error << "\n";
            return 2;
        }
        options.baseline = &baseline;
    }

    const tvacr::lint::DriverResult result = run_driver(registry, sources, options);

    if (!dot_path.empty() && !write_file(dot_path, result.graph.to_dot())) {
        std::cerr << "tvacr_lint: cannot write '" << dot_path << "'\n";
        return 2;
    }

    if (!write_baseline_path.empty()) {
        const auto snapshot = tvacr::lint::Baseline::from_findings(result.findings);
        if (!write_file(write_baseline_path, snapshot.serialize())) {
            std::cerr << "tvacr_lint: cannot write '" << write_baseline_path << "'\n";
            return 2;
        }
        std::cerr << "tvacr_lint: wrote baseline with " << snapshot.entries().size()
                  << " entr" << (snapshot.entries().size() == 1 ? "y" : "ies") << " to "
                  << write_baseline_path << "\n";
        return 0;
    }

    const std::string report = format == "json" ? tvacr::lint::render_json(result.findings)
                                                : tvacr::lint::render_text(result.findings);
    if (out_path.empty()) {
        std::cout << report;
    } else {
        if (!write_file(out_path, report)) {
            std::cerr << "tvacr_lint: cannot write '" << out_path << "'\n";
            return 2;
        }
    }
    return result.findings.empty() ? 0 : 1;
}
