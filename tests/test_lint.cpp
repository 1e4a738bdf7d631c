// tvacr::lint — lexer, rule catalogue, suppression and reporter tests.
//
// Two layers: inline sources pin down lexer/rule semantics precisely, and
// the fixture tree under tests/lint_fixtures/ (which mirrors the repo
// layout so path-scoped rules engage) provides one firing and one
// suppressed case per catalogue rule plus a golden JSON report. Regenerate
// the golden with:
//
//   TVACR_UPDATE_GOLDEN=1 ./build/tests/test_lint
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "lint/include_graph.hpp"
#include "lint/lexer.hpp"
#include "lint/registry.hpp"
#include "lint/report.hpp"
#include "lint/scope.hpp"

namespace tvacr::lint {
namespace {

#ifndef TVACR_LINT_FIXTURE_DIR
#define TVACR_LINT_FIXTURE_DIR "tests/lint_fixtures"
#endif
#ifndef TVACR_GOLDEN_DIR
#define TVACR_GOLDEN_DIR "tests/golden"
#endif

// ------------------------------------------------------------------- lexer

std::vector<Token> code_tokens(std::string_view source) {
    std::vector<Token> out;
    for (auto& token : lex(source)) {
        if (token.kind != TokenKind::kComment) out.push_back(std::move(token));
    }
    return out;
}

TEST(LintLexer, ClassifiesBasicTokens) {
    const auto tokens = lex("int x = 42; // trailing\n");
    ASSERT_EQ(tokens.size(), 6u);
    EXPECT_TRUE(tokens[0].is_identifier("int"));
    EXPECT_TRUE(tokens[1].is_identifier("x"));
    EXPECT_TRUE(tokens[2].is_punct("="));
    EXPECT_EQ(tokens[3].kind, TokenKind::kNumber);
    EXPECT_TRUE(tokens[4].is_punct(";"));
    EXPECT_EQ(tokens[5].kind, TokenKind::kComment);
    EXPECT_EQ(tokens[5].text, "// trailing");
}

TEST(LintLexer, ScopeResolutionIsOneToken) {
    const auto tokens = lex("a::b : c");
    ASSERT_EQ(tokens.size(), 5u);
    EXPECT_TRUE(tokens[1].is_punct("::"));
    EXPECT_TRUE(tokens[3].is_punct(":"));
}

TEST(LintLexer, RawStringSwallowsTriggerText) {
    const auto tokens = lex(R"src(const char* s = R"x(rand() // not a comment */ )x";)src");
    const auto string_token =
        std::find_if(tokens.begin(), tokens.end(),
                     [](const Token& t) { return t.kind == TokenKind::kString; });
    ASSERT_NE(string_token, tokens.end());
    EXPECT_NE(string_token->text.find("rand()"), std::string::npos);
    for (const auto& token : tokens) {
        EXPECT_NE(token.kind, TokenKind::kComment) << token.text;
        EXPECT_FALSE(token.is_identifier("rand"));
    }
}

TEST(LintLexer, PrefixedRawStringAndLiteral) {
    const auto tokens = lex("auto a = u8R\"(x)\"; auto b = L'q';");
    EXPECT_EQ(std::count_if(tokens.begin(), tokens.end(),
                            [](const Token& t) { return t.kind == TokenKind::kString; }),
              1);
    EXPECT_EQ(std::count_if(tokens.begin(), tokens.end(),
                            [](const Token& t) { return t.kind == TokenKind::kCharLiteral; }),
              1);
}

TEST(LintLexer, LineContinuationMacroIsOnePreprocessorToken) {
    const auto tokens = lex("#define EMIT(x) \\\n    do_emit(x); \\\n    flush()\nint y;");
    ASSERT_GE(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].kind, TokenKind::kPreprocessor);
    EXPECT_NE(tokens[0].text.find("do_emit"), std::string::npos);
    EXPECT_NE(tokens[0].text.find("flush"), std::string::npos);
    EXPECT_TRUE(tokens[1].is_identifier("int"));
    EXPECT_EQ(tokens[1].line, 4u);  // continuation lines still advance the counter
}

TEST(LintLexer, LineCommentContinuesAcrossBackslashNewline) {
    const auto tokens = lex("// part one \\\n   rand() still comment\nint z;");
    ASSERT_GE(tokens.size(), 2u);
    EXPECT_EQ(tokens[0].kind, TokenKind::kComment);
    EXPECT_NE(tokens[0].text.find("still comment"), std::string::npos);
    EXPECT_TRUE(tokens[1].is_identifier("int"));
}

TEST(LintLexer, CommentLookalikesInsideStringsStayStrings) {
    const auto tokens = lex("const char* a = \"// x\"; const char* b = \"/* y */\";");
    for (const auto& token : tokens) EXPECT_NE(token.kind, TokenKind::kComment);
    EXPECT_EQ(std::count_if(tokens.begin(), tokens.end(),
                            [](const Token& t) { return t.kind == TokenKind::kString; }),
              2);
}

TEST(LintLexer, EscapedQuoteDoesNotEndString) {
    const auto tokens = lex(R"(auto s = "a\"b"; int k;)");
    const auto string_token =
        std::find_if(tokens.begin(), tokens.end(),
                     [](const Token& t) { return t.kind == TokenKind::kString; });
    ASSERT_NE(string_token, tokens.end());
    EXPECT_EQ(string_token->text, "\"a\\\"b\"");
}

TEST(LintLexer, FloatLiteralClassification) {
    EXPECT_TRUE(is_float_literal("1.0"));
    EXPECT_TRUE(is_float_literal(".5f"));
    EXPECT_TRUE(is_float_literal("1e-9"));
    EXPECT_TRUE(is_float_literal("0x1p3"));
    EXPECT_FALSE(is_float_literal("42"));
    EXPECT_FALSE(is_float_literal("0xFF"));
    EXPECT_FALSE(is_float_literal("1'000"));
    const auto tokens = code_tokens("x == 1.0e-3;");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[2].text, "1.0e-3");  // exponent sign glued to the literal
}

TEST(LintLexer, UnterminatedLiteralRecoversAtNewline) {
    const auto tokens = lex("auto s = \"oops\nint next;");
    EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(),
                            [](const Token& t) { return t.is_identifier("next"); }));
}

TEST(LintLexer, MultiCharRawStringDelimiterSwallowsFalseTerminators) {
    // )" inside the body must not end an R"xyz(...)xyz" literal.
    const auto tokens = lex("auto s = R\"xyz(rand() )\" still inside)xyz\"; int k;");
    const auto string_token =
        std::find_if(tokens.begin(), tokens.end(),
                     [](const Token& t) { return t.kind == TokenKind::kString; });
    ASSERT_NE(string_token, tokens.end());
    EXPECT_NE(string_token->text.find("still inside"), std::string::npos);
    for (const auto& token : tokens) EXPECT_FALSE(token.is_identifier("rand"));
    EXPECT_TRUE(std::any_of(tokens.begin(), tokens.end(),
                            [](const Token& t) { return t.is_identifier("k"); }));
}

// ----------------------------------------------------------------- scoping

TEST(LintScoping, PathUnderMatchesComponentBoundaries) {
    EXPECT_TRUE(path_under("src/analysis/report.cpp", "src/analysis"));
    EXPECT_TRUE(path_under("/root/repo/src/analysis/report.cpp", "src/analysis"));
    EXPECT_TRUE(path_under("src/common/thread_pool.cpp", "common/thread_pool."));
    EXPECT_TRUE(path_under("src/core/matrix_runner.cpp", "core/matrix_runner.cpp"));
    EXPECT_FALSE(path_under("src_backup/analysis/report.cpp", "src"));
    EXPECT_FALSE(path_under("tests/src_analysis.cpp", "src/analysis"));
    EXPECT_FALSE(path_under("src/common/thread_pool_stats.cpp", "common/thread_pool."));
}

TEST(LintScoping, PathUnderTreatsTrailingSlashAsEquivalent) {
    // Property: a prefix with any number of trailing slashes scopes exactly
    // like the bare prefix, for matching and non-matching paths alike.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"src/analysis/report.cpp", "src/analysis"},
        {"src/analysis/report.cpp", "src"},
        {"/root/repo/src/analysis/report.cpp", "src/analysis"},
        {"tests/src_analysis.cpp", "src"},
        {"src_backup/x.cpp", "src"},
        {"src/common/rng.cpp", "common"},
        {"src/common/rng.cpp", "analysis"},
    };
    for (const auto& [path, prefix] : cases) {
        const bool bare = path_under(path, prefix);
        EXPECT_EQ(bare, path_under(path, prefix + "/")) << path << " vs " << prefix << "/";
        EXPECT_EQ(bare, path_under(path, prefix + "//")) << path << " vs " << prefix << "//";
    }
    EXPECT_TRUE(path_under("src/analysis/report.cpp", "src/analysis/"));
    EXPECT_FALSE(path_under("tests/src_analysis.cpp", "src/"));
}

// ------------------------------------------------------------------- rules

std::vector<Finding> lint_source(const std::string& path, std::string_view source) {
    return Registry::with_builtin_rules().run_file(path, source);
}

std::map<std::string, int> count_by_rule(const std::vector<Finding>& findings) {
    std::map<std::string, int> counts;
    for (const auto& f : findings) ++counts[f.rule];
    return counts;
}

TEST(LintRules, WallclockFiresOnQualifiedNowAndClockNames) {
    const auto findings = lint_source(
        "src/sim/bad.cpp", "void f() { auto t = std::chrono::system_clock::now(); }\n");
    ASSERT_EQ(findings.size(), 1u);  // clock name + argless now dedupe to one per line
    EXPECT_EQ(findings[0].rule, "no-wallclock");
    EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintRules, WallclockIgnoresSimTimeAccessors) {
    const auto findings = lint_source("src/sim/ok.cpp",
                                      "struct S { SimTime now() const; };\n"
                                      "SimTime f(S& s, S* p) { return p->now(); }\n"
                                      "SimTime g(S& s) { return s.now(); }\n");
    EXPECT_TRUE(findings.empty()) << render_text(findings);
}

TEST(LintRules, WallclockAllowlistCoversProfilingFiles) {
    const std::string source =
        "#pragma once\nvoid f() { auto e = std::chrono::steady_clock::now(); }\n";
    EXPECT_TRUE(lint_source("src/common/thread_pool.cpp", source).empty());
    EXPECT_TRUE(lint_source("src/common/thread_pool.hpp", source).empty());
    EXPECT_TRUE(lint_source("src/core/matrix_runner.cpp", source).empty());
    EXPECT_EQ(lint_source("src/core/audit.cpp", source).size(), 1u);
}

TEST(LintRules, AmbientRandomFiresOutsideRng) {
    const auto findings = lint_source(
        "src/tv/bad.cpp", "void f() { int r = std::rand(); std::random_device d; }\n");
    EXPECT_EQ(count_by_rule(findings)["no-ambient-random"], 1);  // per (rule, line)
    EXPECT_TRUE(
        lint_source("src/common/rng.cpp", "void f() { std::random_device d; }\n").empty());
}

TEST(LintRules, UnorderedIterationScopedToOutputLayers) {
    const std::string source =
        "#include <unordered_map>\n"
        "int sum() { std::unordered_map<int, int> table; int s = 0;\n"
        "    for (const auto& [k, v] : table) s += v; return s; }\n";
    const auto in_scope = lint_source("src/analysis/bad.cpp", source);
    ASSERT_EQ(in_scope.size(), 1u);
    EXPECT_EQ(in_scope[0].rule, "no-unordered-iteration-in-output");
    EXPECT_EQ(in_scope[0].line, 3u);
    EXPECT_TRUE(lint_source("src/tv/ok.cpp", source).empty());  // out of scope
}

TEST(LintRules, UnorderedIterationIgnoresOrderedAndLookups) {
    const std::string source =
        "#include <map>\n"
        "int f() { std::map<int, int> table;\n"
        "          std::unordered_map<int, int> index;\n"
        "          int s = 0; for (const auto& [k, v] : table) s += v;\n"
        "          return s + (index.find(3) != index.end() ? 1 : 0); }\n";
    EXPECT_TRUE(lint_source("src/obs/ok.cpp", source).empty());
}

TEST(LintRules, IostreamInLibScopedToSrc) {
    const std::string source = "#include <cstdio>\nvoid f() { std::printf(\"x\"); }\n";
    ASSERT_EQ(lint_source("src/geo/bad.cpp", source).size(), 1u);
    EXPECT_TRUE(lint_source("tools/cli.cpp", source).empty());
    EXPECT_TRUE(lint_source("bench/bench_x.cpp", source).empty());
    EXPECT_TRUE(lint_source("src/net/ok.cpp",
                            "void f(char* b) { std::snprintf(b, 4, \"x\"); }\n")
                    .empty());
}

TEST(LintRules, RawNewDeleteSkipsDeletedMembers) {
    const auto findings = lint_source("src/core/bad.cpp",
                                      "struct T { T(const T&) = delete; };\n"
                                      "int* leak() { return new int(3); }\n"
                                      "void drop(int* p) { delete p; }\n");
    const auto counts = count_by_rule(findings);
    EXPECT_EQ(counts.at("no-raw-new-delete"), 2);
    for (const auto& f : findings) EXPECT_NE(f.line, 1u);
}

TEST(LintRules, PragmaOnceRequiredOnHeadersOnly) {
    EXPECT_EQ(lint_source("src/x/widget.hpp", "int f();\n").size(), 1u);
    EXPECT_TRUE(lint_source("src/x/widget.hpp", "#pragma once\nint f();\n").empty());
    EXPECT_TRUE(lint_source("src/x/widget.hpp", "#  pragma   once\nint f();\n").empty());
    EXPECT_TRUE(lint_source("src/x/widget.cpp", "int f();\n").empty());
}

TEST(LintLexer, PrefixedLiteralsSwallowRuleTriggerText) {
    // Trigger text inside u8/L/raw literals must never reach a rule.
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "void f(const void* p) { p = u8\"std::rand()\"; }\n")
                    .empty());
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "void f(const void* p) { p = L\"time(nullptr)\"; }\n")
                    .empty());
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "void f(const void* p) { p = u8R\"(system_clock::now())\"; }\n")
                    .empty());
}

TEST(LintRules, FloatEqualityNeedsAFloatLiteral) {
    EXPECT_EQ(lint_source("src/x.cpp", "bool f(double x) { return x == 0.0; }\n").size(), 1u);
    EXPECT_EQ(lint_source("src/x.cpp", "bool f(double x) { return 1.5 != x; }\n").size(), 1u);
    EXPECT_EQ(lint_source("src/x.cpp", "bool f(double x) { return x == -0.5; }\n").size(), 1u);
    EXPECT_TRUE(lint_source("src/x.cpp", "bool f(int x) { return x == 3; }\n").empty());
    EXPECT_TRUE(lint_source("src/x.cpp", "bool f(int x, int y) { return x == y; }\n").empty());
}

TEST(LintRules, FloatLiteralSpellingFlagsBareDot) {
    EXPECT_EQ(lint_source("src/x.cpp", "double f() { return .5; }\n").size(), 1u);
    EXPECT_EQ(lint_source("src/x.cpp", "double f() { return 2.; }\n").size(), 1u);
    EXPECT_TRUE(lint_source("src/x.cpp", "double f() { return 0.5; }\n").empty());
    EXPECT_TRUE(lint_source("src/x.cpp", "double f() { return 1.0e-3; }\n").empty());
    EXPECT_TRUE(lint_source("src/x.cpp", "double f() { return 0x1.8p3; }\n").empty());
    const auto findings = lint_source("src/x.cpp", "float f() { return .5f; }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "float-literal-spelling");
    EXPECT_NE(findings[0].message.find("'0.5f'"), std::string::npos);
}

TEST(LintRules, MutableGlobalScopedToSrc) {
    const std::string source = "int counter = 0;\n";
    const auto findings = lint_source("src/net/x.cpp", source);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-mutable-global-in-lib");
    EXPECT_TRUE(lint_source("tools/x.cpp", source).empty());  // out of scope
    EXPECT_TRUE(lint_source("src/net/x.cpp", "constexpr int kMax = 4;\n").empty());
    EXPECT_TRUE(lint_source("src/net/x.cpp", "const int kMax = 4;\n").empty());
    EXPECT_TRUE(
        lint_source("src/net/x.cpp", "int f() { int local = 0; return local; }\n").empty());
    // A function-local static is an automatic-scope symbol, not a global.
    EXPECT_TRUE(
        lint_source("src/net/x.cpp", "int f() { static int hits = 0; return ++hits; }\n")
            .empty());
}

TEST(LintRules, RefCaptureIntoThreadpoolFlagsAmpersandCaptures) {
    const auto by_ref = lint_source(
        "src/x.cpp", "void f(Pool& pool) { auto r = pool.submit([&n]() { return n; }); }\n");
    ASSERT_EQ(by_ref.size(), 1u);
    EXPECT_EQ(by_ref[0].rule, "no-ref-capture-into-threadpool");
    const auto default_ref = lint_source(
        "src/x.cpp", "void f(Pool* pool) { auto r = pool->submit([&]() { return 1; }); }\n");
    EXPECT_EQ(default_ref.size(), 1u);
    EXPECT_TRUE(
        lint_source("src/x.cpp",
                    "void f(Pool& pool, int n) { auto r = pool.submit([n]() { return n; }); }\n")
            .empty());
    // submit on something else entirely (free function) is not a pool handoff
    EXPECT_TRUE(
        lint_source("src/x.cpp", "void f(int n) { auto r = submit([&n]() { return n; }); }\n")
            .empty());
}

TEST(LintRules, LockBeforeSharedWriteNeedsAMutexSibling) {
    const std::string unguarded =
        "#include <mutex>\n"
        "class C { public: void bump() { ++n_; }\n"
        " private: std::mutex m_; int n_ = 0; };\n";
    const auto findings = lint_source("src/x.cpp", unguarded);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "lock-before-shared-write");
    EXPECT_EQ(findings[0].line, 2u);

    const std::string guarded =
        "#include <mutex>\n"
        "class C { public: void bump() { std::lock_guard<std::mutex> g(m_); ++n_; }\n"
        " private: std::mutex m_; int n_ = 0; };\n";
    EXPECT_TRUE(lint_source("src/x.cpp", guarded).empty());

    // No mutex member: nothing in the class is lock-guarded.
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "class C { public: void bump() { ++n_; } private: int n_ = 0; };\n")
                    .empty());

    // A local shadowing the member is not a shared write.
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "#include <mutex>\n"
                            "class C { public: int bump() { int n_ = 0; ++n_; return n_; }\n"
                            " private: std::mutex m_; int n_ = 0; };\n")
                    .empty());
}

TEST(LintRules, ViewEscapeOverFunctionLocalBuffer) {
    const auto findings = lint_source(
        "src/x.cpp",
        "#include <string>\n#include <string_view>\n"
        "std::string_view f() { std::string s = \"x\"; return s; }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-view-escape");
    EXPECT_EQ(findings[0].line, 3u);

    // Owning return type: the copy is the point.
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "#include <string>\n"
                            "std::string f() { std::string s = \"x\"; return s; }\n")
                    .empty());
    // Static locals outlive the call.
    EXPECT_TRUE(
        lint_source("src/x.cpp",
                    "#include <string>\n#include <string_view>\n"
                    "std::string_view f() { static const std::string s = \"x\"; return s; }\n")
            .empty());
    // Parameters: the caller owns the storage.
    EXPECT_TRUE(lint_source("src/x.cpp",
                            "#include <string_view>\n"
                            "std::string_view f(std::string_view v) { return v; }\n")
                    .empty());
}

// ------------------------------------------------------------- scope model

/// Index of the first token with `text` on `line` (asserts it exists).
std::size_t token_at(const std::vector<Token>& tokens, std::string_view text,
                     std::uint32_t line) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].line == line && tokens[i].text == text) return i;
    }
    ADD_FAILURE() << "no token '" << text << "' on line " << line;
    return 0;
}

TEST(LintScopeModel, TracksLocalsParametersAndShadowing) {
    SourceFile file;
    file.path = "src/x.cpp";
    file.tokens = code_tokens(
        "int total = 0;\n"
        "int f(const std::vector<int>& items, int base) {\n"
        "    int total = base;\n"
        "    for (const int item : items) total += item;\n"
        "    return total;\n"
        "}\n");
    const auto model = ScopeModel::build(file);

    const Symbol* shadowed = model.lookup("total", token_at(file.tokens, "total", 5));
    ASSERT_NE(shadowed, nullptr);
    EXPECT_EQ(shadowed->line, 3u);  // the local, not the global
    EXPECT_TRUE(model.is_local(*shadowed));

    const Symbol* global = model.lookup("total", token_at(file.tokens, "total", 1));
    ASSERT_NE(global, nullptr);
    EXPECT_FALSE(model.is_local(*global));

    const Symbol* items = model.lookup("items", token_at(file.tokens, "items", 4));
    ASSERT_NE(items, nullptr);
    EXPECT_TRUE(items->is_reference);
    EXPECT_TRUE(items->is_const);
    EXPECT_NE(items->type.find("vector"), std::string::npos);
    EXPECT_TRUE(model.is_local(*items));

    const Symbol* base = model.lookup("base", token_at(file.tokens, "base", 3));
    ASSERT_NE(base, nullptr);
    EXPECT_FALSE(base->is_reference);

    const Symbol* item = model.lookup("item", token_at(file.tokens, "item", 4));
    ASSERT_NE(item, nullptr);
    EXPECT_TRUE(item->is_range_for_var);
}

TEST(LintScopeModel, ParameterCaptureEdgeCases) {
    SourceFile file;
    file.path = "src/x.cpp";
    file.tokens = code_tokens(
        "struct Foo { int v; };\n"
        "int g(const Foo&, int count = 3, char buf[16]) {\n"
        "    return count + buf[0];\n"
        "}\n");
    const auto model = ScopeModel::build(file);

    // The unnamed `const Foo&` must not capture `Foo` as a parameter name.
    for (const Symbol& symbol : model.symbols()) {
        if (symbol.name == "Foo") {
            EXPECT_FALSE(model.is_local(symbol)) << symbol.line;
        }
    }
    const Symbol* count = model.lookup("count", token_at(file.tokens, "count", 3));
    ASSERT_NE(count, nullptr);
    EXPECT_TRUE(model.is_local(*count));
    const Symbol* buf = model.lookup("buf", token_at(file.tokens, "buf", 3));
    ASSERT_NE(buf, nullptr);
    EXPECT_FALSE(buf->is_array);  // array parameters decay to pointers
}

// ------------------------------------------------------------- taint flow

TEST(LintTaint, AliasOfUnorderedContainerStaysTainted) {
    const std::string source =
        "#include <unordered_map>\n"
        "int f() { std::unordered_map<int, int> table;\n"
        "    auto& view = table;\n"
        "    int s = 0; for (const auto& [k, v] : view) s += v; return s; }\n";
    const auto findings = lint_source("src/analysis/x.cpp", source);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-unordered-iteration-in-output");
    EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintTaint, DerivedContainerCarriesHashOrder) {
    const std::string source =
        "#include <unordered_map>\n#include <vector>\n"
        "int f() { std::unordered_map<int, int> table; std::vector<int> keys;\n"
        "    for (const auto& [k, v] : table) keys.push_back(k);\n"
        "    int s = 0; for (const int k : keys) s += k; return s; }\n";
    const auto findings = lint_source("src/analysis/x.cpp", source);
    ASSERT_EQ(findings.size(), 2u);  // the direct loop and the derived loop
    EXPECT_EQ(findings[1].line, 5u);
    EXPECT_NE(findings[1].message.find("hash order"), std::string::npos);
    EXPECT_NE(findings[1].message.find("'table'"), std::string::npos);
}

TEST(LintTaint, SortClearsDerivedTaint) {
    const std::string source =
        "#include <algorithm>\n#include <unordered_map>\n#include <vector>\n"
        "int f() { std::unordered_map<int, int> table; std::vector<int> keys;\n"
        "    for (const auto& [k, v] : table) keys.push_back(k);\n"
        "    std::sort(keys.begin(), keys.end());\n"
        "    int s = 0; for (const int k : keys) s += k; return s; }\n";
    const auto findings = lint_source("src/analysis/x.cpp", source);
    // Only the direct loop over the unordered map remains.
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 5u);
}

// ------------------------------------------------------------ suppressions

TEST(LintSuppressions, InlineAndStandaloneForms) {
    const auto inline_form = lint_source(
        "src/x.cpp",
        "bool f(double x) { return x == 0.0; }  "
        "// tvacr-lint: allow(no-float-equality) sentinel\n");
    EXPECT_TRUE(inline_form.empty()) << render_text(inline_form);

    const auto standalone = lint_source(
        "src/x.cpp",
        "// tvacr-lint: allow(no-float-equality) sentinel\n"
        "bool f(double x) { return x == 0.0; }\n");
    EXPECT_TRUE(standalone.empty()) << render_text(standalone);
}

TEST(LintSuppressions, UnusedSuppressionIsReported) {
    const auto findings = lint_source(
        "src/x.cpp", "// tvacr-lint: allow(no-wallclock) stale\nconstexpr int x = 1;\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kUnusedSuppressionRule);
    EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintSuppressions, MalformedAndUnknownRuleAreReported) {
    const auto counts = count_by_rule(lint_source(
        "src/x.cpp",
        "// tvacr-lint: allow(not-a-rule) reason\n"
        "// tvacr-lint: allow(no-wallclock)\n"
        "// tvacr-lint: something else\n"
        "constexpr int x = 1;\n"));
    EXPECT_EQ(counts.at(kMalformedSuppressionRule), 3);
}

TEST(LintSuppressions, SuppressionOnlyCoversItsOwnRule) {
    const auto findings = lint_source(
        "src/x.cpp",
        "bool f(double x) { return x == 0.0; }  "
        "// tvacr-lint: allow(no-wallclock) wrong rule\n");
    const auto counts = count_by_rule(findings);
    EXPECT_EQ(counts.at("no-float-equality"), 1);
    EXPECT_EQ(counts.at(kUnusedSuppressionRule), 1);
}

TEST(LintSuppressions, DocCommentsMentioningMarkerAreNotSuppressions) {
    const auto findings = lint_source(
        "src/x.cpp",
        "// usage:  // tvacr-lint: allow(<rule>) <reason>\nconstexpr int x = 1;\n");
    EXPECT_TRUE(findings.empty()) << render_text(findings);
}

// ---------------------------------------------------------------- fixtures

std::string fixture_root() { return TVACR_LINT_FIXTURE_DIR; }

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
}

/// Lints one fixture, keyed by its path relative to the fixture root (which
/// mirrors the repo layout so scoped rules engage).
std::vector<Finding> lint_fixture(const std::string& relative) {
    return Registry::with_builtin_rules().run_file(relative,
                                                   read_file(fixture_root() + "/" + relative));
}

TEST(LintFixtures, FiringFixturesFireExactlyTheirRule) {
    const std::map<std::string, std::pair<std::string, int>> expected = {
        {"src/wallclock_firing.cpp", {"no-wallclock", 4}},
        {"src/ambient_random_firing.cpp", {"no-ambient-random", 4}},
        {"src/analysis/unordered_firing.cpp", {"no-unordered-iteration-in-output", 2}},
        {"src/iostream_firing.cpp", {"no-iostream-in-lib", 3}},
        {"src/raw_new_firing.cpp", {"no-raw-new-delete", 2}},
        {"src/missing_pragma_once.h", {"pragma-once-required", 1}},
        {"src/float_eq_firing.cpp", {"no-float-equality", 3}},
        {"src/float_spelling_firing.cpp", {"float-literal-spelling", 3}},
        {"src/mutable_global_firing.cpp", {"no-mutable-global-in-lib", 2}},
        {"src/ref_capture_firing.cpp", {"no-ref-capture-into-threadpool", 2}},
        {"src/lock_firing.cpp", {"lock-before-shared-write", 1}},
        {"src/view_escape_firing.cpp", {"no-view-escape", 1}},
        {"src/unused_suppression.cpp", {kUnusedSuppressionRule, 1}},
        {"src/malformed_suppression.cpp", {kMalformedSuppressionRule, 3}},
    };
    for (const auto& [relative, rule_and_count] : expected) {
        const auto findings = lint_fixture(relative);
        const auto counts = count_by_rule(findings);
        EXPECT_EQ(counts.size(), 1u) << relative << "\n" << render_text(findings);
        ASSERT_TRUE(counts.count(rule_and_count.first) > 0)
            << relative << " expected " << rule_and_count.first;
        EXPECT_EQ(counts.at(rule_and_count.first), rule_and_count.second) << relative;
    }
}

TEST(LintFixtures, SuppressedAndCleanFixturesAreSilent) {
    const std::vector<std::string> silent = {
        "src/wallclock_suppressed.cpp",  "src/wallclock_clean.cpp",
        "src/common/thread_pool.cpp",    "src/common/rng.cpp",
        "src/ambient_random_suppressed.cpp",
        "src/analysis/unordered_suppressed.cpp",
        "src/analysis/unordered_clean.cpp",
        "src/tv/unordered_out_of_scope.cpp",
        "src/iostream_suppressed.cpp",   "src/raw_new_suppressed.cpp",
        "src/raw_new_clean.cpp",         "src/pragma_once_suppressed.h",
        "src/float_eq_suppressed.cpp",   "src/clean.cpp",
        "src/clean_header.hpp",
        "src/float_spelling_suppressed.cpp",
        "src/mutable_global_suppressed.cpp",
        "src/ref_capture_suppressed.cpp",
        "src/lock_suppressed.cpp",
        "src/view_escape_suppressed.cpp",
        "graph/src/common/util.hpp",     "graph/src/net/packet.hpp",
        "graph/src/net/socket.hpp",      "graph/src/dns/resolver.hpp",
        "graph/src/analysis/report.hpp", "graph/src/fp/match.hpp",
    };
    for (const auto& relative : silent) {
        const auto findings = lint_fixture(relative);
        EXPECT_TRUE(findings.empty()) << relative << "\n" << render_text(findings);
    }
}

// ------------------------------------------------------------------ report

std::vector<std::pair<std::string, std::string>> all_fixture_sources() {
    std::vector<std::string> relatives;
    const std::filesystem::path root(fixture_root());
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file()) {
            relatives.push_back(entry.path().lexically_relative(root).generic_string());
        }
    }
    std::sort(relatives.begin(), relatives.end());
    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(relatives.size());
    for (const auto& relative : relatives) {
        sources.emplace_back(relative, read_file(fixture_root() + "/" + relative));
    }
    return sources;
}

TEST(LintReport, TextAndJsonAreStableAcrossInputOrder) {
    auto sources = all_fixture_sources();
    const auto registry = Registry::with_builtin_rules();
    const auto forward = registry.run_files(sources);
    std::reverse(sources.begin(), sources.end());
    const auto reversed = registry.run_files(sources);
    EXPECT_EQ(render_text(forward), render_text(reversed));
    EXPECT_EQ(render_json(forward), render_json(reversed));
}

TEST(LintReport, JsonEscapesAndCounts) {
    const std::vector<Finding> findings = {
        {"src/a \"b\".cpp", 3, "no-wallclock", "line\nbreak"},
        {"src/a.cpp", 1, "no-wallclock", "plain"},
    };
    const std::string json = render_json(findings);
    EXPECT_NE(json.find("\\\"b\\\""), std::string::npos);
    EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
    EXPECT_NE(json.find("\"no-wallclock\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"finding_count\": 2"), std::string::npos);
    // Sorted: src/a.cpp before the quoted path ('"' < 'a' is false — verify
    // actual order is lexicographic on the raw path bytes).
    EXPECT_LT(json.find("src/a \\\"b\\\".cpp"), json.find("src/a.cpp"));
}

/// Golden regression: the JSON report over the whole fixture tree is
/// byte-stable. TVACR_UPDATE_GOLDEN=1 regenerates tests/golden/lint_report.json.
TEST(LintReport, GoldenJsonReport) {
    const auto registry = Registry::with_builtin_rules();
    const std::string json = render_json(registry.run_files(all_fixture_sources()));
    const std::string golden_path = std::string(TVACR_GOLDEN_DIR) + "/lint_report.json";
    if (std::getenv("TVACR_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << golden_path;
        out << json;
        GTEST_SKIP() << "golden regenerated at " << golden_path;
    }
    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << golden_path
                    << " (run with TVACR_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(json, expected.str());
}

// ----------------------------------------------------------- include graph

/// A fixture subtree (default tests/lint_fixtures/graph/), keyed by
/// src/-relative display paths so the layering contract engages.
std::vector<std::pair<std::string, std::string>> graph_fixture_sources(
    const std::string& subtree = "graph") {
    const std::filesystem::path root = std::filesystem::path(fixture_root()) / subtree;
    std::vector<std::string> relatives;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file()) {
            relatives.push_back(entry.path().lexically_relative(root).generic_string());
        }
    }
    std::sort(relatives.begin(), relatives.end());
    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(relatives.size());
    for (const auto& relative : relatives) {
        sources.emplace_back(relative, read_file((root / relative).generic_string()));
    }
    return sources;
}

TEST(LintIncludeGraph, ModuleOfResolvesPathsAndIncludeStrings) {
    EXPECT_EQ(module_of("src/net/socket.hpp"), "net");
    EXPECT_EQ(module_of("/root/repo/src/dns/resolver.cpp"), "dns");
    EXPECT_EQ(module_of("net/packet.hpp"), "net");       // an include string
    EXPECT_EQ(module_of("tools/tvacr_lint.cpp"), "tools");
    EXPECT_EQ(module_of("lonely.cpp"), "");
}

TEST(LintIncludeGraph, ContractOnlyNamesContractModules) {
    const auto& contract = layering_contract();
    for (const auto& [module, deps] : contract) {
        for (const auto& dep : deps) {
            EXPECT_TRUE(contract.count(dep) > 0) << module << " -> " << dep;
        }
    }
}

TEST(LintIncludeGraph, LayeringViolationsAndCycleAreFound) {
    const auto graph = IncludeGraph::build(graph_fixture_sources());
    std::vector<Finding> findings;
    graph.check(findings);
    const auto counts = count_by_rule(findings);
    EXPECT_EQ(counts.at(kIncludeLayeringRule), 2);  // net -> dns, fp -> analysis
    EXPECT_EQ(counts.at(kIncludeCycleRule), 1);     // dns <-> net
    bool saw_cycle = false;
    for (const auto& finding : findings) {
        if (finding.rule == kIncludeCycleRule) {
            saw_cycle = true;
            EXPECT_NE(finding.message.find("dns"), std::string::npos);
            EXPECT_NE(finding.message.find("net"), std::string::npos);
        }
    }
    EXPECT_TRUE(saw_cycle);
}

TEST(LintIncludeGraph, LibraryIncludingTheTestOracleIsALayeringFinding) {
    // tests/oracle holds reference engines for tests and benches only; the
    // contract lists "oracle" with no module allowed to depend on it.
    const auto& contract = layering_contract();
    ASSERT_EQ(contract.count("oracle"), 1u);
    for (const auto& [module, deps] : contract) EXPECT_EQ(deps.count("oracle"), 0u) << module;

    std::vector<Finding> findings;
    IncludeGraph::build(graph_fixture_sources("oracle")).check(findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, kIncludeLayeringRule);
    EXPECT_EQ(findings[0].path, "src/analysis/engine.hpp");
    EXPECT_EQ(findings[0].line, 5u);
    EXPECT_NE(findings[0].message.find("module 'analysis' may not include 'oracle/serial.hpp'"),
              std::string::npos)
        << findings[0].message;
}

TEST(LintIncludeGraph, CheckIsStableAcrossInputOrder) {
    // Cycle findings are anchored at the first edge of the cycle in the
    // graph's edge order, so that order must not depend on input order.
    auto sources = graph_fixture_sources();
    std::vector<Finding> forward;
    IncludeGraph::build(sources).check(forward);
    std::reverse(sources.begin(), sources.end());
    std::vector<Finding> reversed;
    IncludeGraph::build(sources).check(reversed);
    EXPECT_EQ(forward, reversed);
    EXPECT_EQ(forward.size(), 3u);
}

TEST(LintCatalogue, EveryRuleIsRegisteredAndListed) {
    const auto registry = Registry::with_builtin_rules();
    const std::vector<std::string> names = {
        "no-wallclock",
        "no-ambient-random",
        "no-unordered-iteration-in-output",
        "no-iostream-in-lib",
        "no-raw-new-delete",
        "pragma-once-required",
        "no-float-equality",
        "float-literal-spelling",
        "no-mutable-global-in-lib",
        "no-ref-capture-into-threadpool",
        "lock-before-shared-write",
        "no-view-escape",
    };
    EXPECT_EQ(registry.rules().size(), names.size());
    const std::string listing = render_rule_list(registry);
    for (const auto& name : names) {
        EXPECT_NE(registry.find(name), nullptr) << name;
        EXPECT_NE(listing.find(name), std::string::npos) << name;
    }
    EXPECT_NE(listing.find(kUnusedSuppressionRule), std::string::npos);
    EXPECT_NE(listing.find(kMalformedSuppressionRule), std::string::npos);
}

}  // namespace
}  // namespace tvacr::lint
