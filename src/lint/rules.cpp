// The determinism/correctness rule catalogue.
//
// Every rule here exists to protect one guarantee: simulator output
// (pcap/metrics/trace bytes) is a pure function of (spec, seed), byte-equal
// across --jobs 1 and --jobs N. The golden-trace tests check that guarantee
// dynamically; these rules enforce its preconditions statically, at the
// source level, so a violation is caught even when no test exercises it.
// DESIGN.md §6 documents each rule and its allowlist.
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <string>

#include "lint/rule.hpp"
#include "lint/scope.hpp"

namespace tvacr::lint {
namespace {

using Findings = std::vector<Finding>;

const Token* token_at(const SourceFile& file, std::size_t i) {
    return i < file.tokens.size() ? &file.tokens[i] : nullptr;
}
const Token* prev_token(const SourceFile& file, std::size_t i) {
    return i > 0 ? &file.tokens[i - 1] : nullptr;
}

bool is_any_of(const Token& token, std::initializer_list<const char*> spellings) {
    for (const char* s : spellings) {
        if (token.text == s) return true;
    }
    return false;
}

/// no-wallclock: ambient time sources. Sim code must read time from the
/// event loop (simulator.now()), never from the host — a wall-clock read is
/// invisible nondeterminism that changes output across runs and machines.
/// Member calls obj.now() / ptr->now() are sim-time accessors and exempt.
class NoWallclockRule final : public Rule {
  public:
    NoWallclockRule()
        : Rule("no-wallclock",
               "host clocks (system_clock/steady_clock, time(), localtime, qualified or bare "
               "argless now()) are nondeterministic; read sim-time from the Simulator instead",
               /*scopes=*/{},
               /*allowlist=*/{"common/thread_pool.", "core/matrix_runner.cpp"}) {}

    void check(const SourceFile& file, Findings& out) const override {
        for (std::size_t i = 0; i < file.tokens.size(); ++i) {
            const Token& token = file.tokens[i];
            if (token.kind != TokenKind::kIdentifier) continue;
            if (is_any_of(token, {"system_clock", "steady_clock", "high_resolution_clock"})) {
                report(file, token.line, "host clock '" + token.text + "'", out);
                continue;
            }
            if (is_any_of(token, {"localtime", "gmtime", "ctime", "asctime", "gettimeofday",
                                  "clock_gettime", "mktime"})) {
                report(file, token.line, "wall-clock conversion '" + token.text + "'", out);
                continue;
            }
            const Token* next = token_at(file, i + 1);
            const Token* prev = prev_token(file, i);
            if (token.text == "time" && next != nullptr && next->is_punct("(") &&
                (prev == nullptr || (!prev->is_punct(".") && !prev->is_punct("->")))) {
                report(file, token.line, "C time() reads the host clock", out);
                continue;
            }
            if (token.text == "now" && next != nullptr && next->is_punct("(")) {
                const Token* closing = token_at(file, i + 2);
                if (closing == nullptr || !closing->is_punct(")")) continue;  // has arguments
                // Member access (.now/->now) is sim-time; an identifier
                // before `now` means this is a declaration, not a call.
                if (prev != nullptr &&
                    (prev->is_punct(".") || prev->is_punct("->") ||
                     prev->kind == TokenKind::kIdentifier)) {
                    continue;
                }
                // A qualified name followed by const/noexcept/{ is an
                // out-of-line member definition, also not a call.
                const Token* after = token_at(file, i + 3);
                if (after != nullptr &&
                    (after->is_identifier("const") || after->is_identifier("noexcept") ||
                     after->is_punct("{"))) {
                    continue;
                }
                report(file, token.line, "argless now() call outside the simulator", out);
            }
        }
    }
};

/// no-ambient-random: all randomness must flow from the experiment seed via
/// tvacr::Rng. std::random_device & friends produce run-to-run different
/// streams, silently breaking (spec, seed) -> bytes reproducibility.
class NoAmbientRandomRule final : public Rule {
  public:
    NoAmbientRandomRule()
        : Rule("no-ambient-random",
               "ambient randomness (std::rand, srand, random_device, std engines) is not "
               "seed-reproducible; draw from tvacr::Rng",
               /*scopes=*/{},
               /*allowlist=*/{"common/rng."}) {}

    void check(const SourceFile& file, Findings& out) const override {
        for (const Token& token : file.tokens) {
            if (token.kind != TokenKind::kIdentifier) continue;
            if (is_any_of(token, {"rand", "srand", "rand_r", "random_device", "mt19937",
                                  "mt19937_64", "minstd_rand", "default_random_engine"})) {
                report(file, token.line, "ambient random source '" + token.text + "'", out);
            }
        }
    }
};

/// no-unordered-iteration-in-output: in the layers that emit bytes
/// (analysis/export/obs/core), a range-for over a hash container leaks
/// hash-order — which varies with libstdc++ version, seed, and insertion
/// history — straight into reports. Iterate a std::map or sort first.
///
/// Flow-aware: the ScopeModel resolves names to declarations, so the rule
/// tracks hash-order *through* intermediate locals — an alias copy
/// (`auto rows = index;`), and containers filled inside a loop over a
/// tainted source — and clears the taint once the data passes through
/// sort()/stable_sort(). A local with the same name as a clean container in
/// another scope no longer trips the rule (pre-semantic versions matched
/// bare names file-wide).
class NoUnorderedIterationRule final : public Rule {
  public:
    NoUnorderedIterationRule()
        : Rule("no-unordered-iteration-in-output",
               "range-for over unordered_map/unordered_set (or a local carrying its elements) "
               "in output-emitting layers leaks hash-order into emitted bytes; use std::map or "
               "sort before emitting",
               /*scopes=*/{"src/analysis", "src/export", "src/obs", "src/core"},
               /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        const ScopeModel& model = scope_model(file);
        const auto& toks = file.tokens;

        // Taint: symbol -> name of the unordered container whose hash-order
        // its contents carry. Seeded by declared type; spread through alias
        // initialization and push-into-destination inside a tainted loop;
        // cleared by sort()/stable_sort() over the symbol. The single linear
        // pass keeps events (declare, sort, iterate) in program order.
        std::map<const Symbol*, std::string> tainted;
        std::map<std::size_t, const Symbol*> decl_at;  // name_token -> symbol
        for (const Symbol& s : model.symbols()) {
            if (s.type.find("unordered_") != std::string::npos) tainted[&s] = s.name;
            decl_at[s.name_token] = &s;
        }

        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Token& token = toks[i];

            // Alias spread: `auto rows = src;` / `auto rows{src};`, optionally
            // through std::move. Only an exact single-identifier initializer
            // aliases — calls and arithmetic don't copy iteration order.
            const auto decl = decl_at.find(i);
            if (decl != decl_at.end()) {
                if (const Symbol* src = alias_source(model, toks, i)) {
                    const auto taint = tainted.find(src);
                    if (taint != tainted.end()) tainted[decl->second] = taint->second;
                }
                continue;
            }

            // sort() re-establishes a deterministic order: clear every symbol
            // named in the call args, and `x` in `x.sort()`.
            if ((token.is_identifier("sort") || token.is_identifier("stable_sort")) &&
                i + 1 < toks.size() && toks[i + 1].is_punct("(")) {
                const Token* prev = prev_token(file, i);
                if (prev != nullptr && (prev->is_punct(".") || prev->is_punct("->")) && i >= 2 &&
                    toks[i - 2].kind == TokenKind::kIdentifier) {
                    if (const Symbol* obj = model.lookup(toks[i - 2].text, i - 2)) {
                        tainted.erase(obj);
                    }
                }
                int depth = 0;
                for (std::size_t j = i + 1; j < toks.size(); ++j) {
                    const Token& t = toks[j];
                    if (t.is_punct("(")) ++depth;
                    if (t.is_punct(")") && --depth == 0) break;
                    if (t.kind == TokenKind::kIdentifier) {
                        if (const Symbol* arg = model.lookup(t.text, j)) tainted.erase(arg);
                    }
                }
                continue;
            }

            if (!token.is_identifier("for") || i + 1 >= toks.size() ||
                !toks[i + 1].is_punct("(")) {
                continue;
            }
            int depth = 0;
            std::size_t colon = 0;
            std::size_t close = 0;
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const Token& t = toks[j];
                if (t.is_punct("(")) ++depth;
                if (t.is_punct(")")) {
                    if (--depth == 0) {
                        close = j;
                        break;
                    }
                }
                if (depth == 1 && colon == 0 && t.is_punct(":")) colon = j;
            }
            if (colon == 0 || close == 0) continue;  // classic for, or unterminated

            // Fire if the range expression resolves to a tainted symbol or
            // spells an unordered container type inline.
            std::string origin;
            for (std::size_t j = colon + 1; j < close && origin.empty(); ++j) {
                const Token& t = toks[j];
                if (t.kind != TokenKind::kIdentifier) continue;
                if (t.text.rfind("unordered_", 0) == 0) {
                    origin = t.text;
                    report(file, token.line,
                           "range-for over unordered container '" + t.text + "'", out);
                    break;
                }
                const Symbol* sym = model.lookup(t.text, j);
                if (sym == nullptr) continue;
                const auto taint = tainted.find(sym);
                if (taint == tainted.end()) continue;
                origin = taint->second;
                if (taint->second == sym->name) {
                    report(file, token.line,
                           "range-for over unordered container '" + sym->name + "'", out);
                } else {
                    report(file, token.line,
                           "range-for over '" + sym->name + "', which carries elements of "
                           "unordered container '" + taint->second + "' in hash order",
                           out);
                }
            }
            if (origin.empty()) continue;

            // Derived taint: destinations the loop body pushes into now carry
            // the source's hash-order.
            std::size_t body_end = close;
            if (close + 1 < toks.size() && toks[close + 1].is_punct("{")) {
                for (const Scope& s : model.scopes()) {
                    if (s.open_token == close + 1) {
                        body_end = s.close_token;
                        break;
                    }
                }
            } else {
                for (std::size_t j = close + 1; j < toks.size(); ++j) {
                    if (toks[j].is_punct(";")) {
                        body_end = j;
                        break;
                    }
                }
            }
            for (std::size_t j = close + 1; j + 1 < body_end; ++j) {
                const Token& t = toks[j];
                if (t.kind != TokenKind::kIdentifier) continue;
                const Token& n1 = toks[j + 1];
                bool pushes = n1.is_punct("+=");
                if ((n1.is_punct(".") || n1.is_punct("->")) && j + 2 < body_end &&
                    is_any_of(toks[j + 2], {"push_back", "emplace_back", "push_front", "insert",
                                            "emplace", "append"})) {
                    pushes = true;
                }
                if (!pushes) continue;
                const Symbol* dst = model.lookup(t.text, j);
                if (dst != nullptr && tainted.find(dst) == tainted.end()) tainted[dst] = origin;
            }
        }
    }

  private:
    /// If the declaration named at `name_index` is initialized from exactly
    /// one identifier (`= src;`, `{src}`, or `= std::move(src);`), returns
    /// that identifier's symbol; else nullptr.
    static const Symbol* alias_source(const ScopeModel& model, const std::vector<Token>& toks,
                                      std::size_t name_index) {
        std::size_t j = name_index + 1;
        if (j >= toks.size()) return nullptr;
        bool brace = false;
        if (toks[j].is_punct("=")) {
            ++j;
        } else if (toks[j].is_punct("{")) {
            brace = true;
            ++j;
        } else {
            return nullptr;
        }
        bool moved = false;
        if (j + 3 < toks.size() && toks[j].is_identifier("std") && toks[j + 1].is_punct("::") &&
            toks[j + 2].is_identifier("move") && toks[j + 3].is_punct("(")) {
            moved = true;
            j += 4;
        }
        if (j >= toks.size() || toks[j].kind != TokenKind::kIdentifier) return nullptr;
        const std::size_t ident = j;
        ++j;
        if (moved) {
            if (j >= toks.size() || !toks[j].is_punct(")")) return nullptr;
            ++j;
        }
        if (j >= toks.size()) return nullptr;
        if (!(brace ? toks[j].is_punct("}") : toks[j].is_punct(";"))) return nullptr;
        return model.lookup(toks[ident].text, ident);
    }
};

/// no-iostream-in-lib: library code reports through return values and the
/// obs layer; printing from src/ interleaves nondeterministically under
/// --jobs N and corrupts tool output contracts. CLIs/benches/tests print.
class NoIostreamInLibRule final : public Rule {
  public:
    NoIostreamInLibRule()
        : Rule("no-iostream-in-lib",
               "library code must not print (std::cout/printf/puts); return data or use "
               "tvacr::obs — stdout from workers interleaves nondeterministically",
               /*scopes=*/{"src"},
               /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        for (const Token& token : file.tokens) {
            if (token.kind != TokenKind::kIdentifier) continue;
            if (is_any_of(token, {"cout", "printf", "puts"})) {
                report(file, token.line, "direct stdout write via '" + token.text + "'", out);
            }
        }
    }
};

/// no-raw-new-delete: owning raw pointers make worker-lifetime bugs (and
/// ASan/TSan noise) likely; the codebase is value-and-unique_ptr based.
class NoRawNewDeleteRule final : public Rule {
  public:
    NoRawNewDeleteRule()
        : Rule("no-raw-new-delete",
               "raw new/delete; use values, containers, or std::make_unique "
               "(deleted special members and operator new/delete are exempt)",
               /*scopes=*/{},
               /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        for (std::size_t i = 0; i < file.tokens.size(); ++i) {
            const Token& token = file.tokens[i];
            const Token* prev = prev_token(file, i);
            if (token.is_identifier("new")) {
                if (prev != nullptr && prev->is_identifier("operator")) continue;
                report(file, token.line, "raw 'new'", out);
            } else if (token.is_identifier("delete")) {
                if (prev != nullptr &&
                    (prev->is_punct("=") || prev->is_identifier("operator"))) {
                    continue;  // `= delete` / operator delete declaration
                }
                report(file, token.line, "raw 'delete'", out);
            }
        }
    }
};

/// pragma-once-required: every header guards itself the same way; a missing
/// guard breaks unity/jumbo builds and double-definition hygiene.
class PragmaOnceRequiredRule final : public Rule {
  public:
    PragmaOnceRequiredRule()
        : Rule("pragma-once-required", "headers must start with #pragma once",
               /*scopes=*/{}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        const auto& path = file.path;
        const bool header =
            path.ends_with(".hpp") || path.ends_with(".h") || path.ends_with(".hh");
        if (!header) return;
        for (const Token& token : file.tokens) {
            if (token.kind != TokenKind::kPreprocessor) continue;
            // Normalize "#  pragma   once".
            std::string collapsed;
            for (const char c : token.text) {
                if (c == ' ' || c == '\t') {
                    if (!collapsed.empty() && collapsed.back() != ' ') collapsed.push_back(' ');
                } else {
                    collapsed.push_back(c);
                }
            }
            if (collapsed == "#pragma once" || collapsed == "# pragma once") return;
        }
        report(file, 1, "header lacks #pragma once", out);
    }
};

/// no-float-equality: == / != against a floating literal is almost always a
/// rounding bug; exact-sentinel comparisons must be suppressed with a reason
/// so the intent is recorded next to the comparison.
class NoFloatEqualityRule final : public Rule {
  public:
    NoFloatEqualityRule()
        : Rule("no-float-equality",
               "==/!= against a floating-point literal; compare with a tolerance, or suppress "
               "with a reason for exact-sentinel checks",
               /*scopes=*/{}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        for (std::size_t i = 0; i < file.tokens.size(); ++i) {
            const Token& token = file.tokens[i];
            if (!token.is_punct("==") && !token.is_punct("!=")) continue;
            const Token* prev = prev_token(file, i);
            const Token* next = token_at(file, i + 1);
            // Allow one unary sign between the operator and the literal.
            if (next != nullptr && (next->is_punct("-") || next->is_punct("+"))) {
                next = token_at(file, i + 2);
            }
            const bool lhs_float = prev != nullptr && prev->kind == TokenKind::kNumber &&
                                   is_float_literal(prev->text);
            const bool rhs_float = next != nullptr && next->kind == TokenKind::kNumber &&
                                   is_float_literal(next->text);
            if (lhs_float || rhs_float) {
                report(file, token.line,
                       "floating-point literal compared with '" + token.text + "'", out);
            }
        }
    }
};

/// float-literal-spelling: `.5` and `1.` parse fine but read badly and are
/// a grep/diff hazard; the canonical spelling has digits on both sides of
/// the point.
class FloatLiteralSpellingRule final : public Rule {
  public:
    FloatLiteralSpellingRule()
        : Rule("float-literal-spelling",
               "float literal lacks a digit on one side of the point (.5 / 1.); spell it "
               "0.5 / 1.0",
               /*scopes=*/{}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        for (const Token& token : file.tokens) {
            if (token.kind != TokenKind::kNumber || !is_float_literal(token.text)) continue;
            const bool hex = token.text.size() > 1 && token.text[0] == '0' &&
                             (token.text[1] == 'x' || token.text[1] == 'X');
            if (hex) continue;  // hex floats have their own grammar
            const std::size_t dot = token.text.find('.');
            if (dot == std::string::npos) continue;  // exponent-only (1e9)
            const bool digit_before =
                dot > 0 && std::isdigit(static_cast<unsigned char>(token.text[dot - 1])) != 0;
            const bool digit_after =
                dot + 1 < token.text.size() &&
                std::isdigit(static_cast<unsigned char>(token.text[dot + 1])) != 0;
            if (digit_before && digit_after) continue;
            std::string fixed = token.text;
            if (!digit_after) fixed.insert(dot + 1, 1, '0');
            if (!digit_before) fixed.insert(dot, 1, '0');
            report(file, token.line,
                   "float literal '" + token.text + "' should be spelled '" + fixed + "'", out);
        }
    }
};

/// no-mutable-global-in-lib: namespace-scope mutable state is shared across
/// every worker thread and every experiment run in the process; it breaks
/// (spec, seed) reproducibility and is a data race waiting for --jobs N.
/// Constants are fine; anything else must be owned and passed explicitly.
class NoMutableGlobalRule final : public Rule {
  public:
    NoMutableGlobalRule()
        : Rule("no-mutable-global-in-lib",
               "mutable namespace-scope variable in library code is cross-thread shared state; "
               "make it constexpr/const or pass it explicitly",
               /*scopes=*/{"src"}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        const ScopeModel& model = scope_model(file);
        for (const Symbol& s : model.symbols()) {
            const ScopeKind kind = model.scopes()[s.scope].kind;
            if (kind != ScopeKind::kFile && kind != ScopeKind::kNamespace) continue;
            if (s.is_const) continue;
            report(file, s.line, "mutable global '" + s.name + "' of type '" + s.type + "'",
                   out);
        }
    }
};

/// no-ref-capture-into-threadpool: a lambda handed to ThreadPool::submit
/// runs on another thread, possibly after the submitting frame returned; a
/// by-reference capture is then a dangling reference. Capture by value, or
/// suppress with the join-before-return argument spelled out.
class NoRefCaptureThreadpoolRule final : public Rule {
  public:
    NoRefCaptureThreadpoolRule()
        : Rule("no-ref-capture-into-threadpool",
               "by-reference lambda capture submitted to a thread pool can dangle if the "
               "frame returns first; capture by value, or suppress with the join-before-"
               "return reason",
               /*scopes=*/{}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        const auto& toks = file.tokens;
        for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
            if (!toks[i].is_identifier("submit")) continue;
            const Token* prev = prev_token(file, i);
            if (prev == nullptr || (!prev->is_punct(".") && !prev->is_punct("->"))) continue;
            if (!toks[i + 1].is_punct("(")) continue;
            const std::size_t open = i + 2;
            if (!toks[open].is_punct("[")) continue;  // not a lambda literal
            for (std::size_t j = open + 1; j < toks.size() && !toks[j].is_punct("]"); ++j) {
                if (toks[j].is_punct("&")) {  // [&] or [&name]; '&&' never appears in captures
                    report(file, toks[open].line,
                           "lambda submitted to a thread pool captures by reference", out);
                    break;
                }
            }
        }
    }
};

/// lock-before-shared-write: in a class that owns a mutex, the mutex exists
/// to guard the other mutable members; a method that writes one before any
/// visible lock acquisition (lock_guard/unique_lock/scoped_lock/shared_lock
/// or an explicit .lock()) is a data-race candidate. Heuristic and per-file:
/// constructors, destructors and operators are exempt (objects are built
/// and torn down unshared), and methods defined out-of-line in another file
/// are out of reach.
class LockBeforeSharedWriteRule final : public Rule {
  public:
    LockBeforeSharedWriteRule()
        : Rule("lock-before-shared-write",
               "member of a mutex-guarded class written before any visible lock acquisition "
               "in the method; take the lock first, or suppress with the synchronisation "
               "argument",
               /*scopes=*/{"src"}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        const ScopeModel& model = scope_model(file);
        const auto& scopes = model.scopes();
        for (std::uint32_t ci = 0; ci < scopes.size(); ++ci) {
            const Scope& cls = scopes[ci];
            if (cls.kind != ScopeKind::kClass || cls.name.empty()) continue;
            bool has_mutex = false;
            std::set<std::string> guarded;
            for (const Symbol& s : model.symbols()) {
                if (s.scope != ci) continue;
                if (s.type.find("mutex") != std::string::npos) {
                    has_mutex = true;
                    continue;
                }
                if (s.is_const || s.type.find("atomic") != std::string::npos ||
                    s.type.find("condition_variable") != std::string::npos ||
                    s.type.find("thread") != std::string::npos) {
                    continue;  // lock-free or synchronisation machinery itself
                }
                guarded.insert(s.name);
            }
            if (!has_mutex || guarded.empty()) continue;

            for (const Scope& fn : scopes) {
                if (fn.kind != ScopeKind::kFunction) continue;
                const bool member =
                    fn.parent == ci || (fn.name.size() > cls.name.size() + 2 &&
                                        fn.name.rfind(cls.name + "::", 0) == 0);
                if (!member) continue;
                std::string last = fn.name;
                const std::size_t sep = last.rfind("::");
                if (sep != std::string::npos) last = last.substr(sep + 2);
                // Ctors/dtors/operators run while the object is unshared (or
                // are the synchronisation primitives themselves).
                if (last.empty() || last == cls.name || last[0] == '~' ||
                    last.find("operator") != std::string::npos) {
                    continue;
                }
                check_method(file, model, fn, guarded, out);
            }
        }
    }

  private:
    void check_method(const SourceFile& file, const ScopeModel& model, const Scope& fn,
                      const std::set<std::string>& guarded, Findings& out) const {
        const auto& toks = file.tokens;
        for (std::size_t i = fn.open_token + 1; i + 1 < fn.close_token; ++i) {
            const Token& t = toks[i];
            if (t.kind != TokenKind::kIdentifier) continue;
            // Any lock acquisition puts the rest of the method under guard.
            if (is_any_of(t, {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"})) {
                return;
            }
            if (t.text == "lock" && i > 0 &&
                (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("->"))) {
                return;
            }
            if (guarded.count(t.text) == 0) continue;
            const Token& prevt = toks[i - 1];
            if (prevt.is_punct(".")) continue;  // someone else's member
            if (prevt.is_punct("->") && (i < 2 || !toks[i - 2].is_identifier("this"))) continue;
            const Symbol* resolved = model.lookup(t.text, i);
            if (resolved != nullptr && model.is_local(*resolved)) continue;  // shadowed
            const Token& next = toks[i + 1];
            const bool write =
                (next.kind == TokenKind::kPunct &&
                 is_any_of(next, {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
                                  ">>=", "++", "--"})) ||
                (prevt.kind == TokenKind::kPunct &&
                 (prevt.text == "++" || prevt.text == "--"));
            if (!write) continue;
            const std::string where = fn.name.empty() ? "a method" : "'" + fn.name + "'";
            report(file, t.line,
                   "write to '" + t.text + "' in " + where + " before any lock acquisition",
                   out);
            return;  // one finding per method
        }
    }
};

/// no-view-escape: a function whose return type is a view (PacketView,
/// std::span, std::string_view), pointer, or reference must not return one
/// tied to a function-local buffer — the storage dies at return. Locals are
/// recognised by owning type (string/vector/array/stream/Arena/...); static
/// locals, references, and parameters are fine.
class NoViewEscapeRule final : public Rule {
  public:
    NoViewEscapeRule()
        : Rule("no-view-escape",
               "returning a view/pointer/reference over a function-local buffer, which is "
               "destroyed at return; return an owning value instead",
               /*scopes=*/{}, /*allowlist=*/{}) {}

    void check(const SourceFile& file, Findings& out) const override {
        const ScopeModel& model = scope_model(file);
        const auto& toks = file.tokens;
        const auto& scopes = model.scopes();
        for (std::uint32_t fi = 0; fi < scopes.size(); ++fi) {
            const Scope& fn = scopes[fi];
            if (fn.kind != ScopeKind::kFunction && fn.kind != ScopeKind::kLambda) continue;
            if (!returns_view(file, fn)) continue;
            for (std::size_t i = fn.open_token + 1; i + 1 < fn.close_token; ++i) {
                if (!toks[i].is_identifier("return")) continue;
                if (innermost_callable(model, i) != fi) continue;  // a nested lambda's return
                for (std::size_t j = i + 1; j < fn.close_token && !toks[j].is_punct(";"); ++j) {
                    const Token& t = toks[j];
                    if (t.kind != TokenKind::kIdentifier) continue;
                    if (j > i + 1 &&
                        (toks[j - 1].is_punct(".") || toks[j - 1].is_punct("->"))) {
                        continue;  // member access: the object is what matters
                    }
                    const Symbol* sym = model.lookup(t.text, j);
                    if (sym == nullptr || !model.is_local(*sym)) continue;
                    if (sym->name_token <= fn.open_token || sym->name_token >= fn.close_token) {
                        continue;  // a different function's local
                    }
                    if (sym->is_static || sym->is_reference || sym->is_range_for_var) continue;
                    if (!owns_storage(*sym)) continue;
                    report(file, toks[i].line,
                           "returning a view over function-local buffer '" + sym->name +
                               "', which is destroyed at return",
                           out);
                    break;
                }
            }
        }
    }

  private:
    static bool token_is_viewish(const Token& t) {
        if (t.kind == TokenKind::kIdentifier) {
            return t.text == "PacketView" || t.text == "span" || t.text == "string_view";
        }
        return t.kind == TokenKind::kPunct && (t.text == "*" || t.text == "&");
    }

    /// Scans [begin, end) for a view-like type token at template depth 0 —
    /// `std::vector<const T*>` returned by value owns its elements, so '*'
    /// and '&' inside angle brackets don't make the return type a view.
    static bool region_is_viewish(const std::vector<Token>& toks, std::size_t begin,
                                  std::size_t end) {
        int depth = 0;
        for (std::size_t j = begin; j < end; ++j) {
            const Token& t = toks[j];
            if (t.is_punct("<")) ++depth;
            if (t.is_punct(">")) --depth;
            if (t.is_punct(">>")) depth -= 2;
            if (depth > 0) continue;
            if (token_is_viewish(t)) return true;
        }
        return false;
    }

    /// True if the function/lambda header declares a view-like return type.
    static bool returns_view(const SourceFile& file, const Scope& fn) {
        const auto& toks = file.tokens;
        // Header region: walk back from the body '{' to the previous
        // statement/brace/preprocessor boundary (bounded).
        std::size_t start = fn.open_token;
        for (std::size_t steps = 0; start > 0 && steps < 96; ++steps) {
            const Token& t = toks[start - 1];
            if (t.is_punct(";") || t.is_punct("{") || t.is_punct("}") ||
                t.kind == TokenKind::kPreprocessor) {
                break;
            }
            --start;
        }
        if (fn.kind == ScopeKind::kLambda) {
            // Only an explicit trailing return type is checkable.
            for (std::size_t j = start; j + 1 < fn.open_token; ++j) {
                if (!toks[j].is_punct("->")) continue;
                return region_is_viewish(toks, j + 1, fn.open_token);
            }
            return false;
        }
        // Leading return type: tokens before the parameter '('.
        std::size_t paren = fn.open_token;
        for (std::size_t j = start; j < fn.open_token; ++j) {
            if (toks[j].is_punct("(")) {
                paren = j;
                break;
            }
        }
        if (region_is_viewish(toks, start, paren)) return true;
        // Trailing return type (auto f(...) -> view).
        for (std::size_t j = paren; j + 1 < fn.open_token; ++j) {
            if (!toks[j].is_punct("->")) continue;
            return region_is_viewish(toks, j + 1, fn.open_token);
        }
        return false;
    }

    /// The innermost function/lambda scope enclosing `token_index`.
    static std::uint32_t innermost_callable(const ScopeModel& model, std::size_t token_index) {
        std::uint32_t s = model.scope_at(token_index);
        const auto& scopes = model.scopes();
        while (s != 0 && scopes[s].kind != ScopeKind::kFunction &&
               scopes[s].kind != ScopeKind::kLambda) {
            s = scopes[s].parent;
        }
        return s;
    }

    /// True if the symbol's declared type owns the bytes a view would alias.
    static bool owns_storage(const Symbol& sym) {
        if (sym.is_array) return true;
        const std::string& t = sym.type;
        if (t.find("string_view") != std::string::npos || t.find("span") != std::string::npos ||
            t.find("PacketView") != std::string::npos) {
            return false;  // itself a view over someone else's storage
        }
        static constexpr std::array<const char*, 12> kOwners = {
            "string", "vector", "array", "deque", "list", "map",
            "set",    "stringstream", "ostringstream", "Arena", "Buffer", "buffer",
        };
        for (const char* owner : kOwners) {
            if (t.find(owner) != std::string::npos) return true;
        }
        return false;
    }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> builtin_rules() {
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<NoWallclockRule>());
    rules.push_back(std::make_unique<NoAmbientRandomRule>());
    rules.push_back(std::make_unique<NoUnorderedIterationRule>());
    rules.push_back(std::make_unique<NoIostreamInLibRule>());
    rules.push_back(std::make_unique<NoRawNewDeleteRule>());
    rules.push_back(std::make_unique<PragmaOnceRequiredRule>());
    rules.push_back(std::make_unique<NoFloatEqualityRule>());
    rules.push_back(std::make_unique<FloatLiteralSpellingRule>());
    rules.push_back(std::make_unique<NoMutableGlobalRule>());
    rules.push_back(std::make_unique<NoRefCaptureThreadpoolRule>());
    rules.push_back(std::make_unique<LockBeforeSharedWriteRule>());
    rules.push_back(std::make_unique<NoViewEscapeRule>());
    return rules;
}

}  // namespace tvacr::lint
