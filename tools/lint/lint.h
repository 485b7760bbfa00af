#ifndef CERES_TOOLS_LINT_LINT_H_
#define CERES_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

/// ceres_lint — the project's whole-program static analyzer, enforcing the
/// repo's architecture and discipline invariants over src/, tools/, and
/// bench/. It deliberately has no libclang dependency (only g++ ships in
/// the build image): files are tokenized with comment/string/preprocessor
/// stripping, `#include` directives are mined separately, and each rule
/// pattern-matches the token stream or the include graph. The rules are
/// tuned to the repo's idiom — precise on this codebase rather than
/// general over all C++.
///
/// The analyzer runs in two passes. Pass one mines whole-program facts
/// across every scanned file: the set of Status/Result-returning function
/// names, the set of function names called inside loop bodies on the
/// parse→feature hot path, the module-level `#include` graph, and the
/// file-level include graph. Pass two applies every rule per file against
/// those program-wide facts.
///
/// Single-file discipline rules (PR 3..7):
///   ignored-status   A call to a function declared as returning Status /
///                    Result<T> used as a bare expression statement. The
///                    declared-function set is mined from the scanned
///                    files themselves. Discard deliberately with
///                    `(void)Call();`.
///   naked-sync       `std::mutex` / `std::lock_guard` / `std::unique_lock`
///                    / `std::condition_variable` (and friends) named in
///                    the concurrency-critical scope (src/serve/, src/net/,
///                    src/util/parallel.h). That scope must use the
///                    checked wrappers from util/sync.h so every lock
///                    participates in lock-order deadlock detection.
///   thread-hygiene   `std::thread::detach()` or `sleep_for`/`sleep_until`
///                    polling in non-test code.
///   raw-parallelism  Raw `std::thread`, a `ParallelFor` call with a bare
///                    numeric thread count, or `ParallelConfig{<number>}`
///                    in src/core/.
///   raw-timing       `std::chrono::steady_clock` named in src/core/ or
///                    src/serve/ (src/obs/ excluded — it wraps the clock).
///   raw-process      `fork` / `vfork` / `exec*` / `waitpid` / `kill` /
///                    `_exit` called outside src/dist/ (tests exempt).
///   raw-socket       `socket` / `bind` / `listen` / `accept` / `accept4`
///                    / `connect` / `epoll_*` called outside src/net/
///                    (tests exempt). `poll` is deliberately not policed —
///                    src/dist/ waits on worker pipes with it.
///
/// Whole-program architecture rules (this file set is the layering
/// contract the [perf] arena pass and the multi-loop serving rungs build
/// on):
///   layer-violation  A cross-module `#include` edge not declared in the
///                    layer DAG (tools/lint/layers.txt): module A may
///                    include from module B only when layers.txt lists B
///                    among A's allowed dependencies ("*" = any, for
///                    driver layers like tools/ and bench/). Scanned
///                    modules missing from layers.txt are violations too.
///                    The same rule reports `#include` cycles at file
///                    granularity, with the full cycle path in the
///                    diagnostic (a cycle is a layering fault no DAG entry
///                    can legalize). Tests are exempt: they may reach any
///                    module.
///   hot-alloc        Allocation churn inside loop bodies on the
///                    parse→feature hot path (src/dom/, src/text/,
///                    src/cluster/, src/core/): construction of a
///                    string-keyed map/set (`std::map<std::string, ...>`
///                    and unordered/set variants) inside a loop body;
///                    `std::string` concatenation via binary `+` inside a
///                    loop body (a string-literal operand, or any `+` in a
///                    `std::string x = ...;` initializer); and a by-value
///                    `std::string` parameter on a function that some loop
///                    body on the hot path calls (mined whole-program) —
///                    unless the function body passes the parameter to
///                    `std::move` (the sink idiom keeps its copy).
///                    `static` locals are exempt (constructed once).
///   blocking-in-loop Blocking calls inside the HTTP event-loop scope
///                    (src/net/, excluding http_client.* — HttpClient is
///                    the deliberately-blocking client and must never be
///                    used from the loop): `sleep_*`/`usleep`/`nanosleep`,
///                    file I/O (fstream construction, fopen/fread/fwrite/
///                    fprintf and friends), `system`/`popen`, any mention
///                    of `HttpClient`, and a bare `read(...)`/`write(...)`
///                    whose result is discarded without `(void)` — an
///                    unguarded descriptor op that can block the loop.
///
/// Any diagnostic can be suppressed for one line with a trailing
/// `ceres-lint` allow-comment naming the rule slug (or `all`). Every
/// suppression must pay its way:
///   stale-suppression  An allow-comment that no longer matches any
///                      diagnostic on its line (or names an unknown rule).
///                      Stale suppressions hide future regressions behind
///                      an exemption nobody remembers; delete them. This
///                      audit is itself not suppressible.
namespace ceres::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  /// Rule slug ("ignored-status", "layer-violation", ...).
  std::string rule;
  std::string message;
};

/// One input to the linter. `path` decides rule scope (hot-path scope,
/// event-loop scope, test exemption) and module membership for the layer
/// rules; `content` is linted as-is, so callers may pair corpus content
/// with a synthetic path to pin a scope.
struct SourceFile {
  std::string path;
  std::string content;
};

/// The declared module-layer DAG: module -> modules it may include from.
/// "*" as a dependency allows every module (driver layers). A module may
/// always include itself; that edge needs no declaration.
struct LayerGraph {
  std::map<std::string, std::set<std::string>> allowed;

  bool Declares(const std::string& module) const {
    return allowed.count(module) > 0;
  }
  bool Allows(const std::string& from, const std::string& to) const {
    if (from == to) return true;
    auto it = allowed.find(from);
    if (it == allowed.end()) return false;
    return it->second.count(to) > 0 || it->second.count("*") > 0;
  }
};

/// Parses the layers.txt format: one `module: dep dep ...` per line,
/// `#` comments, blank lines ignored. Returns false (with `error` set)
/// on a malformed line or a dependency on an undeclared-and-undeclarable
/// name (deps must be declared modules or "*"; forward references are
/// fine — the whole file is read before edges are checked).
bool ParseLayerGraph(const std::string& text, LayerGraph* out,
                     std::string* error);

/// Options for Lint. Without a layer graph the cross-module edge check is
/// skipped (include-cycle detection always runs — a cycle is illegal under
/// every DAG).
struct LintOptions {
  const LayerGraph* layers = nullptr;
};

/// Lints `files` as one program: pass one mines Status-returning function
/// declarations, hot-path loop call sites, and the include graph across
/// all of them; pass two applies every rule per file. Diagnostics come
/// back sorted by (file, line, rule).
std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files,
                             const LintOptions& options);
std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files);

/// Recursively collects .h/.cc files under each of `paths` (a path may
/// also name a single file). Skips directories named "corpus" (the lint
/// self-test's deliberately-bad snippets) and any build output directory
/// (name starting with "build").
std::vector<SourceFile> CollectSources(const std::vector<std::string>& paths,
                                       std::string* error);

/// "file:line: [rule] message" — the grep/IDE-clickable rendering.
std::string FormatDiagnostic(const Diagnostic& diagnostic);

/// Machine-readable report: {"files_scanned": N, "violations": M,
/// "diagnostics": [{"file", "line", "rule", "message"}, ...]}.
/// Diagnostics keep their sorted order.
std::string FormatJsonReport(size_t files_scanned,
                             const std::vector<Diagnostic>& diagnostics);

/// The ceres_lint command-line driver, callable in-process so the exit
/// code contract is testable. Args (without argv[0]):
///   [--layers=FILE] [--json[=FILE]] <file-or-dir> [file-or-dir...]
/// Human-readable diagnostics and the summary line append to `err`; the
/// JSON report appends to `out` (or is written to FILE with --json=FILE).
/// Returns the process exit code:
///   0  clean — no findings
///   1  findings — one or more diagnostics
///   2  internal error — bad usage, unreadable path, malformed layers
///      file, or an unwritable --json destination
int RunLintCli(const std::vector<std::string>& args, std::string* out,
               std::string* err);

}  // namespace ceres::lint

#endif  // CERES_TOOLS_LINT_LINT_H_
