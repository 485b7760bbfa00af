#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace ceres::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Tokenizer: comments, string/char literals, and preprocessor lines are
// stripped (literals survive as placeholder tokens so statement shapes stay
// intact); `ceres-lint` allow-comments are recorded per line.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool is_literal = false;
};

struct TokenizedFile {
  std::vector<Token> tokens;
  /// line -> rules suppressed on that line ("all" suppresses every rule).
  /// Kept ordered so the stale-suppression audit reports deterministically.
  std::map<int, std::set<std::string>> suppressions;
};

/// One `#include "target"` directive (angle-bracket includes are system
/// headers and carry no layering information).
struct IncludeDirective {
  std::string target;
  int line = 0;
};

bool IsIdentStart(char c) {
  return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsIdentChar(char c) { return IsIdentStart(c) || (c >= '0' && c <= '9'); }

bool IsIdent(const Token& token) {
  return !token.is_literal && !token.text.empty() &&
         IsIdentStart(token.text[0]);
}

/// Records a `ceres-lint` allow-comment found in a comment's text.
void ParseSuppression(const std::string& comment, int line,
                      TokenizedFile* out) {
  static const std::string kMarker = std::string("ceres-lint") + ": allow(";
  size_t at = comment.find(kMarker);
  while (at != std::string::npos) {
    const size_t start = at + kMarker.size();
    const size_t end = comment.find(')', start);
    if (end == std::string::npos) break;
    out->suppressions[line].insert(comment.substr(start, end - start));
    at = comment.find(kMarker, end);
  }
}

TokenizedFile Tokenize(const std::string& content) {
  TokenizedFile out;
  const size_t n = content.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen on this line so far

  auto advance_newline = [&]() {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      advance_newline();
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Preprocessor directive: skip the logical line (with continuations).
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (content[i] == '\\' && i + 1 < n && content[i + 1] == '\n') {
          advance_newline();
          i += 2;
          continue;
        }
        if (content[i] == '\n') {
          advance_newline();
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const size_t start = i;
      while (i < n && content[i] != '\n') ++i;
      ParseSuppression(content.substr(start, i - start), line, &out);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      const size_t start = i;
      const int comment_line = line;
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') advance_newline();
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      ParseSuppression(content.substr(start, i - start), comment_line, &out);
      continue;
    }
    // Identifiers (and raw-string prefixes).
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(content[j])) ++j;
      const std::string ident = content.substr(i, j - i);
      static const std::unordered_set<std::string> kRawPrefixes = {
          "R", "LR", "u8R", "uR", "UR"};
      if (j < n && content[j] == '"' && kRawPrefixes.count(ident) > 0) {
        // Raw string literal: R"delim( ... )delim".
        size_t k = j + 1;
        std::string delim;
        while (k < n && content[k] != '(') delim += content[k++];
        const std::string closer = ")" + delim + "\"";
        size_t close = content.find(closer, k);
        if (close == std::string::npos) close = n;
        for (size_t p = j; p < std::min(close + closer.size(), n); ++p) {
          if (content[p] == '\n') advance_newline();
        }
        out.tokens.push_back(Token{"<str>", line, true});
        i = std::min(close + closer.size(), n);
        continue;
      }
      out.tokens.push_back(Token{ident, line, false});
      i = j;
      continue;
    }
    // Numbers (only shape matters; consume alnum + dots + exponent signs).
    if (c >= '0' && c <= '9') {
      size_t j = i;
      while (j < n && (IsIdentChar(content[j]) || content[j] == '.' ||
                       ((content[j] == '+' || content[j] == '-') && j > i &&
                        (content[j - 1] == 'e' || content[j - 1] == 'E')))) {
        ++j;
      }
      out.tokens.push_back(Token{content.substr(i, j - i), line, false});
      i = j;
      continue;
    }
    // String / char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t j = i + 1;
      while (j < n && content[j] != quote) {
        if (content[j] == '\\' && j + 1 < n) ++j;
        if (content[j] == '\n') advance_newline();
        ++j;
      }
      out.tokens.push_back(
          Token{quote == '"' ? "<str>" : "<chr>", line, true});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    // Two-character punctuators the rules care about.
    if (i + 1 < n) {
      const std::string two = content.substr(i, 2);
      if (two == "::" || two == "->") {
        out.tokens.push_back(Token{two, line, false});
        i += 2;
        continue;
      }
    }
    out.tokens.push_back(Token{std::string(1, c), line, false});
    ++i;
  }
  return out;
}

/// Mines the quoted `#include` directives the tokenizer strips. Runs over
/// the raw content line by line; whitespace between `#`, `include`, and
/// the target is tolerated.
std::vector<IncludeDirective> ExtractIncludes(const std::string& content) {
  std::vector<IncludeDirective> out;
  int line = 1;
  size_t i = 0;
  const size_t n = content.size();
  while (i < n) {
    const size_t eol = content.find('\n', i);
    const size_t end = (eol == std::string::npos) ? n : eol;
    size_t j = i;
    while (j < end && (content[j] == ' ' || content[j] == '\t')) ++j;
    if (j < end && content[j] == '#') {
      ++j;
      while (j < end && (content[j] == ' ' || content[j] == '\t')) ++j;
      if (content.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < end && (content[j] == ' ' || content[j] == '\t')) ++j;
        if (j < end && content[j] == '"') {
          const size_t close = content.find('"', j + 1);
          if (close != std::string::npos && close < end) {
            out.push_back(
                IncludeDirective{content.substr(j + 1, close - j - 1), line});
          }
        }
      }
    }
    i = end + 1;
    ++line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Loop-body mapping: per token, whether it sits inside at least one
// for/while/do body. Loop bodies are tracked by brace, so lambdas and
// nested blocks inside a loop count as inside it (a lambda defined in a
// per-cluster loop runs in that loop's cadence).
// ---------------------------------------------------------------------------

std::vector<bool> LoopBodyMask(const std::vector<Token>& tokens) {
  const size_t n = tokens.size();
  // First pass: mark the indices of `{` tokens that open a loop body.
  std::vector<bool> loop_brace(n, false);
  for (size_t i = 0; i < n; ++i) {
    if (tokens[i].is_literal) continue;
    const std::string& text = tokens[i].text;
    if (text == "do") {
      if (i + 1 < n && tokens[i + 1].text == "{") loop_brace[i + 1] = true;
      continue;
    }
    if (text != "for" && text != "while") continue;
    if (i + 1 >= n || tokens[i + 1].text != "(") continue;
    size_t j = i + 2;
    int depth = 1;
    while (j < n && depth > 0) {
      if (!tokens[j].is_literal) {
        if (tokens[j].text == "(") ++depth;
        if (tokens[j].text == ")") --depth;
      }
      ++j;
    }
    if (j < n && tokens[j].text == "{") loop_brace[j] = true;
  }
  // Second pass: propagate through the brace stack.
  std::vector<bool> mask(n, false);
  std::vector<bool> stack;  // true = loop body brace
  int loop_depth = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!tokens[i].is_literal && tokens[i].text == "}") {
      if (!stack.empty()) {
        if (stack.back()) --loop_depth;
        stack.pop_back();
      }
    }
    mask[i] = loop_depth > 0;
    if (!tokens[i].is_literal && tokens[i].text == "{") {
      stack.push_back(loop_brace[i]);
      if (loop_brace[i]) ++loop_depth;
    }
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Scope classification from the file path.
// ---------------------------------------------------------------------------

bool PathContains(const std::string& path, const std::string& needle) {
  return path.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Test code: exempt from thread-hygiene (tests legitimately sleep to widen
/// race windows and provoke timeouts) and from the layering rules (tests
/// may reach any module).
bool IsTestFile(const std::string& path) {
  return PathContains(path, "tests/") || EndsWith(path, "_test.cc");
}

/// The concurrency-critical scope that must use util/sync.h wrappers.
/// src/net/ is included: the HTTP server's event loop and responder inbox
/// coordinate with handler threads, so their locks must participate in
/// lock-order deadlock detection too.
bool IsCheckedSyncScope(const std::string& path) {
  if (EndsWith(path, "util/sync.h") || EndsWith(path, "util/sync.cc")) {
    return false;  // the wrappers themselves wrap std primitives
  }
  return PathContains(path, "src/serve/") || PathContains(path, "src/net/") ||
         EndsWith(path, "util/parallel.h");
}

/// Process-lifecycle scope for the raw-process rule: src/dist/ owns every
/// fork/exec/kill/waitpid in the tree, so worker lifetimes always flow
/// through the coordinator's watchdog, reaping, and restart accounting.
bool IsRawProcessScope(const std::string& path) {
  return !PathContains(path, "src/dist/");
}

/// Socket-edge scope for the raw-socket rule: src/net/ owns every socket
/// and epoll descriptor in the tree, so connection lifecycle, non-blocking
/// setup, and event-loop registration stay behind one audited boundary.
/// (`poll` itself stays unpoliced: src/dist/ waits on worker pipes with
/// it, which is not a socket edge.)
bool IsRawSocketScope(const std::string& path) {
  return !PathContains(path, "src/net/");
}

/// Batch-pipeline scope for the raw-parallelism rule: stage code receives
/// its thread budget via ParallelConfig, it never picks one itself.
bool IsBatchParallelScope(const std::string& path) {
  return PathContains(path, "src/core/");
}

/// Timing scope for the raw-timing rule: pipeline and serving code must
/// time through obs (TraceSpan / MonotonicNow) so measurements land in the
/// shared trace and metrics surfaces. src/obs/ itself wraps the clock and
/// stays out of scope.
bool IsRawTimingScope(const std::string& path) {
  if (PathContains(path, "src/obs/")) return false;
  return PathContains(path, "src/core/") || PathContains(path, "src/serve/");
}

/// The parse→feature hot path the hot-alloc rule polices: every loop in
/// these modules runs per page, per node, or per token, so allocation
/// churn there multiplies by the corpus size. This is the scope the
/// ROADMAP [perf] arena/interning pass targets. src/ml/ joined the scope
/// with the hashed-feature-id work: the feature dictionary sits on the
/// same per-node loops as the featurizer.
bool IsHotAllocScope(const std::string& path) {
  if (IsTestFile(path)) return false;
  return PathContains(path, "src/dom/") || PathContains(path, "src/text/") ||
         PathContains(path, "src/cluster/") ||
         PathContains(path, "src/core/") || PathContains(path, "src/ml/");
}

/// The HTTP event-loop scope the blocking-in-loop rule polices: all of
/// src/net/ except http_client.* — everything else there (server loop,
/// parsers, rate limiter, responder) executes on the event-loop thread,
/// where one blocking call stalls every connection. HttpClient is the
/// deliberately-blocking client used by tools and the dist tier; its own
/// implementation may block, but naming it anywhere else in src/net/ means
/// the loop is about to do synchronous network I/O.
bool IsEventLoopScope(const std::string& path) {
  if (IsTestFile(path) || !PathContains(path, "src/net/")) return false;
  const std::string base = Basename(path);
  return base.rfind("http_client", 0) != 0;
}

// ---------------------------------------------------------------------------
// Module mapping for the layer rules.
// ---------------------------------------------------------------------------

/// Module of a scanned file: "src/<m>/..." -> m, "tools/lint/..." ->
/// "lint", other "tools/..." -> "tools", "bench/..." -> "bench". Empty for
/// tests and unrecognized roots (exempt from layer policing).
std::string ModuleOfPath(const std::string& path) {
  if (IsTestFile(path)) return "";
  auto segment_after = [&](const std::string& root) -> std::string {
    const size_t at = path.rfind(root);
    if (at == std::string::npos) return "";
    // Only treat it as a root when it starts the path or follows '/'.
    if (at != 0 && path[at - 1] != '/') return "";
    const size_t start = at + root.size();
    const size_t slash = path.find('/', start);
    if (slash == std::string::npos) return "";
    return path.substr(start, slash - start);
  };
  const std::string src_module = segment_after("src/");
  if (!src_module.empty()) return src_module;
  if (PathContains(path, "tools/lint/")) return "lint";
  if (PathContains(path, "tools/")) return "tools";
  if (PathContains(path, "bench/")) return "bench";
  return "";
}

/// Module of an include target ("kb/kb_io.h" -> "kb"). Empty when the
/// target has no directory component.
std::string ModuleOfInclude(const std::string& target) {
  const size_t slash = target.find('/');
  if (slash == std::string::npos) return "";
  return target.substr(0, slash);
}

/// Spellings under which a scanned file can be included: the path suffix
/// after src/ (the project include root), after tools/ (the lint library
/// root), and after the repo root for bench/ ("bench/bench_common.h").
std::vector<std::string> IncludeSpellings(const std::string& path) {
  std::vector<std::string> out;
  for (const char* root : {"src/", "tools/", "bench/"}) {
    const size_t at = path.rfind(root);
    if (at == std::string::npos) continue;
    if (at != 0 && path[at - 1] != '/') continue;
    if (std::string(root) == "bench/") {
      out.push_back(path.substr(at));  // spelled from the repo root
    } else {
      out.push_back(path.substr(at + std::string(root).size()));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pass one: whole-program fact mining.
// ---------------------------------------------------------------------------

const std::unordered_set<std::string>& KeywordBlacklist() {
  static const std::unordered_set<std::string> kKeywords = {
      "if",     "for",    "while",  "switch", "return", "sizeof",
      "operator", "new",  "delete", "co_await", "co_return", "throw"};
  return kKeywords;
}

void CollectStatusFunctions(const TokenizedFile& file,
                            std::unordered_set<std::string>* names) {
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].is_literal) continue;
    const std::string& text = tokens[i].text;
    if (text != "Status" && text != "Result") continue;
    size_t j = i + 1;
    if (text == "Result") {
      if (j >= tokens.size() || tokens[j].text != "<") continue;
      int depth = 1;
      ++j;
      while (j < tokens.size() && depth > 0) {
        if (tokens[j].text == "<") ++depth;
        if (tokens[j].text == ">") --depth;
        ++j;
      }
      if (depth != 0) continue;
    }
    // Identifier chain: Name, Class::Name, ns::Class::Name, ...
    size_t name_at = j;
    while (name_at + 1 < tokens.size() && IsIdent(tokens[name_at]) &&
           tokens[name_at + 1].text == "::") {
      name_at += 2;
    }
    if (name_at >= tokens.size() || !IsIdent(tokens[name_at])) continue;
    if (name_at + 1 >= tokens.size() || tokens[name_at + 1].text != "(") {
      continue;
    }
    const std::string& name = tokens[name_at].text;
    if (KeywordBlacklist().count(name) > 0) continue;
    names->insert(name);
  }
}

/// Mines the names of functions called from inside loop bodies in hot-path
/// files — pass one of the by-value-string-parameter check. Member calls
/// and free calls both count: the rule matches definitions by bare name.
void CollectLoopCalledFunctions(const TokenizedFile& file,
                                const std::vector<bool>& in_loop,
                                std::unordered_set<std::string>* names) {
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!in_loop[i] || !IsIdent(tokens[i])) continue;
    if (tokens[i + 1].text != "(") continue;
    if (KeywordBlacklist().count(tokens[i].text) > 0) continue;
    names->insert(tokens[i].text);
  }
}

// ---------------------------------------------------------------------------
// Single-file discipline rules (pass two). Rules emit every diagnostic;
// allow-comment filtering happens centrally so the stale-suppression audit
// can see which suppressions actually fired.
// ---------------------------------------------------------------------------

void CheckIgnoredStatus(const SourceFile& source, const TokenizedFile& file,
                        const std::unordered_set<std::string>& status_fns,
                        std::vector<Diagnostic>* out) {
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || status_fns.count(tokens[i].text) == 0) continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
    // Walk back over the receiver chain (obj.  obj->  ns::) to find what
    // precedes the whole call expression.
    size_t k = i;
    while (k >= 2 && !tokens[k - 1].is_literal &&
           (tokens[k - 1].text == "::" || tokens[k - 1].text == "." ||
            tokens[k - 1].text == "->") &&
           IsIdent(tokens[k - 2])) {
      k -= 2;
    }
    if (k > 0) {
      const std::string& before = tokens[k - 1].text;
      if (before != ";" && before != "{" && before != "}") continue;
    }
    // The call must be the entire statement: matching ')' followed by ';'.
    size_t j = i + 2;
    int depth = 1;
    while (j < tokens.size() && depth > 0) {
      if (!tokens[j].is_literal) {
        if (tokens[j].text == "(") ++depth;
        if (tokens[j].text == ")") --depth;
      }
      ++j;
    }
    if (depth != 0 || j >= tokens.size() || tokens[j].text != ";") continue;
    out->push_back(Diagnostic{
        source.path, tokens[i].line, "ignored-status",
        "result of Status/Result-returning call '" + tokens[i].text +
            "' is ignored; propagate it, handle it, or discard explicitly "
            "with (void)"});
  }
}

void CheckNakedSync(const SourceFile& source, const TokenizedFile& file,
                    std::vector<Diagnostic>* out) {
  if (!IsCheckedSyncScope(source.path)) return;
  static const std::unordered_map<std::string, std::string> kReplacements = {
      {"mutex", "ceres::CheckedMutex"},
      {"recursive_mutex", "ceres::CheckedMutex"},
      {"shared_mutex", "ceres::CheckedMutex"},
      {"timed_mutex", "ceres::CheckedMutex"},
      {"lock_guard", "ceres::MutexLock"},
      {"scoped_lock", "ceres::MutexLock"},
      {"unique_lock", "ceres::UniqueMutexLock"},
      {"condition_variable", "ceres::CondVar"},
      {"condition_variable_any", "ceres::CondVar"},
  };
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].is_literal || tokens[i].text != "std") continue;
    if (tokens[i + 1].text != "::") continue;
    auto it = kReplacements.find(tokens[i + 2].text);
    if (it == kReplacements.end()) continue;
    out->push_back(Diagnostic{
        source.path, tokens[i].line, "naked-sync",
        "naked std::" + it->first +
            " in lock-order-checked scope; use " + it->second +
            " from util/sync.h"});
  }
}

void CheckThreadHygiene(const SourceFile& source, const TokenizedFile& file,
                        std::vector<Diagnostic>* out) {
  if (IsTestFile(source.path)) return;
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].is_literal) continue;
    const std::string& text = tokens[i].text;
    if (text == "detach" && i > 0 && i + 1 < tokens.size() &&
        (tokens[i - 1].text == "." || tokens[i - 1].text == "->") &&
        tokens[i + 1].text == "(") {
      out->push_back(Diagnostic{
          source.path, tokens[i].line, "thread-hygiene",
          "detached thread in non-test code; detached threads outlive the "
          "invariants of the objects they capture — keep the handle and "
          "join"});
    }
    if (text == "sleep_for" || text == "sleep_until") {
      out->push_back(Diagnostic{
          source.path, tokens[i].line, "thread-hygiene",
          text + " polling in non-test code; wait on a condition variable "
                 "or future instead of sleeping"});
    }
  }
}

void CheckRawParallelism(const SourceFile& source, const TokenizedFile& file,
                         std::vector<Diagnostic>* out) {
  if (!IsBatchParallelScope(source.path)) return;
  const std::vector<Token>& tokens = file.tokens;
  auto is_number = [](const Token& token) {
    return !token.is_literal && !token.text.empty() &&
           token.text[0] >= '0' && token.text[0] <= '9';
  };
  auto emit = [&](int line, const std::string& message) {
    out->push_back(Diagnostic{source.path, line, "raw-parallelism", message});
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].is_literal) continue;
    const std::string& text = tokens[i].text;
    // Raw std::thread (spawn, member, or hardware_concurrency probe): the
    // thread budget belongs to the caller's ParallelConfig, not the stage.
    if (text == "std" && i + 2 < tokens.size() &&
        tokens[i + 1].text == "::" && tokens[i + 2].text == "thread") {
      emit(tokens[i].line,
           "raw std::thread in batch-pipeline code; take a ParallelConfig "
           "and run through ParallelFor (util/parallel.h)");
      continue;
    }
    // ParallelFor(n, <literal>, body): a hard-coded thread count.
    if (text == "ParallelFor" && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      size_t j = i + 2;
      int depth = 1;
      while (j < tokens.size()) {
        if (!tokens[j].is_literal) {
          const std::string& t = tokens[j].text;
          if (t == "(" || t == "{" || t == "[") ++depth;
          if (t == ")" || t == "}" || t == "]") {
            if (--depth == 0) break;  // call ended before a second argument
          }
          if (depth == 1 && t == ",") break;
        }
        ++j;
      }
      if (j + 2 < tokens.size() && tokens[j].text == "," &&
          is_number(tokens[j + 1]) && tokens[j + 2].text == ",") {
        emit(tokens[j + 1].line,
             "literal thread count passed to ParallelFor; accept a "
             "ParallelConfig from the caller instead");
      }
      continue;
    }
    // ParallelConfig{<literal>} / ParallelConfig name{<literal>}: same
    // smell, aggregate-initialized with a hard-coded count.
    if (text == "ParallelConfig" && i + 2 < tokens.size()) {
      size_t brace = i + 1;
      if (IsIdent(tokens[brace])) ++brace;  // optional variable name
      if (brace + 1 < tokens.size() && tokens[brace].text == "{" &&
          is_number(tokens[brace + 1])) {
        emit(tokens[i].line,
             "ParallelConfig built from a literal thread count; use "
             "ParallelConfig::Sequential() or the caller's config");
      }
    }
  }
}

void CheckRawTiming(const SourceFile& source, const TokenizedFile& file,
                    std::vector<Diagnostic>* out) {
  if (!IsRawTimingScope(source.path)) return;
  for (const Token& token : file.tokens) {
    if (token.is_literal || token.text != "steady_clock") continue;
    out->push_back(Diagnostic{
        source.path, token.line, "raw-timing",
        "raw std::chrono::steady_clock timing in pipeline/serve code; time "
        "through obs::TraceSpan or obs::MonotonicNow (src/obs/trace.h) so "
        "measurements land in the shared trace and metrics surfaces"});
  }
}

/// Shared shape test for the raw-process / raw-socket / blocking-in-loop
/// syscall checks: tokens[i] names a banned function and tokens[i+1] is
/// '('. Returns false for member calls, class-qualified names, and
/// declarations — a bare `::` global-scope qualifier is still the raw
/// call.
bool IsBareCall(const std::vector<Token>& tokens, size_t i) {
  if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") return false;
  if (i == 0) return true;
  const std::string& before = tokens[i - 1].text;
  if (!tokens[i - 1].is_literal && (before == "." || before == "->")) {
    return false;
  }
  if (before == "::" && i >= 2 && IsIdent(tokens[i - 2])) return false;
  // A preceding identifier is a declaration (`void kill();`), not a call —
  // except `return kill(...)`.
  if (IsIdent(tokens[i - 1]) && before != "return") return false;
  return true;
}

void CheckRawProcess(const SourceFile& source, const TokenizedFile& file,
                     std::vector<Diagnostic>* out) {
  if (!IsRawProcessScope(source.path) || IsTestFile(source.path)) return;
  static const std::unordered_set<std::string> kProcessCalls = {
      "fork", "vfork", "execv", "execvp", "execve", "waitpid", "kill",
      "_exit"};
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || kProcessCalls.count(tokens[i].text) == 0) {
      continue;
    }
    if (!IsBareCall(tokens, i)) continue;
    out->push_back(Diagnostic{
        source.path, tokens[i].line, "raw-process",
        "raw process-control call '" + tokens[i].text +
            "' outside src/dist/; process lifecycle belongs to the dist "
            "coordinator/worker layer (watchdog, reaping, restart "
            "accounting)"});
  }
}

void CheckRawSocket(const SourceFile& source, const TokenizedFile& file,
                    std::vector<Diagnostic>* out) {
  if (!IsRawSocketScope(source.path) || IsTestFile(source.path)) return;
  static const std::unordered_set<std::string> kSocketCalls = {
      "socket",       "bind",          "listen",    "accept",     "accept4",
      "connect",      "epoll_create",  "epoll_create1",
      "epoll_ctl",    "epoll_wait"};
  const std::vector<Token>& tokens = file.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsIdent(tokens[i]) || kSocketCalls.count(tokens[i].text) == 0) {
      continue;
    }
    if (!IsBareCall(tokens, i)) continue;
    out->push_back(Diagnostic{
        source.path, tokens[i].line, "raw-socket",
        "raw socket/epoll call '" + tokens[i].text +
            "' outside src/net/; the socket edge belongs to the net layer "
            "(non-blocking setup, event-loop registration, connection "
            "lifecycle) — serve it through HttpServer/HttpClient"});
  }
}

// ---------------------------------------------------------------------------
// hot-alloc: allocation churn inside loop bodies on the parse→feature hot
// path.
// ---------------------------------------------------------------------------

/// Matches `std :: <container> < std :: string` at `i` and returns the
/// index one past the template argument list's closing '>', or 0 if the
/// shape does not match.
size_t MatchStringKeyedContainer(const std::vector<Token>& tokens, size_t i) {
  static const std::unordered_set<std::string> kContainers = {
      "map", "unordered_map", "set", "unordered_set", "multimap",
      "unordered_multimap", "multiset", "unordered_multiset"};
  if (i + 6 >= tokens.size()) return 0;
  if (tokens[i].is_literal || tokens[i].text != "std") return 0;
  if (tokens[i + 1].text != "::") return 0;
  if (kContainers.count(tokens[i + 2].text) == 0) return 0;
  if (tokens[i + 3].text != "<") return 0;
  if (tokens[i + 4].text != "std" || tokens[i + 5].text != "::" ||
      tokens[i + 6].text != "string") {
    return 0;
  }
  size_t j = i + 4;
  int depth = 1;
  while (j < tokens.size() && depth > 0) {
    if (!tokens[j].is_literal) {
      if (tokens[j].text == "<") ++depth;
      if (tokens[j].text == ">") --depth;
    }
    ++j;
  }
  return depth == 0 ? j : 0;
}

void CheckHotAlloc(const SourceFile& source, const TokenizedFile& file,
                   const std::vector<bool>& in_loop,
                   const std::unordered_set<std::string>& loop_called,
                   std::vector<Diagnostic>* out) {
  if (!IsHotAllocScope(source.path)) return;
  const std::vector<Token>& tokens = file.tokens;
  const size_t n = tokens.size();

  auto is_static_decl = [&](size_t i) {
    // Look back a few tokens for `static`: a static local is constructed
    // once, not per iteration.
    for (size_t back = 1; back <= 3 && back <= i; ++back) {
      const Token& t = tokens[i - back];
      if (t.is_literal) break;
      if (t.text == "static") return true;
      if (t.text != "const" && t.text != "constexpr") break;
    }
    return false;
  };

  for (size_t i = 0; i < n; ++i) {
    if (tokens[i].is_literal) continue;

    // (a) Construction of a string-keyed map/set inside a loop body.
    if (in_loop[i]) {
      const size_t after = MatchStringKeyedContainer(tokens, i);
      if (after != 0 && after < n && !is_static_decl(i)) {
        const std::string& next = tokens[after].text;
        // `&` / `*` bind a reference or pointer to an existing container;
        // `::` names a nested type. Everything else (an identifier
        // declaring a local, `(` / `{` building a temporary) constructs.
        if (next != "&" && next != "*" && next != "::") {
          out->push_back(Diagnostic{
              source.path, tokens[i].line, "hot-alloc",
              "string-keyed std::" + tokens[i + 2].text +
                  " constructed inside a hot-path loop body; hoist it out "
                  "of the loop, or restructure onto a sorted vector / "
                  "interned ids (ROADMAP [perf])"});
          i = after - 1;
          continue;
        }
      }
    }

    // (b) A temporary std::string materialized just to probe a container:
    // `m.find(std::string(view))` and friends. Fires loop or no loop —
    // these probes live in helpers (GetOrAdd, TypeByName) that hot loops
    // call, so the allocation multiplies even when the call site looks
    // flat. The fix is heterogeneous lookup, not hoisting.
    if (tokens[i].text == "." && i + 6 < n && IsIdent(tokens[i + 1]) &&
        !tokens[i + 1].is_literal) {
      static const std::unordered_set<std::string> kProbeCalls = {
          "find", "count", "at", "contains", "erase"};
      if (kProbeCalls.count(tokens[i + 1].text) > 0 &&
          tokens[i + 2].text == "(" && tokens[i + 3].text == "std" &&
          tokens[i + 4].text == "::" && tokens[i + 5].text == "string" &&
          tokens[i + 6].text == "(") {
        out->push_back(Diagnostic{
            source.path, tokens[i + 1].line, "hot-alloc",
            "temporary std::string constructed to " + tokens[i + 1].text +
                "() into a container on the hot path; give the container a "
                "transparent hasher + std::equal_to<> (heterogeneous "
                "lookup) so string_view probes do not allocate"});
        i += 6;
        continue;
      }
    }

    // (c) String concatenation via binary `+` inside a loop body: a
    // string-literal operand is proof of string concat...
    if (in_loop[i] && tokens[i].text == "+") {
      const bool literal_operand =
          (i > 0 && tokens[i - 1].is_literal && tokens[i - 1].text == "<str>") ||
          (i + 1 < n && tokens[i + 1].is_literal &&
           tokens[i + 1].text == "<str>");
      if (literal_operand) {
        out->push_back(Diagnostic{
            source.path, tokens[i].line, "hot-alloc",
            "string concatenation with operator+ inside a hot-path loop "
            "body; build into a reserved buffer with append/push_back "
            "instead of materializing temporaries"});
        continue;
      }
    }

    // ...and a `std::string x = <expr with top-level +>;` declaration is
    // concat even when both operands are named strings.
    if (in_loop[i] && tokens[i].text == "std" && i + 3 < n &&
        tokens[i + 1].text == "::" && tokens[i + 2].text == "string" &&
        IsIdent(tokens[i + 3]) && i + 4 < n && tokens[i + 4].text == "=" &&
        !is_static_decl(i)) {
      int depth = 0;
      for (size_t j = i + 5; j < n; ++j) {
        if (tokens[j].is_literal) continue;
        const std::string& t = tokens[j].text;
        if (t == "(" || t == "{" || t == "[") ++depth;
        if (t == ")" || t == "}" || t == "]") --depth;
        if (depth == 0 && t == ";") break;
        if (depth == 0 && t == "+") {
          out->push_back(Diagnostic{
              source.path, tokens[i].line, "hot-alloc",
              "std::string built by concatenation inside a hot-path loop "
              "body; build into a reserved buffer with append/push_back "
              "instead of materializing temporaries"});
          break;
        }
      }
    }

    // (d) A function definition taking std::string by value when some
    // hot-path loop calls a function of that name. The sink idiom
    // (body std::moves the parameter) is exempt: the copy is the point.
    if (IsIdent(tokens[i]) && i + 1 < n && tokens[i + 1].text == "(" &&
        loop_called.count(tokens[i].text) > 0) {
      // Find the parameter list's closing ')'.
      size_t close = i + 2;
      int depth = 1;
      while (close < n && depth > 0) {
        if (!tokens[close].is_literal) {
          if (tokens[close].text == "(") ++depth;
          if (tokens[close].text == ")") --depth;
        }
        ++close;
      }
      if (depth != 0 || close >= n) continue;
      // A definition follows with `{` before any `;` (allowing const,
      // noexcept, override, trailing return types, ctor init lists).
      size_t body_open = close;
      int guard_depth = 0;
      bool is_definition = false;
      while (body_open < n) {
        const std::string& t = tokens[body_open].text;
        if (!tokens[body_open].is_literal) {
          if (t == "(") ++guard_depth;
          if (t == ")") --guard_depth;
          if (guard_depth == 0 && t == ";") break;
          if (guard_depth == 0 && t == "=") break;  // = default / = 0
          if (guard_depth == 0 && t == "{") {
            is_definition = true;
            break;
          }
        }
        ++body_open;
      }
      if (!is_definition) continue;
      // By-value std::string parameters inside [i+2, close).
      std::vector<std::pair<std::string, int>> by_value;  // name, line
      for (size_t p = i + 2; p + 3 < close; ++p) {
        if (tokens[p].is_literal || tokens[p].text != "std") continue;
        if (tokens[p + 1].text != "::" || tokens[p + 2].text != "string") {
          continue;
        }
        const Token& after = tokens[p + 3];
        if (after.is_literal || !IsIdent(after)) continue;  // &, *, &&, view
        by_value.emplace_back(after.text, after.line);
      }
      if (by_value.empty()) continue;
      // Scan the init list + body for std::move(<param>).
      size_t body_end = body_open + 1;
      depth = 1;
      while (body_end < n && depth > 0) {
        if (!tokens[body_end].is_literal) {
          if (tokens[body_end].text == "{") ++depth;
          if (tokens[body_end].text == "}") --depth;
        }
        ++body_end;
      }
      for (const auto& [param, line] : by_value) {
        bool moved = false;
        for (size_t p = close; p + 2 < body_end; ++p) {
          if (tokens[p].is_literal || tokens[p].text != "move") continue;
          if (tokens[p + 1].text == "(" && tokens[p + 2].text == param) {
            moved = true;
            break;
          }
        }
        if (moved) continue;
        out->push_back(Diagnostic{
            source.path, line, "hot-alloc",
            "function '" + tokens[i].text + "' is called from a hot-path "
                "loop but takes std::string parameter '" + param +
                "' by value without moving it; take const std::string& or "
                "std::string_view"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// blocking-in-loop: blocking calls inside the HTTP event-loop scope.
// ---------------------------------------------------------------------------

void CheckBlockingInLoop(const SourceFile& source, const TokenizedFile& file,
                         std::vector<Diagnostic>* out) {
  if (!IsEventLoopScope(source.path)) return;
  static const std::unordered_set<std::string> kSleepCalls = {
      "sleep_for", "sleep_until", "sleep", "usleep", "nanosleep"};
  static const std::unordered_set<std::string> kFileIoCalls = {
      "fopen",  "freopen", "fread", "fwrite", "fgets", "fputs",
      "fprintf", "fscanf", "fflush", "fseek"};
  static const std::unordered_set<std::string> kFileStreams = {
      "ifstream", "ofstream", "fstream"};
  const std::vector<Token>& tokens = file.tokens;
  auto emit = [&](int line, const std::string& message) {
    out->push_back(Diagnostic{source.path, line, "blocking-in-loop", message});
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].is_literal) continue;
    const std::string& text = tokens[i].text;
    if (text == "HttpClient") {
      emit(tokens[i].line,
           "HttpClient named in event-loop scope; the client blocks on "
           "connect/send/recv and would stall every connection — forward "
           "through the Responder or a worker thread instead");
      continue;
    }
    if (kSleepCalls.count(text) > 0 && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      emit(tokens[i].line,
           "blocking sleep '" + text + "' in event-loop scope; the loop "
           "must only ever wait in epoll_wait — use timerfd-style timeouts "
           "or the server's idle-deadline machinery");
      continue;
    }
    if (text == "std" && i + 2 < tokens.size() &&
        tokens[i + 1].text == "::" &&
        kFileStreams.count(tokens[i + 2].text) > 0) {
      emit(tokens[i].line,
           "file stream std::" + tokens[i + 2].text + " in event-loop "
           "scope; file I/O blocks the loop — stage file work on a worker "
           "thread and hand results back through the Responder");
      continue;
    }
    if ((kFileIoCalls.count(text) > 0 || text == "system" ||
         text == "popen") &&
        IsBareCall(tokens, i)) {
      emit(tokens[i].line,
           "blocking call '" + text + "' in event-loop scope; file I/O and "
           "subprocesses stall every connection on the loop");
      continue;
    }
    // An unguarded read/write: the bare syscall as a whole statement, its
    // result discarded without (void). On the loop these must be checked
    // — a blocking fd or a short write silently wedges the loop.
    if ((text == "read" || text == "write") && IsBareCall(tokens, i)) {
      size_t k = i;
      bool global_qualified = false;
      if (i >= 1 && tokens[i - 1].text == "::" &&
          (i == 1 || !IsIdent(tokens[i - 2]))) {
        k = i - 1;
        global_qualified = true;
      }
      (void)global_qualified;
      bool statement_start =
          k == 0 || tokens[k - 1].text == ";" || tokens[k - 1].text == "{" ||
          tokens[k - 1].text == "}";
      if (!statement_start) continue;
      size_t j = i + 2;
      int depth = 1;
      while (j < tokens.size() && depth > 0) {
        if (!tokens[j].is_literal) {
          if (tokens[j].text == "(") ++depth;
          if (tokens[j].text == ")") --depth;
        }
        ++j;
      }
      if (depth != 0 || j >= tokens.size() || tokens[j].text != ";") continue;
      emit(tokens[i].line,
           "unguarded '" + text + "' in event-loop scope: the result is "
           "discarded, so a blocking fd or short transfer wedges the loop "
           "silently — check the return value or discard with (void) after "
           "proving the fd non-blocking");
    }
  }
}

// ---------------------------------------------------------------------------
// layer-violation: the module DAG check and file-level include cycles.
// ---------------------------------------------------------------------------

void CheckLayerEdges(const SourceFile& source,
                     const std::vector<IncludeDirective>& includes,
                     const LayerGraph& layers,
                     std::vector<Diagnostic>* out) {
  const std::string module = ModuleOfPath(source.path);
  if (module.empty()) return;  // tests and unrecognized roots are exempt
  if (!layers.Declares(module)) {
    out->push_back(Diagnostic{
        source.path, 1, "layer-violation",
        "module '" + module + "' is not declared in tools/lint/layers.txt; "
        "add it (with its allowed dependencies) so the layer DAG stays "
        "complete"});
    return;
  }
  for (const IncludeDirective& include : includes) {
    const std::string target = ModuleOfInclude(include.target);
    if (target.empty() || target == module) continue;
    if (!layers.Declares(target)) continue;  // not a project module
    if (layers.Allows(module, target)) continue;
    out->push_back(Diagnostic{
        source.path, include.line, "layer-violation",
        "undeclared cross-module include: module '" + module +
            "' may not include \"" + include.target + "\" (edge " + module +
            " -> " + target + " is not in tools/lint/layers.txt; move the "
            "shared piece down a layer or declare the edge deliberately)"});
  }
}

/// File-level include-cycle detection over the scanned set. Reports each
/// cycle once, rotated to start at its lexicographically-smallest member,
/// with the full path in the message.
void CheckIncludeCycles(
    const std::vector<SourceFile>& files,
    const std::vector<std::vector<IncludeDirective>>& includes,
    std::vector<Diagnostic>* out) {
  const size_t n = files.size();
  // Include spelling -> file index.
  std::unordered_map<std::string, size_t> by_spelling;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& spelling : IncludeSpellings(files[i].path)) {
      by_spelling.emplace(spelling, i);
    }
  }
  // Edges: (target file, line of the include directive).
  std::vector<std::vector<std::pair<size_t, int>>> graph(n);
  for (size_t i = 0; i < n; ++i) {
    for (const IncludeDirective& include : includes[i]) {
      auto it = by_spelling.find(include.target);
      if (it != by_spelling.end() && it->second != i) {
        graph[i].emplace_back(it->second, include.line);
      }
    }
  }
  // Iterative colored DFS; back edges close cycles.
  std::vector<int> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<size_t> stack;
  std::set<std::vector<size_t>> seen;
  struct Frame {
    size_t node;
    size_t next_edge = 0;
  };
  // Order roots by path so diagnostics are deterministic.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return files[a].path < files[b].path;
  });
  for (size_t root : order) {
    if (color[root] != 0) continue;
    std::vector<Frame> frames{Frame{root}};
    color[root] = 1;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      if (frame.next_edge >= graph[frame.node].size()) {
        color[frame.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const auto [next, line] = graph[frame.node][frame.next_edge++];
      if (color[next] == 1) {
        // Cycle: stack from `next` to the top.
        auto at = std::find(stack.begin(), stack.end(), next);
        std::vector<size_t> cycle(at, stack.end());
        // Canonical rotation for dedup + determinism.
        auto smallest = std::min_element(
            cycle.begin(), cycle.end(), [&](size_t a, size_t b) {
              return files[a].path < files[b].path;
            });
        std::rotate(cycle.begin(), smallest, cycle.end());
        if (!seen.insert(cycle).second) continue;
        std::string path_text;
        for (size_t member : cycle) {
          path_text += files[member].path + " -> ";
        }
        path_text += files[cycle.front()].path;
        // Anchor the diagnostic at the first member's include of the next
        // cycle member (or this back edge's line as a fallback).
        int anchor_line = line;
        const size_t first = cycle.front();
        const size_t second = cycle.size() > 1 ? cycle[1] : cycle.front();
        for (const auto& [target, include_line] : graph[first]) {
          if (target == second) {
            anchor_line = include_line;
            break;
          }
        }
        out->push_back(Diagnostic{
            files[first].path, anchor_line, "layer-violation",
            "include cycle: " + path_text + "; break the cycle by "
            "splitting the shared declarations into a lower header"});
      } else if (color[next] == 0) {
        color[next] = 1;
        stack.push_back(next);
        frames.push_back(Frame{next});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Central suppression filtering + the stale-suppression audit.
// ---------------------------------------------------------------------------

std::vector<Diagnostic> FilterSuppressionsAndAudit(
    const std::vector<SourceFile>& files,
    const std::vector<TokenizedFile>& tokenized,
    std::vector<Diagnostic> raw) {
  static const std::set<std::string> kKnownRules = {
      "ignored-status", "naked-sync",      "thread-hygiene",
      "raw-parallelism", "raw-timing",     "raw-process",
      "raw-socket",      "layer-violation", "hot-alloc",
      "blocking-in-loop"};
  std::unordered_map<std::string, const TokenizedFile*> by_path;
  for (size_t i = 0; i < files.size(); ++i) {
    by_path.emplace(files[i].path, &tokenized[i]);
  }
  // (file, line, entry) triples that matched at least one diagnostic.
  std::set<std::tuple<std::string, int, std::string>> used;
  std::vector<Diagnostic> kept;
  kept.reserve(raw.size());
  for (Diagnostic& diagnostic : raw) {
    auto file_it = by_path.find(diagnostic.file);
    bool suppressed = false;
    if (file_it != by_path.end()) {
      const auto& suppressions = file_it->second->suppressions;
      auto line_it = suppressions.find(diagnostic.line);
      if (line_it != suppressions.end()) {
        if (line_it->second.count(diagnostic.rule) > 0) {
          used.emplace(diagnostic.file, diagnostic.line, diagnostic.rule);
          suppressed = true;
        } else if (line_it->second.count("all") > 0) {
          used.emplace(diagnostic.file, diagnostic.line, "all");
          suppressed = true;
        }
      }
    }
    if (!suppressed) kept.push_back(std::move(diagnostic));
  }
  // Audit: every allow-comment must have fired.
  for (size_t i = 0; i < files.size(); ++i) {
    for (const auto& [line, entries] : tokenized[i].suppressions) {
      for (const std::string& entry : entries) {
        if (used.count({files[i].path, line, entry}) > 0) continue;
        std::string reason;
        if (entry != "all" && kKnownRules.count(entry) == 0) {
          reason = "names unknown rule '" + entry + "'";
        } else {
          reason = "suppresses nothing — no '" + entry +
                   "' diagnostic fires on this line anymore";
        }
        kept.push_back(Diagnostic{
            files[i].path, line, "stale-suppression",
            "stale allow(" + entry + ") comment " + reason +
                "; delete it so future regressions are not pre-excused"});
      }
    }
  }
  return kept;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

bool ParseLayerGraph(const std::string& text, LayerGraph* out,
                     std::string* error) {
  LayerGraph graph;
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  std::vector<std::tuple<int, std::string, std::string>> edges;
  while (std::getline(lines, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string module;
    if (!(fields >> module)) continue;  // blank / comment-only line
    if (module.back() != ':') {
      if (error != nullptr) {
        *error = "layers.txt line " + std::to_string(line_number) +
                 ": expected 'module:' but found '" + module + "'";
      }
      return false;
    }
    module.pop_back();
    if (module.empty()) {
      if (error != nullptr) {
        *error = "layers.txt line " + std::to_string(line_number) +
                 ": empty module name";
      }
      return false;
    }
    if (graph.allowed.count(module) > 0) {
      if (error != nullptr) {
        *error = "layers.txt line " + std::to_string(line_number) +
                 ": module '" + module + "' declared twice";
      }
      return false;
    }
    auto& deps = graph.allowed[module];
    std::string dep;
    while (fields >> dep) {
      deps.insert(dep);
      edges.emplace_back(line_number, module, dep);
    }
  }
  // Dependencies must themselves be declared modules (or the wildcard):
  // a typo'd dep would silently legalize nothing and confuse the report.
  for (const auto& [at, module, dep] : edges) {
    if (dep == "*" || graph.allowed.count(dep) > 0) continue;
    if (error != nullptr) {
      *error = "layers.txt line " + std::to_string(at) + ": module '" +
               module + "' depends on undeclared module '" + dep + "'";
    }
    return false;
  }
  *out = std::move(graph);
  return true;
}

std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files,
                             const LintOptions& options) {
  std::vector<TokenizedFile> tokenized;
  std::vector<std::vector<IncludeDirective>> includes;
  std::vector<std::vector<bool>> loop_masks;
  tokenized.reserve(files.size());
  includes.reserve(files.size());
  loop_masks.reserve(files.size());
  std::unordered_set<std::string> status_fns;
  std::unordered_set<std::string> loop_called;
  for (const SourceFile& file : files) {
    tokenized.push_back(Tokenize(file.content));
    includes.push_back(ExtractIncludes(file.content));
    loop_masks.push_back(LoopBodyMask(tokenized.back().tokens));
    CollectStatusFunctions(tokenized.back(), &status_fns);
    if (IsHotAllocScope(file.path)) {
      CollectLoopCalledFunctions(tokenized.back(), loop_masks.back(),
                                 &loop_called);
    }
  }
  std::vector<Diagnostic> diagnostics;
  for (size_t i = 0; i < files.size(); ++i) {
    CheckIgnoredStatus(files[i], tokenized[i], status_fns, &diagnostics);
    CheckNakedSync(files[i], tokenized[i], &diagnostics);
    CheckThreadHygiene(files[i], tokenized[i], &diagnostics);
    CheckRawParallelism(files[i], tokenized[i], &diagnostics);
    CheckRawTiming(files[i], tokenized[i], &diagnostics);
    CheckRawProcess(files[i], tokenized[i], &diagnostics);
    CheckRawSocket(files[i], tokenized[i], &diagnostics);
    CheckHotAlloc(files[i], tokenized[i], loop_masks[i], loop_called,
                  &diagnostics);
    CheckBlockingInLoop(files[i], tokenized[i], &diagnostics);
    if (options.layers != nullptr) {
      CheckLayerEdges(files[i], includes[i], *options.layers, &diagnostics);
    }
  }
  CheckIncludeCycles(files, includes, &diagnostics);
  diagnostics =
      FilterSuppressionsAndAudit(files, tokenized, std::move(diagnostics));
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  // Identical duplicates (a line that trips the same rule twice with the
  // same message) add noise, not information.
  diagnostics.erase(
      std::unique(diagnostics.begin(), diagnostics.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      diagnostics.end());
  return diagnostics;
}

std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files) {
  return Lint(files, LintOptions{});
}

std::vector<SourceFile> CollectSources(const std::vector<std::string>& paths,
                                       std::string* error) {
  std::vector<std::string> collected;
  auto want_file = [](const fs::path& path) {
    const std::string ext = path.extension().string();
    return ext == ".h" || ext == ".cc";
  };
  auto skip_dir = [](const fs::path& path) {
    const std::string name = path.filename().string();
    return name == "corpus" || name == ".git" ||
           name.rfind("build", 0) == 0;
  };
  for (const std::string& root : paths) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      collected.push_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      if (error != nullptr) *error = "no such file or directory: " + root;
      return {};
    }
    fs::recursive_directory_iterator it(root, ec), end;
    while (it != end) {
      if (it->is_directory() && skip_dir(it->path())) {
        it.disable_recursion_pending();
      } else if (it->is_regular_file() && want_file(it->path())) {
        collected.push_back(it->path().string());
      }
      it.increment(ec);
      if (ec) break;
    }
  }
  std::sort(collected.begin(), collected.end());
  std::vector<SourceFile> sources;
  sources.reserve(collected.size());
  for (const std::string& path : collected) {
    std::ifstream in(path);
    if (!in) {
      if (error != nullptr) *error = "cannot read: " + path;
      return {};
    }
    std::ostringstream content;
    content << in.rdbuf();
    sources.push_back(SourceFile{path, content.str()});
  }
  return sources;
}

std::string FormatDiagnostic(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": [" +
         diagnostic.rule + "] " + diagnostic.message;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatJsonReport(size_t files_scanned,
                             const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "{\n  \"files_scanned\": " << files_scanned
      << ",\n  \"violations\": " << diagnostics.size()
      << ",\n  \"diagnostics\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "\n" : ",\n")
        << "    {\"file\": \"" << JsonEscape(d.file)
        << "\", \"line\": " << d.line
        << ", \"rule\": \"" << JsonEscape(d.rule)
        << "\", \"message\": \"" << JsonEscape(d.message) << "\"}";
  }
  out << (diagnostics.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

int RunLintCli(const std::vector<std::string>& args, std::string* out,
               std::string* err) {
  std::vector<std::string> paths;
  std::string layers_path;
  bool json = false;
  std::string json_path;
  for (const std::string& arg : args) {
    if (arg.rfind("--layers=", 0) == 0) {
      layers_path = arg.substr(9);
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path = arg.substr(7);
    } else if (arg.rfind("--", 0) == 0) {
      *err += "ceres_lint: unknown flag: " + arg + "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    *err += "usage: ceres_lint [--layers=FILE] [--json[=FILE]] "
            "<file-or-dir> [file-or-dir...]\n";
    return 2;
  }

  LayerGraph layers;
  LintOptions options;
  if (!layers_path.empty()) {
    std::ifstream in(layers_path);
    if (!in) {
      *err += "ceres_lint: cannot read layers file: " + layers_path + "\n";
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    std::string parse_error;
    if (!ParseLayerGraph(content.str(), &layers, &parse_error)) {
      *err += "ceres_lint: " + parse_error + "\n";
      return 2;
    }
    options.layers = &layers;
  }

  std::string collect_error;
  const std::vector<SourceFile> sources =
      CollectSources(paths, &collect_error);
  if (!collect_error.empty()) {
    *err += "ceres_lint: " + collect_error + "\n";
    return 2;
  }

  const std::vector<Diagnostic> diagnostics = Lint(sources, options);
  for (const Diagnostic& diagnostic : diagnostics) {
    *err += FormatDiagnostic(diagnostic) + "\n";
  }
  *err += "ceres_lint: scanned " + std::to_string(sources.size()) +
          " file(s), " + std::to_string(diagnostics.size()) +
          " violation(s)\n";
  if (json) {
    const std::string report = FormatJsonReport(sources.size(), diagnostics);
    if (json_path.empty()) {
      *out += report;
    } else {
      std::ofstream json_out(json_path);
      json_out << report;
      if (!json_out) {
        *err += "ceres_lint: cannot write JSON report: " + json_path + "\n";
        return 2;
      }
    }
  }
  return diagnostics.empty() ? 0 : 1;
}

}  // namespace ceres::lint
