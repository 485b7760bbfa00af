#include "lint/lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ceres::lint {
namespace {

#ifndef CERES_LINT_CORPUS_DIR
#error "CERES_LINT_CORPUS_DIR must point at tools/lint/corpus"
#endif

std::string ReadCorpus(const std::string& name) {
  const std::string path = std::string(CERES_LINT_CORPUS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

/// Lints one corpus snippet under a synthetic path (the path selects the
/// rule scope: serve scope, test exemption, stage-config scope).
std::vector<Diagnostic> LintAs(const std::string& corpus_name,
                               const std::string& synthetic_path) {
  return Lint({SourceFile{synthetic_path, ReadCorpus(corpus_name)}});
}

struct KnownBad {
  const char* corpus;
  const char* path;
  const char* rule;
};

/// Each known-bad snippet must fire its diagnostic exactly once.
TEST(CeresLintTest, EachKnownBadSnippetFiresExactlyOnce) {
  const KnownBad cases[] = {
      {"ignored_status.cc", "src/eval/ignored_status.cc", "ignored-status"},
      {"naked_mutex.cc", "src/serve/naked_mutex.cc", "naked-sync"},
      {"detached_thread.cc", "src/dom/detached_thread.cc", "thread-hygiene"},
      {"sleep_poll.cc", "src/robustness/sleep_poll.cc", "thread-hygiene"},
      {"raw_parallelism.cc", "src/core/raw_parallelism.cc",
       "raw-parallelism"},
      {"raw_timing.cc", "src/core/raw_timing.cc", "raw-timing"},
      {"raw_process.cc", "src/serve/raw_process.cc", "raw-process"},
      {"raw_socket.cc", "src/serve/raw_socket.cc", "raw-socket"},
      {"hot_alloc.cc", "src/dom/hot_alloc.cc", "hot-alloc"},
      {"temp_string_lookup.cc", "src/ml/temp_string_lookup.cc", "hot-alloc"},
      {"blocking_in_loop.cc", "src/net/blocking_in_loop.cc",
       "blocking-in-loop"},
      {"stale_suppression.cc", "src/eval/stale_suppression.cc",
       "stale-suppression"},
  };
  for (const KnownBad& known : cases) {
    SCOPED_TRACE(known.corpus);
    const std::vector<Diagnostic> diagnostics =
        LintAs(known.corpus, known.path);
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].rule, known.rule);
    EXPECT_EQ(diagnostics[0].file, known.path);
    EXPECT_GT(diagnostics[0].line, 0);
  }
}

TEST(CeresLintTest, CleanSnippetProducesNoDiagnostics) {
  // Even under the strictest scope (src/serve/), the clean corpus file —
  // which uses the checked wrappers, macro-propagated and (void)-discarded
  // Status, and a suppressed deliberate sleep — must lint clean.
  EXPECT_TRUE(LintAs("clean.cc", "src/serve/clean.cc").empty());
}

TEST(CeresLintTest, WholeCorpusTotalsAcrossFiles) {
  // All snippets linted together as one program: the Status-function pass
  // is global, and each bad file still reports exactly its one violation.
  std::vector<SourceFile> files = {
      {"src/eval/ignored_status.cc", ReadCorpus("ignored_status.cc")},
      {"src/serve/naked_mutex.cc", ReadCorpus("naked_mutex.cc")},
      {"src/dom/detached_thread.cc", ReadCorpus("detached_thread.cc")},
      {"src/robustness/sleep_poll.cc", ReadCorpus("sleep_poll.cc")},
      {"src/core/raw_parallelism.cc", ReadCorpus("raw_parallelism.cc")},
      {"src/serve/raw_timing.cc", ReadCorpus("raw_timing.cc")},
      {"src/eval/raw_process.cc", ReadCorpus("raw_process.cc")},
      {"src/eval/raw_socket.cc", ReadCorpus("raw_socket.cc")},
      {"src/dom/hot_alloc.cc", ReadCorpus("hot_alloc.cc")},
      {"src/ml/temp_string_lookup.cc", ReadCorpus("temp_string_lookup.cc")},
      {"src/net/blocking_in_loop.cc", ReadCorpus("blocking_in_loop.cc")},
      {"src/eval/stale_suppression.cc", ReadCorpus("stale_suppression.cc")},
      // The cycle pair reports its one cycle; layer_violation.cc is inert
      // here because no layer graph is passed (the edge check needs one —
      // cycle detection does not).
      {"src/dom/include_cycle_a.h", ReadCorpus("include_cycle_a.h")},
      {"src/dom/include_cycle_b.h", ReadCorpus("include_cycle_b.h")},
      {"src/dom/layer_violation.cc", ReadCorpus("layer_violation.cc")},
      {"src/serve/clean.cc", ReadCorpus("clean.cc")},
  };
  EXPECT_EQ(Lint(files).size(), 13u);
}

TEST(CeresLintTest, ScopeGatesRules) {
  // The same content outside its rule's scope is silent: naked std::mutex
  // is allowed off the serve path, and sleeps are allowed in tests.
  EXPECT_TRUE(LintAs("naked_mutex.cc", "src/kb/naked_mutex.cc").empty());
  EXPECT_TRUE(
      LintAs("sleep_poll.cc", "tests/robustness/sleep_poll_test.cc").empty());
  // A hard-coded thread count is only policed in the batch-pipeline scope.
  EXPECT_TRUE(
      LintAs("raw_parallelism.cc", "src/serve/raw_parallelism.cc").empty());
  // Raw steady_clock is only policed in pipeline/serve code, and src/obs/
  // (the clock wrapper itself) is carved out of that scope.
  EXPECT_TRUE(LintAs("raw_timing.cc", "src/eval/raw_timing.cc").empty());
  EXPECT_TRUE(LintAs("raw_timing.cc", "src/obs/raw_timing.cc").empty());
  // Process-control calls are the dist layer's business — the same content
  // inside src/dist/ or a test file no longer trips raw-process. The
  // corpus snippet carries an allow(raw-process) comment, though, and out
  // of scope that suppression pays for nothing — the stale-suppression
  // audit reports exactly it.
  for (const char* path : {"src/dist/raw_process.cc",
                           "tests/dist/raw_process_test.cc"}) {
    SCOPED_TRACE(path);
    const std::vector<Diagnostic> diagnostics =
        LintAs("raw_process.cc", path);
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].rule, "stale-suppression");
  }
  // Socket/epoll calls are the net layer's business — same shape: the
  // rule goes silent, its suppression goes stale.
  for (const char* path :
       {"src/net/raw_socket.cc", "tests/net/raw_socket_test.cc"}) {
    SCOPED_TRACE(path);
    const std::vector<Diagnostic> diagnostics =
        LintAs("raw_socket.cc", path);
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].rule, "stale-suppression");
  }
  // The hot-alloc and event-loop scopes gate the new rules the same way.
  EXPECT_TRUE(LintAs("hot_alloc.cc", "src/serve/hot_alloc.cc").empty());
  EXPECT_TRUE(LintAs("hot_alloc.cc", "tests/dom/hot_alloc_test.cc").empty());
  // src/ml/ is part of the hot-alloc scope; src/kb/ is not, and tests
  // never are.
  ASSERT_EQ(LintAs("hot_alloc.cc", "src/ml/hot_alloc.cc").size(), 1u);
  EXPECT_TRUE(
      LintAs("temp_string_lookup.cc", "src/kb/temp_string_lookup.cc").empty());
  EXPECT_TRUE(
      LintAs("temp_string_lookup.cc", "tests/ml/temp_string_lookup_test.cc")
          .empty());
  EXPECT_TRUE(
      LintAs("blocking_in_loop.cc", "src/dist/blocking_in_loop.cc").empty());
  // http_client.* is carved out of the event-loop scope: the client is
  // the deliberately-blocking side of src/net/.
  EXPECT_TRUE(
      LintAs("blocking_in_loop.cc", "src/net/http_client_retry.cc").empty());
}

TEST(CeresLintTest, NakedSyncCoversNetScope) {
  // src/net/ joined the lock-order-checked scope with the HTTP server:
  // the event loop's responder inbox and drain signal must use the
  // sync.h wrappers.
  const std::vector<Diagnostic> diagnostics =
      LintAs("naked_mutex.cc", "src/net/naked_mutex.cc");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "naked-sync");
}

TEST(CeresLintTest, RawSocketBansDescriptorCallsButNotPoll) {
  // socket() and epoll_ctl() are flagged outside src/net/; poll() is not
  // (the dist coordinator waits on worker pipes with it).
  const std::string content =
      "namespace ceres {\n"
      "void Wait(int fd) {\n"
      "  int listener = socket(2, 1, 0);\n"
      "  epoll_ctl(listener, 1, fd, nullptr);\n"
      "  poll(nullptr, 0, 50);\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/dist/wait.cc", content}});
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "raw-socket");
  EXPECT_EQ(diagnostics[0].line, 3);
  EXPECT_EQ(diagnostics[1].rule, "raw-socket");
  EXPECT_EQ(diagnostics[1].line, 4);
}

TEST(CeresLintTest, RawProcessDistinguishesCallsFromNames) {
  const std::string content =
      "namespace ceres {\n"
      "void Reap(int pid) {\n"
      "  int status = 0;\n"
      "  waitpid(pid, &status, 0);\n"
      "  (void)::kill(pid, 9);\n"
      "}\n"
      "int fork_count = 0;\n"
      "void HandleKill(int kill) { (void)kill; }\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/robustness/reap.cc", content}});
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule, "raw-process");
  EXPECT_EQ(diagnostics[0].line, 4);
  EXPECT_EQ(diagnostics[1].line, 5);
}

TEST(CeresLintTest, RawParallelismCatchesEachShape) {
  const std::string content =
      "namespace ceres {\n"
      "void Fan(size_t n, const ParallelConfig& config) {\n"
      "  std::thread worker([] {});\n"
      "  ParallelFor(n, 4, [](size_t) {});\n"
      "  ParallelConfig pool{2};\n"
      "  ParallelFor(n, config, [](size_t) {});\n"
      "  ParallelFor(n, ParallelConfig::Sequential(), [](size_t) {});\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/core/fan.cc", content}});
  ASSERT_EQ(diagnostics.size(), 3u);
  for (const Diagnostic& diagnostic : diagnostics) {
    EXPECT_EQ(diagnostic.rule, "raw-parallelism");
  }
  EXPECT_EQ(diagnostics[0].line, 3);
  EXPECT_EQ(diagnostics[1].line, 4);
  EXPECT_EQ(diagnostics[2].line, 5);
}

TEST(CeresLintTest, SuppressionCommentSilencesOneLine) {
  const std::string content =
      "namespace ceres {\n"
      "Status DoWork();\n"
      "void Caller() {\n"
      "  DoWork();  // ceres-lint: allow(ignored-status)\n"
      "  DoWork();\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/eval/suppressed.cc", content}});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 5);
}

TEST(CeresLintTest, IgnoredStatusSeesCallsThroughReceiverChains) {
  const std::string content =
      "namespace ceres {\n"
      "struct Registry { Status Publish(); };\n"
      "void Caller(Registry* registry, Registry& ref) {\n"
      "  registry->Publish();\n"
      "  ref.Publish();\n"
      "  Status kept = ref.Publish();\n"
      "  if (!kept.ok()) return;\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/eval/chains.cc", content}});
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].line, 4);
  EXPECT_EQ(diagnostics[1].line, 5);
}

TEST(CeresLintTest, FormatIsFileLineRuleMessage) {
  const Diagnostic diagnostic{"src/a.cc", 12, "naked-sync", "boom"};
  EXPECT_EQ(FormatDiagnostic(diagnostic), "src/a.cc:12: [naked-sync] boom");
}

// --- layer-violation -------------------------------------------------------

constexpr char kTestLayers[] =
    "# leaf-first test graph\n"
    "util:\n"
    "dom: util\n"
    "net: util\n"
    "tools: *\n";

LayerGraph ParseLayersOrDie(const std::string& text) {
  LayerGraph graph;
  std::string error;
  EXPECT_TRUE(ParseLayerGraph(text, &graph, &error)) << error;
  return graph;
}

std::vector<Diagnostic> LintWithLayers(const std::vector<SourceFile>& files,
                                       const LayerGraph& graph) {
  LintOptions options;
  options.layers = &graph;
  return Lint(files, options);
}

TEST(CeresLintTest, LayerViolationCorpusFiresWithGraph) {
  const LayerGraph graph = ParseLayersOrDie(kTestLayers);
  // dom -> net is not a declared edge; the same-module and dom -> util
  // includes are fine.
  const std::vector<Diagnostic> diagnostics = LintWithLayers(
      {{"src/dom/layer_violation.cc", ReadCorpus("layer_violation.cc")}},
      graph);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layer-violation");
  EXPECT_NE(diagnostics[0].message.find("dom -> net"), std::string::npos);
  // Driver layers declare "*" and may include anything; tests are exempt
  // from layering entirely.
  EXPECT_TRUE(LintWithLayers({{"tools/layer_violation.cc",
                               ReadCorpus("layer_violation.cc")}},
                             graph)
                  .empty());
  EXPECT_TRUE(LintWithLayers({{"tests/dom/layer_violation_test.cc",
                               ReadCorpus("layer_violation.cc")}},
                             graph)
                  .empty());
  // Without a graph the edge check is off (LintAs passes no options).
  EXPECT_TRUE(
      LintAs("layer_violation.cc", "src/dom/layer_violation.cc").empty());
}

TEST(CeresLintTest, UndeclaredModuleIsAViolation) {
  const LayerGraph graph = ParseLayersOrDie(kTestLayers);
  const std::vector<Diagnostic> diagnostics = LintWithLayers(
      {{"src/cluster/new_thing.cc", "namespace ceres {}\n"}}, graph);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layer-violation");
  EXPECT_NE(diagnostics[0].message.find("not declared"), std::string::npos);
}

TEST(CeresLintTest, IncludeCycleReportedOnceWithFullPath) {
  // The cycle check runs with or without a layer graph — a cycle is a
  // layering fault no DAG entry can legalize.
  const std::vector<SourceFile> files = {
      {"src/dom/include_cycle_a.h", ReadCorpus("include_cycle_a.h")},
      {"src/dom/include_cycle_b.h", ReadCorpus("include_cycle_b.h")},
  };
  const std::vector<Diagnostic> diagnostics = Lint(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "layer-violation");
  EXPECT_NE(diagnostics[0].message.find("include cycle"), std::string::npos);
  // The full rotated path names both files.
  EXPECT_NE(diagnostics[0].message.find("src/dom/include_cycle_a.h"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("src/dom/include_cycle_b.h"),
            std::string::npos);
  // Either half alone is silent: its include target resolves to no
  // scanned file, so there is no edge to close a cycle with.
  EXPECT_TRUE(
      LintAs("include_cycle_a.h", "src/dom/include_cycle_a.h").empty());
}

TEST(CeresLintTest, ParseLayerGraphValidates) {
  LayerGraph graph;
  std::string error;
  // Valid: comments, blank lines, wildcard, forward references.
  EXPECT_TRUE(ParseLayerGraph(
      "a: b  # forward reference is fine\nb:\nd: *\n", &graph, &error))
      << error;
  EXPECT_TRUE(graph.Allows("a", "b"));
  EXPECT_TRUE(graph.Allows("a", "a"));  // self-edge needs no declaration
  EXPECT_FALSE(graph.Allows("b", "a"));
  EXPECT_TRUE(graph.Allows("d", "a"));  // wildcard
  EXPECT_TRUE(graph.Declares("a"));
  EXPECT_FALSE(graph.Declares("zzz"));
  // Missing colon.
  EXPECT_FALSE(ParseLayerGraph("a b\n", &graph, &error));
  EXPECT_NE(error.find("expected 'module:'"), std::string::npos);
  // Dependency on an undeclared module.
  EXPECT_FALSE(ParseLayerGraph("a: ghost\n", &graph, &error));
  EXPECT_NE(error.find("undeclared"), std::string::npos);
  // Duplicate declaration.
  EXPECT_FALSE(ParseLayerGraph("a:\na:\n", &graph, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);
}

TEST(CeresLintTest, RepoLayersFileParses) {
  // The committed layers.txt must stay well-formed; the lint target would
  // exit 2 otherwise and tier1 treats that as an internal error.
  const std::string path =
      std::string(CERES_LINT_CORPUS_DIR) + "/../layers.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::ostringstream text;
  text << in.rdbuf();
  LayerGraph graph;
  std::string error;
  EXPECT_TRUE(ParseLayerGraph(text.str(), &graph, &error)) << error;
  // Spot-check the repo's contract: core may use cluster, never the
  // reverse; eval must not depend on synth (the truth adapter lives in
  // synth/ for exactly that reason).
  EXPECT_TRUE(graph.Allows("core", "cluster"));
  EXPECT_FALSE(graph.Allows("cluster", "core"));
  EXPECT_FALSE(graph.Allows("eval", "synth"));
  EXPECT_TRUE(graph.Allows("synth", "eval"));
}

// --- hot-alloc -------------------------------------------------------------

TEST(CeresLintTest, HotAllocCatchesEachShape) {
  const std::string content =
      "namespace ceres {\n"
      "struct Pool { void Add(std::string id) {\n"
      "  ids.push_back(std::move(id)); } };\n"
      "int Hash(std::string key) { return static_cast<int>(key.size()); }\n"
      "void Walk(const std::vector<std::string>& tags, Pool& pool) {\n"
      "  std::string path;\n"
      "  for (const std::string& tag : tags) {\n"
      "    path = path + \"/\" + tag;\n"
      "    std::string pair = tag + path;\n"
      "    (void)Hash(tag);\n"
      "    pool.Add(tag);\n"
      "  }\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/text/walk.cc", content}});
  // Three findings: the by-value parameter of Hash (called from the loop;
  // Pool::Add is exempt — it std::moves its parameter, the sink idiom),
  // the operator+ chain (one diagnostic after dedup), and the
  // concatenating std::string declaration.
  ASSERT_EQ(diagnostics.size(), 3u);
  for (const Diagnostic& diagnostic : diagnostics) {
    EXPECT_EQ(diagnostic.rule, "hot-alloc");
  }
  EXPECT_EQ(diagnostics[0].line, 4);
  EXPECT_NE(diagnostics[0].message.find("'Hash'"), std::string::npos);
  EXPECT_EQ(diagnostics[1].line, 8);
  EXPECT_EQ(diagnostics[2].line, 9);
}

TEST(CeresLintTest, HotAllocIgnoresColdScopesAndColdCalls) {
  // Outside a loop body nothing fires; outside the hot modules nothing
  // fires either.
  const std::string content =
      "namespace ceres {\n"
      "void Once() {\n"
      "  std::map<std::string, int> counts;\n"
      "  std::string joined = std::string(\"a\") + \"b\";\n"
      "}\n"
      "}  // namespace ceres\n";
  EXPECT_TRUE(Lint({SourceFile{"src/core/once.cc", content}}).empty());
  const std::string loop_content =
      "namespace ceres {\n"
      "void Busy() {\n"
      "  for (int i = 0; i < 3; ++i) {\n"
      "    std::map<std::string, int> counts;\n"
      "  }\n"
      "}\n"
      "}  // namespace ceres\n";
  EXPECT_TRUE(
      Lint({SourceFile{"src/serve/busy.cc", loop_content}}).empty());
  ASSERT_EQ(Lint({SourceFile{"src/core/busy.cc", loop_content}}).size(), 1u);
}

TEST(CeresLintTest, HotAllocCatchesTemporaryStringLookups) {
  // The temporary-string probe fires outside loops too: the defining
  // instance (a dictionary's GetOrAdd) is a flat helper that hot loops
  // call. Each probe method is covered; probing with an existing string
  // or through a transparent hasher is silent.
  const std::string content =
      "namespace ceres {\n"
      "int Probe(const Index& index, std::string_view name) {\n"
      "  if (index.map.count(std::string(name)) == 0) return -1;\n"
      "  auto it = index.map.find(std::string(name));\n"
      "  return index.map.at(std::string(name));\n"
      "}\n"
      "void Drop(Index& index, std::string_view name) {\n"
      "  index.map.erase(std::string(name));\n"
      "}\n"
      "int Fine(const Index& index, const std::string& name) {\n"
      "  auto it = index.map.find(name);\n"
      "  return it == index.map.end() ? -1 : it->second;\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/ml/probe.cc", content}});
  ASSERT_EQ(diagnostics.size(), 4u);
  for (const Diagnostic& diagnostic : diagnostics) {
    EXPECT_EQ(diagnostic.rule, "hot-alloc");
    EXPECT_NE(diagnostic.message.find("transparent hasher"),
              std::string::npos);
  }
  EXPECT_EQ(diagnostics[0].line, 3);
  EXPECT_EQ(diagnostics[1].line, 4);
  EXPECT_EQ(diagnostics[2].line, 5);
  EXPECT_EQ(diagnostics[3].line, 8);
}

// --- blocking-in-loop ------------------------------------------------------

TEST(CeresLintTest, BlockingInLoopCatchesSleepAndClient) {
  const std::string content =
      "namespace ceres {\n"
      "void Tick(HttpClient& upstream) {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/net/server_tick.cc", content}});
  // The sleep fires blocking-in-loop and thread-hygiene (net is non-test
  // code); naming HttpClient in loop scope fires once.
  ASSERT_EQ(diagnostics.size(), 3u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_EQ(diagnostics[0].rule, "blocking-in-loop");
  EXPECT_NE(diagnostics[0].message.find("HttpClient"), std::string::npos);
}

TEST(CeresLintTest, BlockingInLoopFlagsOnlyUnguardedReadWrite) {
  const std::string content =
      "namespace ceres {\n"
      "void Drain(int fd) {\n"
      "  char b[8];\n"
      "  ::read(fd, b, sizeof(b));\n"
      "  while (::read(fd, b, 8) > 0) {}\n"
      "  (void)!::write(fd, b, 1);\n"
      "  long n = ::read(fd, b, 8);\n"
      "  (void)n;\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/net/drain.cc", content}});
  // Only the bare statement on line 4 — the guarded loop condition, the
  // (void)-discarded write, and the result-kept read all pass.
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "blocking-in-loop");
  EXPECT_EQ(diagnostics[0].line, 4);
}

// --- stale-suppression -----------------------------------------------------

TEST(CeresLintTest, StaleSuppressionFlagsUnknownRuleNames) {
  const std::string content =
      "namespace ceres {\n"
      "Status DoWork();\n"
      "void Caller() {\n"
      "  DoWork();  // ceres-lint: allow(all)\n"
      "  DoWork();  // ceres-lint: allow(igored-status)\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/eval/typo.cc", content}});
  // allow(all) on line 4 suppresses its ignored-status and is counted as
  // used; the typo'd rule on line 5 suppresses nothing, so both the
  // original diagnostic and the audit fire there.
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].line, 5);
  EXPECT_EQ(diagnostics[0].rule, "ignored-status");
  EXPECT_EQ(diagnostics[1].line, 5);
  EXPECT_EQ(diagnostics[1].rule, "stale-suppression");
  EXPECT_NE(diagnostics[1].message.find("unknown rule"), std::string::npos);
}

TEST(CeresLintTest, StaleSuppressionAuditIsNotSuppressible) {
  const std::string content =
      "namespace ceres {\n"
      "void Fine();\n"
      "void Caller() {\n"
      "  Fine();  // ceres-lint: allow(thread-hygiene) "
      "ceres-lint: allow(stale-suppression)\n"
      "}\n"
      "}  // namespace ceres\n";
  const std::vector<Diagnostic> diagnostics =
      Lint({SourceFile{"src/eval/unsupressible.cc", content}});
  // Both entries are dead weight and both are reported — trying to
  // pre-excuse the audit itself doesn't work.
  ASSERT_EQ(diagnostics.size(), 2u);
  for (const Diagnostic& diagnostic : diagnostics) {
    EXPECT_EQ(diagnostic.rule, "stale-suppression");
    EXPECT_EQ(diagnostic.line, 4);
  }
}

// --- CLI contract ----------------------------------------------------------

TEST(CeresLintTest, ExitCodeContract) {
  const std::string corpus = CERES_LINT_CORPUS_DIR;
  std::string out;
  std::string err;
  // 0: clean (the clean corpus snippet passed as a direct file).
  EXPECT_EQ(RunLintCli({corpus + "/clean.cc"}, &out, &err), 0);
  // 1: findings.
  out.clear();
  err.clear();
  EXPECT_EQ(RunLintCli({corpus + "/ignored_status.cc"}, &out, &err), 1);
  EXPECT_NE(err.find("ignored-status"), std::string::npos);
  // 2: internal errors — bad path, unknown flag, malformed layers file,
  // no inputs at all.
  out.clear();
  err.clear();
  EXPECT_EQ(RunLintCli({corpus + "/does_not_exist.cc"}, &out, &err), 2);
  out.clear();
  err.clear();
  EXPECT_EQ(RunLintCli({"--bogus", corpus + "/clean.cc"}, &out, &err), 2);
  out.clear();
  err.clear();
  EXPECT_EQ(
      RunLintCli({"--layers=" + corpus + "/clean.cc", corpus + "/clean.cc"},
                 &out, &err),
      2);
  out.clear();
  err.clear();
  EXPECT_EQ(RunLintCli({}, &out, &err), 2);
}

TEST(CeresLintTest, JsonReportShape) {
  const std::vector<Diagnostic> diagnostics = {
      {"src/a.cc", 3, "hot-alloc", "msg with \"quotes\""}};
  const std::string json = FormatJsonReport(2, diagnostics);
  EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  const std::string empty = FormatJsonReport(0, {});
  EXPECT_NE(empty.find("\"violations\": 0"), std::string::npos);
  // --json streams the report to `out`; diagnostics still land in `err`.
  std::string out;
  std::string err;
  const std::string corpus = CERES_LINT_CORPUS_DIR;
  EXPECT_EQ(RunLintCli({"--json", corpus + "/ignored_status.cc"}, &out, &err),
            1);
  EXPECT_NE(out.find("\"rule\": \"ignored-status\""), std::string::npos);
  EXPECT_NE(err.find("violation(s)"), std::string::npos);
}

}  // namespace
}  // namespace ceres::lint
