// kb_load — out-of-core KB serving: image map vs text parse.
//
// Synthesizes knowledge bases at 1x / 10x / 100x scale, writes each one as
// both the portable text format (kb/kb_io.h) and the frozen binary image
// (kb/kb_image.h), then measures for every scale:
//
//   * parse_ms — LoadKbFromFile: read text, build indexes, Freeze();
//   * map_ms   — KnowledgeBase::OpenImage: one mmap + O(1) validation;
//   * worker_rss_parse_kb / worker_rss_map_kb — resident set of a forked
//     worker process that opens the KB by that method and serves queries
//     (the dist/ worker startup path). Mapped workers stay flat: the image
//     pages are clean file-backed pages shared across every worker.
//
// Each sweep point is emitted as a BENCH JSON line:
//
//   BENCH {"bench":"kb_load","scale":10,"entities":...,"parse_ms":...}
//
// Invariants (exit 1 on violation):
//   * the mapped KB answers mention/triple/object queries identically to
//     the heap-frozen KB it was written from, at every scale;
//   * the image reopens under full checksum + string-ref verification.
//
// Usage: kb_load [--smoke] [--persist [path]]
//   --smoke:   1x scale only; wired into tools/tier1.sh.
//   --persist: also write the BENCH lines to BENCH_kb_load.json (or
//              `path`) for a committed result trail.

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "kb/kb_io.h"
#include "kb/knowledge_base.h"
#include "util/string_util.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

int g_violations = 0;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATED: %s\n", what);
    ++g_violations;
  }
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Synthesizes a deterministic KB with `base * scale` entities: films with
// aliased directors/actors and per-film date literals, three triples per
// film — enough string and triple volume to make load costs visible.
KnowledgeBase MakeKb(int scale, int base = 2000) {
  Ontology ontology;
  TypeId film = ontology.AddEntityType("film");
  TypeId person = ontology.AddEntityType("person");
  TypeId date = ontology.AddEntityType("date", /*is_literal=*/true);
  PredicateId directed = ontology.AddPredicate("directedBy", film, person,
                                               /*multi_valued=*/false);
  PredicateId starring = ontology.AddPredicate("starring", film, person,
                                               /*multi_valued=*/true);
  PredicateId released = ontology.AddPredicate("releaseDate", film, date,
                                               /*multi_valued=*/false);

  KnowledgeBase kb(std::move(ontology));
  const int films = base * scale / 2;
  const int people = base * scale / 4;
  std::vector<EntityId> person_ids;
  person_ids.reserve(people);
  for (int i = 0; i < people; ++i) {
    EntityId id =
        kb.AddEntity(person, StrCat("Person Benchmark Name ", i));
    kb.AddAlias(id, StrCat("P. B. Name ", i));
    person_ids.push_back(id);
  }
  for (int i = 0; i < films; ++i) {
    EntityId f = kb.AddEntity(film, StrCat("The Benchmark Picture ", i));
    EntityId d = kb.AddEntity(
        date, StrCat(1950 + i % 70, "-0", 1 + i % 9, "-1", i % 9));
    kb.AddTriple(f, directed, person_ids[i % people]);
    kb.AddTriple(f, starring, person_ids[(i * 7 + 3) % people]);
    kb.AddTriple(f, released, d);
  }
  kb.Freeze();
  return kb;
}

// Resident set size of the calling process, in KiB (Linux /proc/self/statm).
int64_t SelfRssKb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size = 0;
  long long resident = 0;
  const int fields = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (fields != 2) return -1;
  return resident * (::sysconf(_SC_PAGESIZE) / 1024);
}

// Forks a worker that opens the KB from `path` (map or parse), touches the
// serving paths, and reports the RSS it *added* doing so back through a
// pipe. The delta (after-open minus before-open) excludes the address
// space inherited copy-on-write from the bench parent, so it is the
// incremental cost of one more worker on the machine: the parsed heap for
// the text path, the faulted-in (shareable, file-backed) image pages for
// the mapped path.
//
// The probe forks, exits and reaps its child directly, outside src/dist/:
// the dist coordinator runs pipeline shards, not arbitrary closures, and
// the child here must start from this process's address space for the
// delta to mean anything. Each raw call carries a lint allow-comment.
int64_t ForkedWorkerRssKb(const std::string& path, bool map) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  const pid_t pid = ::fork();  // ceres-lint: allow(raw-process)
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int64_t rss = -1;
    const int64_t before = SelfRssKb();
    Result<KnowledgeBase> kb = map ? KnowledgeBase::OpenImage(path)
                                   : LoadKbFromFile(path);
    if (kb.ok() && before >= 0) {
      // Touch the serving paths so the measurement includes real traffic
      // (faulted-in pages for the mapped KB, not just the clean open).
      int64_t sum = 0;
      for (EntityId id = 0; id < kb->num_entities(); id += 97) {
        sum += static_cast<int64_t>(kb->MatchMentionsView(
            kb->entity(id).name).size());
        sum += static_cast<int64_t>(kb->TriplesWithSubject(id).size());
      }
      rss = SelfRssKb() - before + (sum == -12345 ? 1 : 0);  // keep `sum` alive
    }
    const ssize_t written = ::write(fds[1], &rss, sizeof(rss));
    ::close(fds[1]);
    const int code = written == sizeof(rss) && rss >= 0 ? 0 : 1;
    ::_exit(code);  // ceres-lint: allow(raw-process)
  }
  ::close(fds[1]);
  int64_t rss = -1;
  const ssize_t got = ::read(fds[0], &rss, sizeof(rss));
  ::close(fds[0]);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);  // ceres-lint: allow(raw-process)
  if (got != sizeof(rss) || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return -1;
  }
  return rss;
}

// Spot-check that `mapped` serves identically to `heap` (the full matrix
// lives in tests/kb/kb_image_parity_test.cc; the bench re-checks at every
// sweep scale, where the tests' fixtures are small).
void CheckParity(const KnowledgeBase& heap, const KnowledgeBase& mapped) {
  Require(heap.num_entities() == mapped.num_entities(),
          "mapped KB entity count differs");
  Require(heap.num_triples() == mapped.num_triples(),
          "mapped KB triple count differs");
  for (EntityId id = 0; id < heap.num_entities(); id += 31) {
    const Entity a = heap.entity(id);
    const Entity b = mapped.entity(id);
    Require(a.name == b.name && a.type == b.type,
            "mapped KB entity record differs");
    std::span<const EntityId> ma = heap.MatchMentionsView(a.name);
    std::span<const EntityId> mb = mapped.MatchMentionsView(b.name);
    Require(std::vector<EntityId>(ma.begin(), ma.end()) ==
                std::vector<EntityId>(mb.begin(), mb.end()),
            "mapped KB mention match differs");
    std::span<const Triple> ta = heap.TriplesWithSubject(id);
    std::span<const Triple> tb = mapped.TriplesWithSubject(id);
    Require(std::vector<Triple>(ta.begin(), ta.end()) ==
                std::vector<Triple>(tb.begin(), tb.end()),
            "mapped KB subject triples differ");
  }
}

void RunScale(int scale, bench::BenchJson* json) {
  const std::string text_path =
      StrCat("/tmp/kb_load_", ::getpid(), "_", scale, ".kb");
  const std::string image_path =
      StrCat("/tmp/kb_load_", ::getpid(), "_", scale, ".kbi");

  KnowledgeBase kb = MakeKb(scale);
  Require(SaveKbToFile(kb, text_path).ok(), "text KB save failed");
  Require(kb.SaveImage(image_path).ok(), "image save failed");

  // Probe worker RSS before this process loads further KB copies, to keep
  // the forked children's inherited address space small.
  const int64_t rss_parse = ForkedWorkerRssKb(text_path, /*map=*/false);
  const int64_t rss_map = ForkedWorkerRssKb(image_path, /*map=*/true);
  Require(rss_parse > 0 && rss_map > 0, "forked worker RSS probe failed");

  auto parse_start = std::chrono::steady_clock::now();
  Result<KnowledgeBase> parsed = LoadKbFromFile(text_path);
  const double parse_ms = MsSince(parse_start);
  Require(parsed.ok(), "text KB load failed");

  auto map_start = std::chrono::steady_clock::now();
  Result<KnowledgeBase> mapped = KnowledgeBase::OpenImage(image_path);
  const double map_ms = MsSince(map_start);
  Require(mapped.ok(), "image open failed");

  KnowledgeBase::OpenOptions verify;
  verify.verify_checksum = true;
  Require(KnowledgeBase::OpenImage(image_path, verify).ok(),
          "image failed checksum + ref verification");

  if (mapped.ok()) CheckParity(kb, *mapped);

  json->Emit(StrCat(
      "{\"bench\":\"kb_load\",\"scale\":", scale,
      ",\"entities\":", kb.num_entities(), ",\"triples\":", kb.num_triples(),
      ",\"image_bytes\":", kb.image_bytes().size(),
      ",\"parse_ms\":", parse_ms, ",\"map_ms\":", map_ms,
      ",\"worker_rss_parse_kb\":", rss_parse,
      ",\"worker_rss_map_kb\":", rss_map, "}"));

  ::unlink(text_path.c_str());
  ::unlink(image_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool persist = false;
  std::string persist_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--persist") == 0) {
      persist = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') persist_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: kb_load [--smoke] [--persist [path]]\n");
      return 2;
    }
  }

  bench::BenchJson json("kb_load");
  for (int scale : smoke ? std::vector<int>{1}
                         : std::vector<int>{1, 10, 100}) {
    RunScale(scale, &json);
  }

  if (persist && !json.Persist(persist_path)) ++g_violations;
  if (g_violations > 0) {
    std::fprintf(stderr, "kb_load: %d violation(s)\n", g_violations);
    return 1;
  }
  std::printf("kb_load: OK\n");
  return 0;
}
