// Table 7 — Accuracy of Algorithm 1 (topic identification) on the
// IMDb-like corpus, split by page domain. A prediction is correct when the
// chosen seed-KB entity's name matches the page's true topic; recall is
// over pages whose topic exists in the seed KB.
//
// Paper reference: Person P 0.99 / R 0.76, Film/TV P 0.97 / R 0.88.
//
// Every run checks the paper's shape and exits 1 on a violation: topic
// precision is at least 0.95 in both domains. ctest runs it as
// paper_shape.table7_topic_id. The verdict goes to stderr, so stdout is
// the table alone.

#include <cstdio>

#include "bench/bench_common.h"

int main() {
  using namespace ceres;         // NOLINT(build/namespaces)
  using namespace ceres::bench;  // NOLINT(build/namespaces)
  const double scale = synth::EnvScale();
  std::printf("Table 7: topic identification accuracy (scale=%.2f)\n\n",
              scale);

  ParsedCorpus corpus = ParseCorpus(synth::MakeImdbCorpus(scale));
  const ParsedSite& site = corpus.sites[0];
  const TypeId person_type =
      *corpus.corpus.seed_kb.ontology().TypeByName("person");
  Split split = HalfSplit(site.pages.size());
  PipelineResult result = RunSite(site, corpus.corpus.seed_kb,
                                  MakeConfig(System::kCeresFull, split));

  std::vector<PageIndex> person_pages;
  std::vector<PageIndex> film_pages;
  for (PageIndex page : split.train) {
    EntityId topic = site.truth.pages[static_cast<size_t>(page)].topic;
    if (topic == kInvalidEntity) continue;
    (corpus.corpus.world.kb.entity(topic).type == person_type
         ? person_pages
         : film_pages)
        .push_back(page);
  }

  // The paper's Algorithm 1 is precise in both domains (0.99 and 0.97).
  constexpr double kMinPrecision = 0.95;
  int violations = 0;
  eval::TableReport table({"Domain", "P", "R", "F1"});
  for (bool person_domain : {true, false}) {
    const char* domain = person_domain ? "Person" : "Film/TV";
    eval::Prf prf = eval::ScoreTopics(
        result.topic_of_page, site.truth, corpus.corpus.seed_kb,
        person_domain ? person_pages : film_pages);
    if (prf.precision() < kMinPrecision) {
      std::fprintf(stderr,
                   "SHAPE VIOLATION: %s topic precision %.2f is below %.2f\n",
                   domain, prf.precision(), kMinPrecision);
      ++violations;
    }
    table.AddRow({domain, eval::FormatRatio(prf.precision()),
                  eval::FormatRatio(prf.recall()),
                  eval::FormatRatio(prf.f1())});
  }
  table.Print();
  std::printf(
      "\nPaper (Table 7): Person 0.99/0.76/0.86, Film/TV 0.97/0.88/0.92 "
      "(P/R/F1).\n");
  if (violations > 0) return 1;
  std::fprintf(stderr, "Shape holds: topic precision >= %.2f in both "
                       "domains.\n", kMinPrecision);
  return 0;
}
