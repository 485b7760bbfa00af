// Micro benchmarks (google-benchmark) for the pipeline's component costs:
// HTML parsing, entity matching, topic identification, relation
// annotation, feature extraction (with its interning / hashing
// sub-phases), training (and the classifier fit on its own), and
// extraction. Not a paper table; used to watch for performance
// regressions.
//
// Usage: micro_components [--persist [path]] [google-benchmark flags]
//   --persist: also write one JSON line per benchmark (ns per op) to
//     BENCH_micro_components.json (or the given path).

#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <memory>
#include <random>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "ml/feature_id.h"
#include "ml/hashed_feature_map.h"
#include "util/arena.h"
#include "util/string_pool.h"

#include "core/entity_matcher.h"
#include "core/extractor.h"
#include "core/pipeline.h"
#include "core/relation_annotator.h"
#include "core/topic_identification.h"
#include "core/training.h"
#include "dom/html_parser.h"
#include "synth/kb_builder.h"
#include "synth/site_generator.h"
#include "synth/world.h"

namespace ceres {
namespace {

// Shared fixture: a 40-page film site plus its seed KB.
struct MicroFixture {
  MicroFixture() {
    synth::MovieWorldConfig world_config;
    world_config.scale = 0.3;
    world = std::make_unique<synth::World>(
        synth::BuildMovieWorld(world_config));
    synth::SeedKbConfig kb_config;
    kb_config.default_coverage = 0.9;
    kb = std::make_unique<KnowledgeBase>(
        synth::BuildSeedKb(*world, kb_config));

    synth::SiteSpec spec;
    spec.name = "micro.example";
    spec.seed = 77;
    spec.tmpl.topic_type = "film";
    spec.tmpl.num_recommendations = 3;
    spec.tmpl.sections = {
        {synth::pred::kFilmDirectedBy, "director",
         synth::SectionLayout::kRow, 0.05, 3},
        {synth::pred::kFilmHasCastMember, "cast",
         synth::SectionLayout::kList, 0.05, 15},
        {synth::pred::kFilmHasGenre, "genre", synth::SectionLayout::kList,
         0.05, 5},
        {synth::pred::kFilmReleaseDate, "release_date",
         synth::SectionLayout::kRow, 0.05, 1},
    };
    TypeId film = *world->kb.ontology().TypeByName("film");
    const auto& films = world->OfType(film);
    spec.topics.assign(films.begin(), films.begin() + 40);
    generated = GenerateSite(*world, spec);
    for (const synth::GeneratedPage& page : generated) {
      pages.push_back(std::move(ParseHtml(page.html)).value());
    }
    for (const DomDocument& doc : pages) page_ptrs.push_back(&doc);
    for (const DomDocument& doc : pages) {
      mentions.push_back(MatchPageMentions(doc, *kb));
    }
    TopicConfig topic_config;
    topics = IdentifyTopics(page_ptrs, mentions, *kb, topic_config);
    annotations = AnnotateRelations(page_ptrs, mentions, topics, *kb, {});
    featurizer =
        std::make_unique<FeatureExtractor>(page_ptrs, FeatureConfig{});
    training_set = std::move(
        BuildTrainingSet(page_ptrs, annotations.annotations, *featurizer,
                         kb->ontology(), TrainingConfig{})
            .value());
    model = std::make_unique<TrainedModel>(std::move(
        TrainExtractor(page_ptrs, annotations.annotations, *featurizer,
                       kb->ontology(), TrainingConfig{}))
                                               .value());
  }

  std::unique_ptr<synth::World> world;
  std::unique_ptr<KnowledgeBase> kb;
  std::vector<synth::GeneratedPage> generated;
  std::vector<DomDocument> pages;
  std::vector<const DomDocument*> page_ptrs;
  std::vector<PageMentions> mentions;
  TopicResult topics;
  AnnotationResult annotations;
  std::unique_ptr<FeatureExtractor> featurizer;
  TrainingSet training_set;
  std::unique_ptr<TrainedModel> model;
};

MicroFixture& Fixture() {
  static auto* fixture = new MicroFixture();
  return *fixture;
}

void BM_ParseHtml(benchmark::State& state) {
  const std::string& html = Fixture().generated[0].html;
  for (auto _ : state) {
    Result<DomDocument> doc = ParseHtml(html);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_ParseHtml);

void BM_EntityMatching(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  for (auto _ : state) {
    PageMentions mentions = MatchPageMentions(fixture.pages[0],
                                              *fixture.kb);
    benchmark::DoNotOptimize(mentions);
  }
}
BENCHMARK(BM_EntityMatching);

void BM_TopicIdentification(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  for (auto _ : state) {
    TopicResult topics = IdentifyTopics(fixture.page_ptrs, fixture.mentions,
                                        *fixture.kb, TopicConfig{});
    benchmark::DoNotOptimize(topics);
  }
}
BENCHMARK(BM_TopicIdentification);

void BM_RelationAnnotation(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  for (auto _ : state) {
    AnnotationResult annotations =
        AnnotateRelations(fixture.page_ptrs, fixture.mentions,
                          fixture.topics, *fixture.kb, {});
    benchmark::DoNotOptimize(annotations);
  }
}
BENCHMARK(BM_RelationAnnotation);

void BM_FeatureExtraction(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  const DomDocument& doc = fixture.pages[0];
  std::vector<NodeId> fields = doc.TextFields();
  for (auto _ : state) {
    for (NodeId node : fields) {
      SparseVector features =
          fixture.featurizer->Extract(doc, node, &fixture.model->features);
      benchmark::DoNotOptimize(features);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fields.size()));
}
BENCHMARK(BM_FeatureExtraction);

// --- Interning / hashing sub-phases of the parse->feature hot path ------

void BM_StringPoolIntern(benchmark::State& state) {
  // Steady-state interning: every name is already pooled (the parser's
  // situation after the first few pages of a site).
  static constexpr std::array<std::string_view, 8> kNames = {
      "div", "span", "class", "id", "itemprop", "td", "tr", "h4"};
  for (std::string_view name : kNames) {
    util::StringPool::Global().Intern(name);
  }
  size_t i = 0;
  for (auto _ : state) {
    std::string_view pooled =
        util::StringPool::Global().Intern(kNames[i++ & 7]);
    benchmark::DoNotOptimize(pooled);
  }
}
BENCHMARK(BM_StringPoolIntern);

void BM_ArenaAppend(benchmark::State& state) {
  // One document-sized arena per iteration: 64 text segments, as a parsed
  // page would append.
  constexpr std::string_view kSegment =
      "Directed by a celebrated director and starring a large cast";
  for (auto _ : state) {
    util::TextArena arena;
    for (int seg = 0; seg < 64; ++seg) {
      std::string_view stored = arena.Append(kSegment);
      benchmark::DoNotOptimize(stored);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ArenaAppend);

void BM_AttributeLookup(benchmark::State& state) {
  // Pooled-name attribute probes over a real parsed page (pointer-compare
  // fast path; zero allocations — see tests/dom/attribute_alloc_test.cc).
  MicroFixture& fixture = Fixture();
  const DomDocument& doc = fixture.pages[0];
  const std::string_view itemprop =
      util::StringPool::Global().Intern("itemprop");
  const std::string_view cls = util::StringPool::Global().Intern("class");
  NodeId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.Attribute(id, itemprop));
    benchmark::DoNotOptimize(doc.Attribute(id, cls));
    id = (id + 1) % doc.size();
  }
}
BENCHMARK(BM_AttributeLookup);

void BM_FeatureIdHashing(benchmark::State& state) {
  // Composing one structural feature id from tuple components (no
  // intermediate name string): the per-emission cost inside the
  // featurizer.
  constexpr std::string_view kValue = "cast-row";
  for (auto _ : state) {
    FeatureIdBuilder stem;
    stem.Add("S|l=").AddInt(2).Add("|s=").AddInt(-1).Add('|');
    FeatureIdBuilder feature = stem.WithSink(nullptr);
    feature.Add("class=").Add(kValue);
    benchmark::DoNotOptimize(feature.id());
  }
}
BENCHMARK(BM_FeatureIdHashing);

void BM_HashedFeatureMapLookup(benchmark::State& state) {
  // Hit-path id -> dense-index resolution against a trained-model-sized
  // dictionary.
  static const auto* data = [] {
    auto* out =
        new std::pair<HashedFeatureMap, std::vector<uint64_t>>();
    std::mt19937_64 rng(7);
    out->second.resize(50000);
    for (uint64_t& id : out->second) {
      id = rng();
      out->first.GetOrAdd(id);
    }
    return out;
  }();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data->first.Get(data->second[i++ % data->second.size()]));
  }
}
BENCHMARK(BM_HashedFeatureMapLookup);

void BM_Training(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  for (auto _ : state) {
    Result<TrainedModel> model = TrainExtractor(
        fixture.page_ptrs, fixture.annotations.annotations,
        *fixture.featurizer, fixture.kb->ontology(), TrainingConfig{});
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_Training)->Unit(benchmark::kMillisecond);

// The fit alone: BM_Training minus building the examples.
void BM_Fit(benchmark::State& state) {
  const TrainingSet& set = Fixture().training_set;
  for (auto _ : state) {
    LogisticRegression model;
    Result<LbfgsResult> fit = model.Train(set.examples, set.features.size(),
                                          set.classes.num_classes());
    benchmark::DoNotOptimize(fit);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_Fit)->Unit(benchmark::kMillisecond);

void BM_Extraction(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  std::vector<PageIndex> indices;
  for (size_t i = 0; i < fixture.pages.size(); ++i) {
    indices.push_back(static_cast<PageIndex>(i));
  }
  for (auto _ : state) {
    std::vector<Extraction> extractions =
        ExtractFromPages(fixture.page_ptrs, indices, fixture.model.get(),
                         *fixture.featurizer, ExtractionConfig{});
    benchmark::DoNotOptimize(extractions);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.pages.size()));
}
BENCHMARK(BM_Extraction)->Unit(benchmark::kMillisecond);

void BM_FullPipeline40Pages(benchmark::State& state) {
  MicroFixture& fixture = Fixture();
  for (auto _ : state) {
    Result<PipelineResult> result =
        RunPipeline(fixture.pages, *fixture.kb, PipelineConfig{});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FullPipeline40Pages)->Unit(benchmark::kMillisecond);

// Captures per-benchmark timings for --persist while still printing the
// normal console report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      results.emplace_back(run.benchmark_name(),
                           run.real_accumulated_time /
                               static_cast<double>(run.iterations) * 1e9);
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<std::pair<std::string, double>> results;  // name, ns per op
};

}  // namespace
}  // namespace ceres

int main(int argc, char** argv) {
  bool persist = false;
  std::string persist_path;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--persist") == 0) {
      persist = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') persist_path = argv[++i];
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  ceres::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (persist) {
    ceres::bench::BenchJson bench_json("micro_components");
    for (const auto& [name, ns_per_op] : reporter.results) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"bench\":\"micro_components\",\"name\":\"%s\","
                    "\"ns_per_op\":%.1f}",
                    name.c_str(), ns_per_op);
      bench_json.Emit(line);
    }
    if (!bench_json.Persist(persist_path)) return 1;
  }
  return 0;
}
