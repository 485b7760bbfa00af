// ceres_extract — command-line distant-supervision extraction.
//
// Reads a seed KB (kb_io format) and a directory of crawled HTML pages,
// runs the full CERES pipeline, and writes extractions as TSV:
//   subject \t predicate \t object \t confidence \t page
//
// Usage:
//   ceres_extract --kb seed.kb --pages ./crawl_dir --out triples.tsv
//                 [--threshold 0.5] [--no-cluster] [--min-cluster 5]
//                 [--topic-only] [--save-model model.txt] [--verbose]
//                 [--model model.txt] [--trace_json trace.json]
//
// Pages are read from every regular file in --pages (sorted by name).
// With --save-model, the largest cluster's trained model is persisted.
// With --model, the saved model is applied directly (annotation and
// training are skipped; the KB is only needed for its ontology).
// With --trace_json (also accepted as --trace_json=PATH), the run records
// per-stage TraceSpans, renders the run's batch counters from its
// PipelineResult (AddPipelineCounters) and writes
// {"trace":...,"metrics":...} JSON to PATH after the pipeline finishes.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/extractor.h"
#include "core/model_io.h"
#include "core/pipeline.h"
#include "dom/html_parser.h"
#include "flag_value.h"
#include "kb/kb_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

struct Options {
  std::string kb_path;
  std::string pages_dir;
  std::string out_path;
  std::string save_model_path;
  std::string model_path;
  std::string trace_json_path;
  double threshold = 0.5;
  bool cluster = true;
  size_t min_cluster = 5;
  bool topic_only = false;
  bool verbose = false;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: ceres_extract --kb <kb file> --pages <dir> --out <tsv>\n"
      "  [--threshold 0.5] [--no-cluster] [--min-cluster N]\n"
      "  [--topic-only] [--save-model <file>] [--model <file>]\n"
      "  [--trace_json <file>] [--verbose]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    if (arg == "--kb") {
      if (!next(&options->kb_path)) return false;
    } else if (arg == "--pages") {
      if (!next(&options->pages_dir)) return false;
    } else if (arg == "--out") {
      if (!next(&options->out_path)) return false;
    } else if (arg == "--save-model") {
      if (!next(&options->save_model_path)) return false;
    } else if (arg == "--model") {
      if (!next(&options->model_path)) return false;
    } else if (arg == "--trace_json") {
      if (!next(&options->trace_json_path)) return false;
    } else if (arg.rfind("--trace_json=", 0) == 0) {
      options->trace_json_path = arg.substr(std::strlen("--trace_json="));
      if (options->trace_json_path.empty()) return false;
    } else if (arg == "--threshold") {
      std::string value;
      if (!next(&value) ||
          !tools::ParseFlagValue(value, &options->threshold, 0.0, 1.0)) {
        std::fprintf(stderr, "bad --threshold: %s\n", value.c_str());
        return false;
      }
    } else if (arg == "--min-cluster") {
      std::string value;
      if (!next(&value) ||
          !tools::ParseFlagValue(value, &options->min_cluster, size_t{1})) {
        std::fprintf(stderr, "bad --min-cluster: %s\n", value.c_str());
        return false;
      }
    } else if (arg == "--no-cluster") {
      options->cluster = false;
    } else if (arg == "--topic-only") {
      options->topic_only = true;
    } else if (arg == "--verbose") {
      options->verbose = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->kb_path.empty() && !options->pages_dir.empty() &&
         !options->out_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.verbose) SetLogLevel(LogLevel::kInfo);
  obs::TraceTree trace;
  const bool tracing = !options.trace_json_path.empty();
  // The run's batch counters, rendered from its PipelineResult; empty in
  // apply-only (--model) mode, which runs no pipeline.
  obs::MetricsRegistry metrics;

  Result<KnowledgeBase> kb = LoadKbFromFile(options.kb_path);
  if (!kb.ok()) {
    std::fprintf(stderr, "failed to load KB: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "KB: %lld entities, %lld triples\n",
               static_cast<long long>(kb->num_entities()),
               static_cast<long long>(kb->num_triples()));

  // Load pages, sorted by filename for deterministic indices.
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.pages_dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "cannot read pages dir: %s\n",
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end());
  std::vector<DomDocument> pages;
  std::vector<std::string> page_names;
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<DomDocument> parsed = ParseHtml(buffer.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", path.c_str(),
                   parsed.status().ToString().c_str());
      continue;
    }
    parsed->set_url(path.filename().string());
    pages.push_back(std::move(parsed).value());
    page_names.push_back(path.filename().string());
  }
  if (pages.empty()) {
    std::fprintf(stderr, "no parseable pages in %s\n",
                 options.pages_dir.c_str());
    return 1;
  }
  std::fprintf(stderr, "parsed %zu pages\n", pages.size());

  std::vector<Extraction> extractions;
  size_t annotated_pages = 0;
  if (!options.model_path.empty()) {
    // Apply-only mode: reuse a previously trained model.
    Result<TrainedModel> model =
        LoadModelFromFile(options.model_path, kb->ontology());
    if (!model.ok()) {
      std::fprintf(stderr, "failed to load model: %s\n",
                   model.status().ToString().c_str());
      return 1;
    }
    FeatureExtractor featurizer = MakeFeaturizer(*model);
    std::vector<const DomDocument*> page_ptrs;
    std::vector<PageIndex> indices;
    for (size_t i = 0; i < pages.size(); ++i) {
      page_ptrs.push_back(&pages[i]);
      indices.push_back(static_cast<PageIndex>(i));
    }
    ExtractionConfig extraction_config;
    extraction_config.confidence_threshold = options.threshold;
    extractions = ExtractFromPages(page_ptrs, indices, &model.value(),
                                   featurizer, extraction_config);
  } else {
    PipelineConfig config;
    config.cluster_pages = options.cluster;
    config.min_cluster_size = options.min_cluster;
    config.extraction.confidence_threshold = options.threshold;
    config.annotator.use_relation_filtering = !options.topic_only;
    if (tracing) config.trace = &trace;
    Result<PipelineResult> result = RunPipeline(pages, *kb, config);
    if (!result.ok()) {
      std::fprintf(stderr, "pipeline failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (tracing) AddPipelineCounters(*result, &metrics);
    extractions = std::move(result->extractions);
    annotated_pages = result->annotated_pages.size();
    if (!options.save_model_path.empty()) {
      if (result->models.empty()) {
        std::fprintf(stderr, "no model was trained; nothing to save\n");
      } else {
        Status saved = SaveModelToFile(result->models.front().model,
                                       kb->ontology(),
                                       options.save_model_path);
        if (!saved.ok()) {
          std::fprintf(stderr, "failed to save model: %s\n",
                       saved.ToString().c_str());
          return 1;
        }
        std::fprintf(stderr, "saved model (cluster %d) to %s\n",
                     result->models.front().cluster,
                     options.save_model_path.c_str());
      }
    }
  }

  std::ofstream out(options.out_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write %s\n", options.out_path.c_str());
    return 1;
  }
  int64_t written = 0;
  for (const Extraction& extraction : extractions) {
    if (extraction.predicate == kNamePredicate) continue;
    out << extraction.subject << '\t'
        << kb->ontology().predicate(extraction.predicate).name << '\t'
        << extraction.object << '\t' << extraction.confidence << '\t'
        << page_names[static_cast<size_t>(extraction.page)] << '\n';
    ++written;
  }
  std::fprintf(stderr,
               "annotated %zu pages, wrote %lld extractions to %s\n",
               annotated_pages, static_cast<long long>(written),
               options.out_path.c_str());

  if (tracing) {
    std::ofstream trace_out(options.trace_json_path);
    if (!trace_out.is_open()) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.trace_json_path.c_str());
      return 1;
    }
    trace_out << "{\"trace\":" << trace.ToJson() << ",\"metrics\":"
              << metrics.ToJson() << "}\n";
    std::fprintf(stderr, "wrote trace to %s\n",
                 options.trace_json_path.c_str());
  }
  return 0;
}
