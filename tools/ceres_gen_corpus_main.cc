// ceres_gen_corpus — materializes a synthetic corpus to disk so it can be
// inspected, versioned, or fed to ceres_extract for an end-to-end CLI run.
//
// Usage:
//   ceres_gen_corpus --corpus swde-movie|swde-book|swde-nba|swde-university|
//                             imdb|longtail
//                    --out <dir> [--scale 1.0] [--seed N]
//
// Layout written under --out:
//   seed.kb                     the seed knowledge base (kb_io format)
//   <site>/page-00042.html      one file per page
//   <site>/ground_truth.tsv     page \t xpath \t predicate \t object
//
// The ground truth lets downstream scripts score ceres_extract output.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "flag_value.h"
#include "kb/kb_io.h"
#include "synth/corpora.h"
#include "util/string_util.h"

namespace {

using namespace ceres;  // NOLINT(build/namespaces)

Result<synth::Corpus> BuildCorpus(const std::string& name, double scale,
                                  uint64_t seed) {
  if (name == "swde-movie") {
    return synth::MakeSwdeCorpus(synth::SwdeVertical::kMovie, scale, seed);
  }
  if (name == "swde-book") {
    return synth::MakeSwdeCorpus(synth::SwdeVertical::kBook, scale, seed);
  }
  if (name == "swde-nba") {
    return synth::MakeSwdeCorpus(synth::SwdeVertical::kNbaPlayer, scale,
                                 seed);
  }
  if (name == "swde-university") {
    return synth::MakeSwdeCorpus(synth::SwdeVertical::kUniversity, scale,
                                 seed);
  }
  if (name == "imdb") return synth::MakeImdbCorpus(scale, seed);
  if (name == "longtail") return synth::MakeLongTailCorpus(scale, seed);
  return Status::InvalidArgument(StrCat("unknown corpus: ", name));
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: ceres_gen_corpus --corpus <name> --out <dir> "
               "[--scale S] [--seed N]\n"
               "corpora: swde-movie swde-book swde-nba swde-university "
               "imdb longtail\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_name;
  std::string out_dir;
  double scale = 1.0;
  uint64_t seed = 100;
  // Every flag takes a value. An unknown flag, a missing value, and a
  // malformed or out-of-range number print the usage and exit 2.
  bool ok = true;
  for (int i = 1; ok && i < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = i + 1 < argc ? argv[i + 1] : "";
    ok = i + 1 < argc;
    if (arg == "--corpus") {
      corpus_name = value;
    } else if (arg == "--out") {
      out_dir = value;
    } else if (arg == "--scale") {
      // Strictly positive: the smallest normal double is the floor.
      ok = ok && tools::ParseFlagValue(value, &scale,
                                       std::numeric_limits<double>::min());
    } else if (arg == "--seed") {
      ok = ok && tools::ParseFlagValue(value, &seed);
    } else {
      ok = false;
    }
    if (!ok) std::fprintf(stderr, "bad argument: %s %s\n", arg.c_str(),
                          value.c_str());
  }
  if (!ok || corpus_name.empty() || out_dir.empty()) {
    PrintUsage();
    return 2;
  }

  Result<synth::Corpus> corpus = BuildCorpus(corpus_name, scale, seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  Status kb_status =
      SaveKbToFile(corpus->seed_kb, out_dir + "/seed.kb");
  if (!kb_status.ok()) {
    std::fprintf(stderr, "saving KB: %s\n", kb_status.ToString().c_str());
    return 1;
  }

  int64_t total_pages = 0;
  for (const synth::SyntheticSite& site : corpus->sites) {
    std::string site_dir = out_dir + "/" + site.name;
    std::filesystem::create_directories(site_dir, ec);
    std::ofstream truth(site_dir + "/ground_truth.tsv");
    for (size_t p = 0; p < site.pages.size(); ++p) {
      const synth::GeneratedPage& page = site.pages[p];
      char file_name[32];
      std::snprintf(file_name, sizeof(file_name), "page-%05zu.html", p);
      std::ofstream html(site_dir + "/" + file_name);
      html << page.html;
      for (const synth::GroundTruthFact& fact : page.facts) {
        const std::string predicate =
            fact.predicate == kNamePredicate
                ? "NAME"
                : corpus->world.kb.ontology().predicate(fact.predicate).name;
        truth << file_name << '\t' << fact.xpath << '\t' << predicate
              << '\t' << fact.object_text << '\n';
      }
      ++total_pages;
    }
  }
  std::fprintf(stderr, "wrote %zu sites / %lld pages under %s\n",
               corpus->sites.size(), static_cast<long long>(total_pages),
               out_dir.c_str());
  return 0;
}
