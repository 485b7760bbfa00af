#ifndef CERES_SYNTH_CORPORA_H_
#define CERES_SYNTH_CORPORA_H_

#include <string>
#include <vector>

#include "kb/knowledge_base.h"
#include "synth/site_generator.h"
#include "synth/world.h"

namespace ceres::synth {

/// One generated website of a corpus.
struct SyntheticSite {
  std::string name;
  /// Table 8 style focus description.
  std::string focus;
  std::vector<GeneratedPage> pages;
};

/// A full experimental corpus: the ground-truth world, the (incomplete)
/// seed KB handed to the extractors, and the generated sites.
struct Corpus {
  Corpus(World world_in, KnowledgeBase seed)
      : world(std::move(world_in)), seed_kb(std::move(seed)) {}
  Corpus(Corpus&&) = default;

  World world;
  KnowledgeBase seed_kb;
  std::vector<SyntheticSite> sites;
  /// Predicate names evaluated for this corpus (the vertical's SWDE
  /// attributes, or all predicates for IMDb / long-tail).
  std::vector<std::string> eval_predicates;
};

/// The four SWDE verticals used in §5.3 (Table 1).
enum class SwdeVertical { kMovie, kBook, kNbaPlayer, kUniversity };

/// Human-readable vertical name ("Movie", ...).
std::string SwdeVerticalName(SwdeVertical vertical);

/// Builds a 10-site SWDE-style corpus for one vertical. `scale` multiplies
/// world sizes and pages per site (1.0 ≈ 120 pages/site — laptop-scale
/// stand-in for SWDE's 200–2000). Seed-KB protocol follows §5.1.1: the
/// Movie vertical uses a large IMDb-like KB; the other verticals use the
/// ground truth of the first site.
Corpus MakeSwdeCorpus(SwdeVertical vertical, double scale = 1.0,
                      uint64_t seed = 100);

/// Builds the IMDb-style corpus of §5.1.2: one complex site with film,
/// person, and TV-episode detail pages, rich trap sections, and a
/// popularity-biased seed KB (footnote 10 coverage profile).
Corpus MakeImdbCorpus(double scale = 1.0, uint64_t seed = 200);

/// Per-site outcome knobs of the long-tail corpus (used by tests).
struct LongTailSiteInfo {
  std::string name;
  std::string focus;
};

/// Builds the 33-site multi-lingual long-tail movie corpus of §5.1.3
/// (CommonCrawl stand-in), including the documented degenerate sites:
/// chart-only (no detail pages), near-zero KB overlap, merged-role
/// filmographies, all-genres navigation, and template shuffling.
Corpus MakeLongTailCorpus(double scale = 1.0, uint64_t seed = 300);

/// Reads the CERES_SCALE environment variable (default 1.0) used by the
/// benches to size every corpus. A value that is not a finite number above
/// 0 with nothing after it ("abc", "0.2x", "-2", "inf") prints a message
/// and exits the process with status 2.
double EnvScale();

}  // namespace ceres::synth

#endif  // CERES_SYNTH_CORPORA_H_
