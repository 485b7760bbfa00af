#ifndef CERES_TESTS_DIST_DIST_CORPUS_H_
#define CERES_TESTS_DIST_DIST_CORPUS_H_

#include <memory>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "kb/knowledge_base.h"
#include "synth/kb_builder.h"
#include "synth/site_generator.h"
#include "synth/world.h"

namespace ceres::dist_testing {

/// A small multi-site corpus for the dist suites: one shared movie world,
/// `num_sites` sites with distinct templates, `pages_per_site` detail
/// pages each. The defaults pipeline a site in well under a second.
struct DistTestCorpus {
  std::unique_ptr<synth::World> world;
  std::unique_ptr<KnowledgeBase> seed_kb;
  std::vector<dist::ShardSite> sites;
};

inline DistTestCorpus MakeDistTestCorpus(int num_sites = 4,
                                         int pages_per_site = 14) {
  DistTestCorpus corpus;
  synth::MovieWorldConfig world_config;
  world_config.scale = 0.2;
  corpus.world =
      std::make_unique<synth::World>(synth::BuildMovieWorld(world_config));
  synth::SeedKbConfig kb_config;
  kb_config.default_coverage = 0.9;
  corpus.seed_kb = std::make_unique<KnowledgeBase>(
      synth::BuildSeedKb(*corpus.world, kb_config));

  const TypeId film = *corpus.world->kb.ontology().TypeByName("film");
  const std::vector<EntityId>& films = corpus.world->OfType(film);
  for (int s = 0; s < num_sites; ++s) {
    synth::SiteSpec spec;
    spec.name = "dist" + std::to_string(s) + ".example";
    spec.seed = 40 + static_cast<uint64_t>(s);
    spec.tmpl.topic_type = "film";
    spec.tmpl.css_prefix = "d" + std::to_string(s);
    spec.tmpl.num_recommendations = 2;
    spec.tmpl.sections = {
        {synth::pred::kFilmDirectedBy, "director", synth::SectionLayout::kRow,
         0.05, 3},
        {synth::pred::kFilmHasCastMember, "cast", synth::SectionLayout::kList,
         0.05, 10},
        {synth::pred::kFilmHasGenre, "genre", synth::SectionLayout::kList,
         0.05, 4},
    };
    // Overlapping topic windows: sites agree on some films (fusion gets
    // cross-site support) but not all.
    const size_t start = static_cast<size_t>(s) * 4;
    for (int p = 0; p < pages_per_site; ++p) {
      spec.topics.push_back(films[(start + static_cast<size_t>(p)) %
                                  films.size()]);
    }
    dist::ShardSite site;
    site.site = spec.name;
    for (const synth::GeneratedPage& page :
         GenerateSite(*corpus.world, spec)) {
      site.pages.push_back(RawPage{page.url, page.html});
    }
    corpus.sites.push_back(std::move(site));
  }
  return corpus;
}

}  // namespace ceres::dist_testing

#endif  // CERES_TESTS_DIST_DIST_CORPUS_H_
