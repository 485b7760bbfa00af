#include "synth/corpora.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "synth/kb_builder.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ceres::synth {

namespace {

int PagesPerSite(double scale, int base = 120) {
  return std::max(12, static_cast<int>(std::lround(base * scale)));
}

// Slice of `roster` starting at fraction `start_frac`, wrapping around.
std::vector<EntityId> SliceTopics(const std::vector<EntityId>& roster,
                                  double start_frac, int count) {
  std::vector<EntityId> out;
  if (roster.empty()) return out;
  size_t start = static_cast<size_t>(start_frac *
                                     static_cast<double>(roster.size()));
  for (int i = 0; i < count; ++i) {
    out.push_back(roster[(start + static_cast<size_t>(i)) % roster.size()]);
  }
  return out;
}

PredicateSection Row(const std::string& predicate, const std::string& label,
                     double missing = 0.03) {
  return PredicateSection{predicate, label, SectionLayout::kRow, missing, 30};
}
PredicateSection List(const std::string& predicate, const std::string& label,
                      int max_values = 30, double missing = 0.03) {
  return PredicateSection{predicate, label, SectionLayout::kList, missing,
                          max_values};
}
PredicateSection Table(const std::string& predicate, const std::string& label,
                       int max_values = 30, double missing = 0.03) {
  return PredicateSection{predicate, label, SectionLayout::kTable, missing,
                          max_values};
}

// ---------------------------------------------------------------------------
// SWDE verticals
// ---------------------------------------------------------------------------

TemplateSpec SwdeMovieTemplate(int site) {
  TemplateSpec tmpl;
  tmpl.css_prefix = StrCat("mv", site);
  tmpl.topic_type = "film";
  tmpl.title_year_suffix = site % 3 == 0;
  tmpl.page_noise_prob = 0.08;
  tmpl.sections.push_back(site % 2 == 0
                              ? Row(pred::kFilmDirectedBy, "director")
                              : Table(pred::kFilmDirectedBy, "director", 4));
  tmpl.sections.push_back(site % 2 == 1
                              ? List(pred::kFilmHasGenre, "genre", 6)
                              : Row(pred::kFilmHasGenre, "genre"));
  tmpl.sections.push_back(Row(pred::kFilmMpaaRating, "type"));
  if (site % 2 == 0) {
    tmpl.sections.push_back(Row(pred::kFilmReleaseDate, "release_date"));
  }
  // Every real movie detail page lists its cast (it is simply not among
  // the evaluated SWDE attributes).
  tmpl.sections.push_back(site % 3 == 0
                              ? Table(pred::kFilmHasCastMember, "cast", 12)
                              : List(pred::kFilmHasCastMember, "cast", 12));
  if (site == 2 || site == 5 || site == 8) tmpl.num_recommendations = 3;
  return tmpl;
}

TemplateSpec SwdeBookTemplate(int site) {
  TemplateSpec tmpl;
  tmpl.css_prefix = StrCat("bk", site);
  tmpl.topic_type = "book";
  tmpl.page_noise_prob = 0.08;
  tmpl.sections.push_back(site % 2 == 0
                              ? Row(pred::kBookAuthor, "author")
                              : List(pred::kBookAuthor, "author", 3));
  tmpl.sections.push_back(Row(pred::kBookPublisher, "publisher"));
  tmpl.sections.push_back(Row(pred::kBookPubDate, "publication_date"));
  tmpl.sections.push_back(Row(pred::kBookIsbn, "isbn", site % 4 == 1 ? 0.15
                                                                     : 0.03));
  return tmpl;
}

TemplateSpec SwdeNbaTemplate(int site) {
  TemplateSpec tmpl;
  tmpl.css_prefix = StrCat("nba", site);
  tmpl.topic_type = "player";
  tmpl.page_noise_prob = 0.06;
  if (site % 2 == 0) {
    tmpl.sections.push_back(Row(pred::kPlayerTeam, "team"));
    tmpl.sections.push_back(Row(pred::kPlayerHeight, "height"));
    tmpl.sections.push_back(Row(pred::kPlayerWeight, "weight"));
  } else {
    tmpl.sections.push_back(Table(pred::kPlayerTeam, "team", 1));
    tmpl.sections.push_back(Table(pred::kPlayerHeight, "height", 1));
    tmpl.sections.push_back(Table(pred::kPlayerWeight, "weight", 1));
  }
  return tmpl;
}

TemplateSpec SwdeUniversityTemplate(int site) {
  TemplateSpec tmpl;
  tmpl.css_prefix = StrCat("uni", site);
  tmpl.topic_type = "university";
  tmpl.page_noise_prob = 0.06;
  tmpl.sections.push_back(Row(pred::kUniversityType, "type"));
  tmpl.sections.push_back(Row(pred::kUniversityPhone, "phone"));
  tmpl.sections.push_back(Row(pred::kUniversityWebsite, "website"));
  // The §5.3 failure site: both Type values in a search box on every page.
  if (site == 4) tmpl.search_box_values = true;
  return tmpl;
}

}  // namespace

std::string SwdeVerticalName(SwdeVertical vertical) {
  switch (vertical) {
    case SwdeVertical::kMovie:
      return "Movie";
    case SwdeVertical::kBook:
      return "Book";
    case SwdeVertical::kNbaPlayer:
      return "NBA Player";
    case SwdeVertical::kUniversity:
      return "University";
  }
  return "?";
}

Corpus MakeSwdeCorpus(SwdeVertical vertical, double scale, uint64_t seed) {
  const int pages = PagesPerSite(scale);
  switch (vertical) {
    case SwdeVertical::kMovie: {
      MovieWorldConfig wc;
      wc.seed = seed;
      wc.scale = std::max(0.3, scale);
      World world = BuildMovieWorld(wc);
      SeedKbConfig kb_config;
      kb_config.seed = seed + 1;
      kb_config.default_coverage = 0.85;
      // The paper's KB lacks MPAA-Rating seed data entirely (Table 3 note).
      kb_config.coverage[pred::kFilmMpaaRating] = 0.0;
      KnowledgeBase seed_kb = BuildSeedKb(world, kb_config);
      Corpus corpus(std::move(world), std::move(seed_kb));
      Result<TypeId> film = corpus.world.kb.ontology().TypeByName("film");
      const auto& films = corpus.world.OfType(*film);
      const int site_pages = std::min<int>(pages,
                                           static_cast<int>(films.size()));
      for (int s = 0; s < 10; ++s) {
        SiteSpec spec;
        spec.name = StrCat("movies", s, ".example.com");
        spec.seed = seed + 10 + static_cast<uint64_t>(s);
        spec.tmpl = SwdeMovieTemplate(s);
        spec.topics = SliceTopics(films, 0.07 * s, site_pages);
        corpus.sites.push_back(SyntheticSite{
            spec.name, "SWDE movie site", GenerateSite(corpus.world, spec)});
      }
      corpus.eval_predicates = {pred::kFilmDirectedBy, pred::kFilmHasGenre,
                                pred::kFilmMpaaRating};
      return corpus;
    }
    case SwdeVertical::kBook: {
      BookWorldConfig wc;
      wc.seed = seed;
      wc.scale = std::max(0.3, scale);
      World world = BuildBookWorld(wc);
      Result<TypeId> book = world.kb.ontology().TypeByName("book");
      const auto& books = world.OfType(*book);
      const int site_pages =
          std::min<int>(pages, static_cast<int>(books.size()));
      // Per-site roster offsets chosen to spread KB overlap from total
      // through a handful of pages down to zero (Figure 4).
      const double offsets[10] = {0.0,  0.05, 0.10, 0.15, 0.18,
                                  0.19, 0.35, 0.55, 0.85, 0.96};
      std::vector<SiteSpec> specs;
      for (int s = 0; s < 10; ++s) {
        SiteSpec spec;
        spec.name = StrCat("books", s, ".example.com");
        spec.seed = seed + 10 + static_cast<uint64_t>(s);
        spec.tmpl = SwdeBookTemplate(s);
        spec.topics = SliceTopics(books, offsets[s], site_pages);
        specs.push_back(std::move(spec));
      }
      std::vector<GeneratedPage> first_site =
          GenerateSite(world, specs[0]);
      KnowledgeBase seed_kb = BuildSeedKbFromPages(world, first_site);
      Corpus corpus(std::move(world), std::move(seed_kb));
      corpus.sites.push_back(SyntheticSite{specs[0].name, "SWDE book site",
                                           std::move(first_site)});
      for (int s = 1; s < 10; ++s) {
        corpus.sites.push_back(
            SyntheticSite{specs[s].name, "SWDE book site",
                          GenerateSite(corpus.world, specs[s])});
      }
      corpus.eval_predicates = {pred::kBookAuthor, pred::kBookPublisher,
                                pred::kBookPubDate, pred::kBookIsbn};
      return corpus;
    }
    case SwdeVertical::kNbaPlayer: {
      NbaWorldConfig wc;
      wc.seed = seed;
      wc.num_players = pages;  // Every site covers the whole league.
      wc.scale = 1.0;
      World world = BuildNbaWorld(wc);
      Result<TypeId> player = world.kb.ontology().TypeByName("player");
      const auto& players = world.OfType(*player);
      std::vector<SiteSpec> specs;
      for (int s = 0; s < 10; ++s) {
        SiteSpec spec;
        spec.name = StrCat("nba", s, ".example.com");
        spec.seed = seed + 10 + static_cast<uint64_t>(s);
        spec.tmpl = SwdeNbaTemplate(s);
        spec.topics = SliceTopics(players, 0.0,
                                  static_cast<int>(players.size()));
        specs.push_back(std::move(spec));
      }
      std::vector<GeneratedPage> first_site = GenerateSite(world, specs[0]);
      KnowledgeBase seed_kb = BuildSeedKbFromPages(world, first_site);
      Corpus corpus(std::move(world), std::move(seed_kb));
      corpus.sites.push_back(SyntheticSite{specs[0].name, "SWDE NBA site",
                                           std::move(first_site)});
      for (int s = 1; s < 10; ++s) {
        corpus.sites.push_back(
            SyntheticSite{specs[s].name, "SWDE NBA site",
                          GenerateSite(corpus.world, specs[s])});
      }
      corpus.eval_predicates = {pred::kPlayerTeam, pred::kPlayerHeight,
                                pred::kPlayerWeight};
      return corpus;
    }
    case SwdeVertical::kUniversity: {
      UniversityWorldConfig wc;
      wc.seed = seed;
      wc.num_universities = std::max(40, pages + pages / 3);
      wc.scale = 1.0;
      World world = BuildUniversityWorld(wc);
      Result<TypeId> uni = world.kb.ontology().TypeByName("university");
      const auto& unis = world.OfType(*uni);
      const int site_pages =
          std::min<int>(pages, static_cast<int>(unis.size()));
      std::vector<SiteSpec> specs;
      for (int s = 0; s < 10; ++s) {
        SiteSpec spec;
        spec.name = StrCat("colleges", s, ".example.com");
        spec.seed = seed + 10 + static_cast<uint64_t>(s);
        spec.tmpl = SwdeUniversityTemplate(s);
        spec.topics = SliceTopics(unis, 0.02 * s, site_pages);
        specs.push_back(std::move(spec));
      }
      std::vector<GeneratedPage> first_site = GenerateSite(world, specs[0]);
      KnowledgeBase seed_kb = BuildSeedKbFromPages(world, first_site);
      Corpus corpus(std::move(world), std::move(seed_kb));
      corpus.sites.push_back(SyntheticSite{specs[0].name,
                                           "SWDE university site",
                                           std::move(first_site)});
      for (int s = 1; s < 10; ++s) {
        corpus.sites.push_back(
            SyntheticSite{specs[s].name, "SWDE university site",
                          GenerateSite(corpus.world, specs[s])});
      }
      corpus.eval_predicates = {pred::kUniversityType, pred::kUniversityPhone,
                                pred::kUniversityWebsite};
      return corpus;
    }
  }
  CERES_CHECK_MSG(false, "unreachable vertical");
  std::abort();
}

// ---------------------------------------------------------------------------
// IMDb-like corpus (§5.1.2)
// ---------------------------------------------------------------------------

namespace {

TemplateSpec ImdbFilmTemplate() {
  TemplateSpec tmpl;
  tmpl.css_prefix = "imf";
  tmpl.topic_type = "film";
  tmpl.title_year_suffix = true;
  tmpl.page_noise_prob = 0.15;
  tmpl.num_recommendations = 4;
  tmpl.sections.push_back(Row(pred::kFilmDirectedBy, "director"));
  tmpl.sections.push_back(Row(pred::kFilmWrittenBy, "writer"));
  tmpl.sections.push_back(Table(pred::kFilmHasCastMember, "cast", 25));
  tmpl.sections.push_back(List(pred::kFilmHasGenre, "genre", 6));
  tmpl.sections.push_back(Row(pred::kFilmReleaseDate, "release_date"));
  tmpl.sections.push_back(Row(pred::kFilmReleaseYear, "year"));
  return tmpl;
}

TemplateSpec ImdbPersonTemplate() {
  TemplateSpec tmpl;
  tmpl.css_prefix = "imp";
  tmpl.topic_type = "person";
  tmpl.page_noise_prob = 0.15;
  tmpl.num_recommendations = 3;
  tmpl.known_for = true;
  tmpl.on_video_list = true;
  tmpl.projects_in_development = true;
  tmpl.sections.push_back(Row(pred::kPersonAlias, "alias"));
  tmpl.sections.push_back(Row(pred::kPersonBirthDate, "born"));
  tmpl.sections.push_back(Row(pred::kPersonBirthPlace, "birthplace"));
  tmpl.sections.push_back(List(pred::kPersonActedIn, "cast", 25));
  tmpl.sections.push_back(List(pred::kPersonDirectorOf, "director", 12));
  tmpl.sections.push_back(List(pred::kPersonWriterOf, "writer", 12));
  tmpl.sections.push_back(
      List(pred::kPersonProducerOf, "producer", 10, /*missing=*/0.45));
  tmpl.sections.push_back(List(pred::kPersonMusicFor, "music", 8));
  return tmpl;
}

TemplateSpec ImdbEpisodeTemplate() {
  TemplateSpec tmpl;
  tmpl.css_prefix = "ime";
  tmpl.topic_type = "tv_episode";
  tmpl.page_noise_prob = 0.1;
  tmpl.sections.push_back(Row(pred::kEpisodeSeries, "series"));
  tmpl.sections.push_back(Row(pred::kEpisodeSeason, "season"));
  tmpl.sections.push_back(Row(pred::kEpisodeNumber, "episode"));
  return tmpl;
}

}  // namespace

Corpus MakeImdbCorpus(double scale, uint64_t seed) {
  MovieWorldConfig wc;
  wc.seed = seed;
  wc.scale = std::max(0.3, scale);
  World world = BuildMovieWorld(wc);
  SeedKbConfig kb_config;
  kb_config.seed = seed + 1;
  // Footnote 10 coverage profile: cast links sparse, genres rich, and the
  // whole KB biased toward popular entities.
  kb_config.popularity_bias = true;
  kb_config.default_coverage = 0.9;
  kb_config.coverage[pred::kFilmHasCastMember] = 0.35;
  kb_config.coverage[pred::kPersonActedIn] = 0.35;
  kb_config.coverage[pred::kPersonProducerOf] = 0.3;
  kb_config.coverage[pred::kFilmProducedBy] = 0.3;
  kb_config.coverage[pred::kPersonMusicFor] = 0.4;
  kb_config.coverage[pred::kFilmMusicBy] = 0.4;
  kb_config.coverage[pred::kFilmDirectedBy] = 0.8;
  kb_config.coverage[pred::kPersonDirectorOf] = 0.8;
  kb_config.coverage[pred::kFilmHasGenre] = 0.8;
  kb_config.coverage[pred::kFilmMpaaRating] = 0.0;
  KnowledgeBase seed_kb = BuildSeedKb(world, kb_config);
  Corpus corpus(std::move(world), std::move(seed_kb));

  Result<TypeId> film = corpus.world.kb.ontology().TypeByName("film");
  Result<TypeId> person = corpus.world.kb.ontology().TypeByName("person");
  Result<TypeId> episode = corpus.world.kb.ontology().TypeByName("tv_episode");

  const int film_pages = PagesPerSite(scale, 260);
  const int person_pages = PagesPerSite(scale, 120);
  const int episode_pages = PagesPerSite(scale, 60);

  SyntheticSite site;
  site.name = "imdb.example.com";
  site.focus = "Complex movie/person/TV site";

  SiteSpec film_spec;
  film_spec.name = site.name;
  film_spec.seed = seed + 10;
  film_spec.tmpl = ImdbFilmTemplate();
  film_spec.topics = SliceTopics(corpus.world.OfType(*film), 0.0, film_pages);
  std::vector<GeneratedPage> pages = GenerateSite(corpus.world, film_spec);

  SiteSpec person_spec;
  person_spec.name = site.name;
  person_spec.seed = seed + 11;
  person_spec.tmpl = ImdbPersonTemplate();
  person_spec.topics =
      SliceTopics(corpus.world.OfType(*person), 0.0, person_pages);
  std::vector<GeneratedPage> person_pages_vec =
      GenerateSite(corpus.world, person_spec);
  pages.insert(pages.end(),
               std::make_move_iterator(person_pages_vec.begin()),
               std::make_move_iterator(person_pages_vec.end()));

  SiteSpec episode_spec;
  episode_spec.name = site.name;
  episode_spec.seed = seed + 12;
  episode_spec.tmpl = ImdbEpisodeTemplate();
  episode_spec.topics =
      SliceTopics(corpus.world.OfType(*episode), 0.0, episode_pages);
  std::vector<GeneratedPage> episode_pages_vec =
      GenerateSite(corpus.world, episode_spec);
  pages.insert(pages.end(),
               std::make_move_iterator(episode_pages_vec.begin()),
               std::make_move_iterator(episode_pages_vec.end()));

  site.pages = std::move(pages);
  corpus.sites.push_back(std::move(site));
  for (const PredicateDecl& predicate :
       corpus.world.kb.ontology().predicates()) {
    corpus.eval_predicates.push_back(predicate.name);
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Long-tail corpus (§5.1.3, Table 8)
// ---------------------------------------------------------------------------

namespace {

struct LongTailSiteCfg {
  const char* name;
  const char* focus;
  Locale locale;
  int base_pages;        // Scaled page count at scale 1.
  double roster_start;   // Popularity band of the topic slice.
  // Quirks.
  bool person_pages = false;      // Person-topic site.
  bool merged_filmography = false;
  bool all_genres_nav = false;
  double shuffle = 0.0;
  bool daily_charts = false;
  bool episodes_mixed = false;    // Some topics are TV episodes.
  int non_detail = 0;             // Non-detail page count at scale 1.
  bool music_focus = false;
  int recommendations = 0;
};

// 33 sites mirroring Table 8's spread of focus, language, size, overlap,
// and failure modes.
const LongTailSiteCfg kLongTailSites[] = {
    {"themoviedb.org", "General film information", Locale::kEnglish, 140,
     0.0, false, false, false, 0.0, false, false, 0, false, 3},
    {"blaxploitation.com", "Blaxploitation films", Locale::kEnglish, 20,
     0.1},
    {"danksefilm.com", "Danish films", Locale::kDanish, 36, 0.15},
    {"archiviodelcinemaitaliano.it", "Italian films", Locale::kItalian, 28,
     0.2},
    {"filmitalia.org", "Italian films", Locale::kItalian, 32, 0.18},
    {"kmdb.or.kr", "Korean films", Locale::kEnglish, 18, 0.82},
    {"britflicks.com", "British films", Locale::kEnglish, 30, 0.25},
    {"rottentomatoes.com", "Film reviews", Locale::kEnglish, 160, 0.0,
     false, false, false, 0.0, false, false, 24, false, 4},
    {"moviecrow.com", "Indian films", Locale::kEnglish, 18, 0.3},
    {"nfb.ca", "Canadian films", Locale::kEnglish, 90, 0.22},
    {"kinobox.cz", "Czech films", Locale::kCzech, 90, 0.2},
    {"samdb.co.za", "South African films", Locale::kEnglish, 14, 0.75,
     false, false, false, 0.0, false, true},
    {"dianying.com", "Chinese films", Locale::kEnglish, 60, 0.35, false,
     false, false, 0.0, false, true},
    {"giantscreencinema.com", "IMAX films", Locale::kEnglish, 16, 0.4},
    {"myanimelist.net", "Animated films", Locale::kEnglish, 40, 0.45,
     false, false, false, 0.5, false, true},
    {"hkmdb.com", "Hong Kong films", Locale::kEnglish, 40, 0.5, false,
     false, false, 0.55},
    {"bollywoodmdb.com", "Bollywood films", Locale::kEnglish, 22, 0.55,
     false, false, false, 0.55},
    {"soundtrackcollector.com", "Movie soundtracks", Locale::kEnglish, 30,
     0.3, false, false, false, 0.55, false, false, 0, true},
    {"spicyonion.com", "Indian films", Locale::kEnglish, 32, 0.4, true,
     true},
    {"shortfilmcentral.com", "Short films", Locale::kEnglish, 110, 0.6,
     false, false, false, 0.5},
    {"filmindonesia.or.id", "Indonesian films", Locale::kIndonesian, 24,
     0.5, true, true},
    {"the-numbers.com", "Financial performance", Locale::kEnglish, 150,
     0.05, false, false, false, 0.0, true, false, 10},
    {"sodasandpopcorn.com", "Nigerian films", Locale::kEnglish, 18, 0.7,
     false, false, false, 0.6, false, false, 6},
    {"christianfilmdatabase.com", "Christian films", Locale::kEnglish, 22,
     0.45, false, false, true},
    {"jfdb.jp", "Japanese films", Locale::kEnglish, 16, 0.72, false, false,
     false, 0.55},
    {"kvikmyndavefurinn.is", "Icelandic films", Locale::kIcelandic, 14,
     0.7, false, false, false, 0.55},
    {"laborfilms.com", "Labor movement films", Locale::kEnglish, 14, 0.6,
     false, false, true, 0.55},
    {"africa-archive.com", "African films", Locale::kEnglish, 16, 0.8,
     false, false, false, 0.5},
    {"colonialfilm.org.uk", "Colonial-era films", Locale::kEnglish, 18,
     0.85, false, false, false, 0.7, false, true},
    {"sfd.sfu.sk", "Slovak films", Locale::kSlovak, 16, 0.87, false, false,
     false, 0.7},
    {"bcdb.com", "Animated films", Locale::kEnglish, 12, 0.96},
    {"bmxmdb.com", "BMX films", Locale::kEnglish, 12, 0.975},
    {"boxofficemojo.com", "Financial performance", Locale::kEnglish, 0,
     0.0, false, false, false, 0.0, true, false, 150},
};

TemplateSpec LongTailTemplate(const LongTailSiteCfg& cfg, int index) {
  TemplateSpec tmpl;
  tmpl.locale = cfg.locale;
  tmpl.css_prefix = StrCat("lt", index);
  tmpl.section_shuffle_prob = cfg.shuffle;
  // Heavily shuffled templates come with weak labels: with neither stable
  // structure nor distinctive text anchors, the learner has nothing to
  // hold on to (the paper's 23% template-variety error class).
  tmpl.weak_labels = cfg.shuffle >= 0.5;
  tmpl.page_noise_prob = 0.12;
  tmpl.num_recommendations = cfg.recommendations;
  tmpl.all_genres_nav = cfg.all_genres_nav;
  tmpl.daily_charts = cfg.daily_charts;
  if (cfg.person_pages) {
    tmpl.topic_type = "person";
    tmpl.merged_filmography = cfg.merged_filmography;
    tmpl.sections.push_back(Row(pred::kPersonBirthDate, "born", 0.2));
    tmpl.sections.push_back(Row(pred::kPersonBirthPlace, "birthplace", 0.2));
    tmpl.sections.push_back(List(pred::kPersonActedIn, "cast", 20));
    tmpl.sections.push_back(List(pred::kPersonDirectorOf, "director", 10));
    tmpl.sections.push_back(List(pred::kPersonWriterOf, "writer", 10));
    return tmpl;
  }
  tmpl.topic_type = "film";
  tmpl.title_year_suffix = index % 4 == 0;
  if (cfg.music_focus) {
    tmpl.sections.push_back(Row(pred::kFilmMusicBy, "music"));
    tmpl.sections.push_back(Row(pred::kFilmReleaseYear, "year"));
    tmpl.sections.push_back(Row(pred::kFilmDirectedBy, "director", 0.2));
    return tmpl;
  }
  tmpl.sections.push_back(index % 2 == 0
                              ? Row(pred::kFilmDirectedBy, "director")
                              : Table(pred::kFilmDirectedBy, "director", 3));
  // Under weak labels the writer row is frequently missing, tilting the
  // class prior: the indistinguishable director/writer rows then resolve
  // confidently — and wrongly — toward director (the paper's 23%
  // template-variety error class).
  tmpl.sections.push_back(
      Row(pred::kFilmWrittenBy, "writer", tmpl.weak_labels ? 0.5 : 0.15));
  tmpl.sections.push_back(index % 3 == 0
                              ? Table(pred::kFilmHasCastMember, "cast", 18)
                              : List(pred::kFilmHasCastMember, "cast", 18));
  if (!cfg.all_genres_nav) {
    tmpl.sections.push_back(List(pred::kFilmHasGenre, "genre", 5));
  }
  if (!cfg.daily_charts) {
    // Chart sites render the release date inside the chart table instead.
    tmpl.sections.push_back(
        Row(pred::kFilmReleaseDate, "release_date",
            tmpl.weak_labels ? 0.45 : 0.1));
  }
  tmpl.sections.push_back(Row(pred::kFilmReleaseYear, "year", 0.1));
  return tmpl;
}

}  // namespace

Corpus MakeLongTailCorpus(double scale, uint64_t seed) {
  MovieWorldConfig wc;
  wc.seed = seed;
  wc.scale = std::max(0.5, 1.5 * scale);
  World world = BuildMovieWorld(wc);
  SeedKbConfig kb_config;
  kb_config.seed = seed + 1;
  kb_config.popularity_bias = true;
  kb_config.default_coverage = 0.55;
  kb_config.coverage[pred::kFilmHasCastMember] = 0.3;
  kb_config.coverage[pred::kPersonActedIn] = 0.3;
  kb_config.coverage[pred::kPersonMusicFor] = 0.2;
  kb_config.coverage[pred::kFilmMusicBy] = 0.2;
  kb_config.coverage[pred::kFilmMpaaRating] = 0.0;
  KnowledgeBase seed_kb = BuildSeedKb(world, kb_config);
  Corpus corpus(std::move(world), std::move(seed_kb));

  const Ontology& ontology = corpus.world.kb.ontology();
  const auto& films = corpus.world.OfType(*ontology.TypeByName("film"));
  const auto& persons = corpus.world.OfType(*ontology.TypeByName("person"));
  const auto& episodes =
      corpus.world.OfType(*ontology.TypeByName("tv_episode"));

  int index = 0;
  for (const LongTailSiteCfg& cfg : kLongTailSites) {
    SiteSpec spec;
    spec.name = cfg.name;
    spec.seed = seed + 50 + static_cast<uint64_t>(index);
    spec.tmpl = LongTailTemplate(cfg, index);
    int pages = cfg.base_pages == 0
                    ? 0
                    : std::max(8, static_cast<int>(std::lround(
                                      cfg.base_pages * scale)));
    const auto& roster = cfg.person_pages ? persons : films;
    spec.topics = SliceTopics(roster, cfg.roster_start, pages);
    if (cfg.episodes_mixed && !episodes.empty()) {
      // Replace a third of the topics with TV episodes rendered through the
      // same film template (the type-confusion failure of §5.5.1).
      std::vector<EntityId> mixed =
          SliceTopics(episodes, cfg.roster_start, pages / 3);
      for (size_t i = 0; i < mixed.size() && i < spec.topics.size(); ++i) {
        spec.topics[i * 3 % spec.topics.size()] = mixed[i];
      }
    }
    spec.num_non_detail_pages = static_cast<int>(
        std::lround(cfg.non_detail * scale));
    corpus.sites.push_back(SyntheticSite{
        cfg.name, cfg.focus, GenerateSite(corpus.world, spec)});
    ++index;
  }
  for (const PredicateDecl& predicate : ontology.predicates()) {
    corpus.eval_predicates.push_back(predicate.name);
  }
  return corpus;
}

double EnvScale() {
  const char* raw = std::getenv("CERES_SCALE");
  if (raw == nullptr || *raw == '\0') return 1.0;
  const char* end = raw + std::strlen(raw);
  double value = 0;
  const auto [stop, error] = std::from_chars(raw, end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value) ||
      value <= 0) {
    std::fprintf(stderr,
                 "CERES_SCALE must be a finite number above 0, got \"%s\"\n",
                 raw);
    std::exit(2);
  }
  return value;
}

}  // namespace ceres::synth
