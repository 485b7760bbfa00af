#include "util/simhash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "serve/page_cache.h"

namespace ceres::serve {
namespace {

/// A film detail page with one templated field value; the surrounding
/// markup dwarfs the field, as on a real crawl.
std::string FilmPage(const std::string& director) {
  std::string html = "<html><head><title>Film Detail</title></head><body>";
  for (int i = 0; i < 40; ++i) {
    html += "<div class=nav>section " + std::to_string(i) + " link</div>";
  }
  html += "<span class=director>Directed by " + director + "</span>";
  html += "<footer>copyright example films corporation</footer></body>";
  return html;
}

CachedExtraction OneTripleResult(const std::string& subject,
                                 const std::string& object) {
  CachedExtraction result;
  Extraction triple;
  triple.subject = subject;
  triple.object = object;
  triple.confidence = 0.9;
  result.triples.push_back(triple);
  return result;
}

TEST(SimhashTest, DeterministicAcrossCalls) {
  const std::string page = FilmPage("Spike Lee");
  EXPECT_EQ(Simhash64(page), Simhash64(page));
}

TEST(SimhashTest, InvariantToCaseAndWhitespaceChurn) {
  // The churn that separates two crawls of the same page — whitespace
  // runs, newlines, letter case — must not move the fingerprint at all.
  const uint64_t original = Simhash64("Directed by Spike Lee (1989)");
  EXPECT_EQ(Simhash64("directed   BY\n\tspike\r\n lee { 1989 }"), original);
}

TEST(SimhashTest, EmptyAndNonAlnumInputMapToZero) {
  EXPECT_EQ(Simhash64(""), 0u);
  EXPECT_EQ(Simhash64("<->(){}//!!\r\n\t "), 0u);
}

TEST(SimhashTest, OneChangedFieldStaysNearerThanAnUnrelatedPage) {
  const uint64_t base = Simhash64(FilmPage("Spike Lee"));
  const uint64_t variant = Simhash64(FilmPage("Ava DuVernay"));
  const uint64_t unrelated = Simhash64(
      "completely different text about distributed systems consensus "
      "protocols leader election log replication snapshots quorums "
      "heartbeats elections terms voting commit indexes state machines");
  const int near = HammingDistance(base, variant);
  const int far = HammingDistance(base, unrelated);
  EXPECT_LT(near, far);
  // Unrelated pages land ~32 bits apart; near-twins stay well below that.
  EXPECT_GT(far, 15);
  EXPECT_LT(near, 16);
}

TEST(SimhashTest, WordOrderMovesTheFingerprint) {
  // Shingles are order sensitive: the same bag of words reversed is a
  // different page.
  EXPECT_NE(Simhash64("alpha beta gamma delta epsilon zeta eta"),
            Simhash64("eta zeta epsilon delta gamma beta alpha"));
}

TEST(HammingDistanceTest, CountsDifferingBits) {
  EXPECT_EQ(HammingDistance(0, 0), 0);
  EXPECT_EQ(HammingDistance(0, ~uint64_t{0}), 64);
  EXPECT_EQ(HammingDistance(0b1011, 0b0010), 2);
  EXPECT_EQ(HammingDistance(uint64_t{1} << 63, 0), 1);
}

TEST(NearDupCacheTest, FingerprintIsSimhash64) {
  const std::string page = FilmPage("Spike Lee");
  EXPECT_EQ(NearDupCache::Fingerprint(page), Simhash64(page));
}

TEST(NearDupCacheTest, HitsExactlyUpToTheHammingThreshold) {
  PageCacheConfig config;
  config.hamming_threshold = 3;
  NearDupCache cache(config);
  const uint64_t base = 0xA5A5'5A5A'F00D'BEEFull;
  cache.Insert("films.example", base, OneTripleResult("film", "director"));

  CachedExtraction out;
  EXPECT_TRUE(cache.Lookup("films.example", base, &out));
  ASSERT_EQ(out.triples.size(), 1u);
  EXPECT_EQ(out.triples[0].object, "director");
  // Three flipped bits is a near-duplicate; four is a different page.
  EXPECT_TRUE(cache.Lookup("films.example", base ^ 0b111, &out));
  EXPECT_FALSE(cache.Lookup("films.example", base ^ 0b1111, &out));

  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(NearDupCacheTest, EntriesAreScopedToTheirSite) {
  NearDupCache cache;
  const uint64_t fingerprint = 42;
  cache.Insert("films.example", fingerprint, OneTripleResult("a", "b"));
  CachedExtraction out;
  EXPECT_TRUE(cache.Lookup("films.example", fingerprint, &out));
  // The identical fingerprint under another site must not match: that
  // site's model never produced these extractions.
  EXPECT_FALSE(cache.Lookup("books.example", fingerprint, &out));
}

TEST(NearDupCacheTest, ExactFingerprintInsertRefreshesInPlace) {
  NearDupCache cache;
  const uint64_t fingerprint = 7;
  cache.Insert("films.example", fingerprint, OneTripleResult("film", "old"));
  cache.Insert("films.example", fingerprint, OneTripleResult("film", "new"));
  EXPECT_EQ(cache.stats().entries, 1u);
  CachedExtraction out;
  ASSERT_TRUE(cache.Lookup("films.example", fingerprint, &out));
  ASSERT_EQ(out.triples.size(), 1u);
  // Latest extraction of the exact page wins.
  EXPECT_EQ(out.triples[0].object, "new");
}

TEST(NearDupCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Empty-result entries under one-character sites cost 129 bytes plus
  // the cached diagnostics record each; size the budget to hold exactly
  // two of them.
  PageCacheConfig config;
  config.max_bytes = 2 * (129 + sizeof(ServeDiagnostics)) + 1;
  NearDupCache cache(config);
  CachedExtraction out;
  cache.Insert("a", 1 << 10, {});
  cache.Insert("b", 2 << 10, {});
  // Touch "a" so "b" is the least recently used when the budget trips.
  ASSERT_TRUE(cache.Lookup("a", 1 << 10, &out));
  cache.Insert("c", 3 << 10, {});

  EXPECT_TRUE(cache.Lookup("a", 1 << 10, &out));
  EXPECT_FALSE(cache.Lookup("b", 2 << 10, &out));
  EXPECT_TRUE(cache.Lookup("c", 3 << 10, &out));
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, config.max_bytes);
}

TEST(NearDupCacheTest, StatsBalanceAndBytesReturnToZeroAfterInvalidation) {
  NearDupCache cache;
  // The byte estimate must charge the cached diagnostics record too, not
  // just the triples: it is stored and replayed on hits like everything
  // else in the entry.
  cache.Insert("a.example", 1, {});
  EXPECT_GE(cache.stats().bytes, 128 + sizeof(ServeDiagnostics));

  // An exact-fingerprint refresh counts as insertion + eviction so the
  // stats identity below holds; before the fix it was invisible in the
  // counters entirely.
  cache.Insert("a.example", 1, OneTripleResult("film", "director"));
  cache.Insert("a.example", 2, OneTripleResult("film", "year"));
  cache.Insert("b.example", 3, OneTripleResult("book", "author"));
  EXPECT_EQ(cache.stats().insertions, 4);

  cache.InvalidateSite("a.example");
  cache.InvalidateSite("b.example");
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.insertions, static_cast<int64_t>(stats.entries) +
                                  stats.evictions + stats.invalidations);
}

TEST(NearDupCacheTest, InvalidateSiteDropsExactlyThatSite) {
  NearDupCache cache;
  cache.Insert("films.example", 1, OneTripleResult("f", "x"));
  cache.Insert("films.example", 1 << 20, OneTripleResult("f", "y"));
  cache.Insert("books.example", 2, OneTripleResult("b", "z"));
  cache.InvalidateSite("films.example");

  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example", 1, &out));
  EXPECT_FALSE(cache.Lookup("films.example", 1 << 20, &out));
  EXPECT_TRUE(cache.Lookup("books.example", 2, &out));
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.invalidations, 2);
}

TEST(NearDupCacheTest, InsertFromBeforeAnInvalidationIsDropped) {
  NearDupCache cache;
  CachedExtraction out;
  uint64_t films_miss = 0;
  uint64_t books_miss = 0;
  ASSERT_FALSE(cache.Lookup("films.example", 1, &out, &films_miss));
  ASSERT_FALSE(cache.Lookup("books.example", 2, &out, &books_miss));
  cache.InvalidateSite("films.example");
  // A result computed from a miss before the invalidation is stale. The
  // generation is cache-wide, so that holds for every site's miss.
  cache.Insert("films.example", 1, OneTripleResult("f", "old"), films_miss);
  cache.Insert("books.example", 2, OneTripleResult("b", "old"), books_miss);
  EXPECT_FALSE(cache.Lookup("films.example", 1, &out, &films_miss));
  EXPECT_FALSE(cache.Lookup("books.example", 2, &out));
  // A miss after the invalidation inserts as usual.
  cache.Insert("films.example", 1, OneTripleResult("f", "new"), films_miss);
  ASSERT_TRUE(cache.Lookup("films.example", 1, &out));
  EXPECT_EQ(out.triples[0].object, "new");

  // Clear makes earlier misses stale too.
  ASSERT_FALSE(cache.Lookup("books.example", 2, &out, &books_miss));
  cache.Clear();
  cache.Insert("books.example", 2, OneTripleResult("b", "old"), books_miss);
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.insertions, static_cast<int64_t>(stats.entries) +
                                  stats.evictions + stats.invalidations);
}

TEST(NearDupCacheTest, DisabledCacheNeverStoresOrCounts) {
  PageCacheConfig config;
  config.enabled = false;
  NearDupCache cache(config);
  cache.Insert("films.example", 5, OneTripleResult("a", "b"));
  CachedExtraction out;
  EXPECT_FALSE(cache.Lookup("films.example", 5, &out));
  const PageCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
}

TEST(NearDupCacheTest, WhitespaceChurnedRecrawlHitsViaFingerprint) {
  // End-to-end over the real fingerprint: a re-crawl of the same page
  // with case/whitespace churn normalizes to the identical simhash, so
  // the cached extraction is served without parse or inference.
  NearDupCache cache;
  const std::string first = "<div>Directed By Spike Lee</div>";
  const std::string recrawl = "<DIV>\n  directed   by   SPIKE LEE\n</DIV>";
  cache.Insert("films.example", cache.Fingerprint(first),
               OneTripleResult("film", "spike lee"));
  CachedExtraction out;
  ASSERT_TRUE(
      cache.Lookup("films.example", cache.Fingerprint(recrawl), &out));
  ASSERT_EQ(out.triples.size(), 1u);
  EXPECT_EQ(out.triples[0].object, "spike lee");
}

}  // namespace
}  // namespace ceres::serve
