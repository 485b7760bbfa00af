#include "robustness/fault_injector.h"

#include <gtest/gtest.h>

#include <string>

namespace ceres {
namespace {

std::vector<RawPage> MakeCrawl(size_t n) {
  std::vector<RawPage> crawl;
  for (size_t i = 0; i < n; ++i) {
    crawl.push_back(RawPage{
        "http://example.test/page" + std::to_string(i),
        "<html><body><h1>Page " + std::to_string(i) +
            "</h1><p>Some &amp; content</p></body></html>"});
  }
  return crawl;
}

TEST(FaultInjectorTest, ZeroRatesAreIdentity) {
  std::vector<RawPage> crawl = MakeCrawl(10);
  FaultReport report;
  std::vector<RawPage> out = InjectFaults(crawl, FaultInjectionConfig{},
                                          &report);
  ASSERT_EQ(out.size(), crawl.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].url, crawl[i].url);
    EXPECT_EQ(out[i].html, crawl[i].html);
  }
  EXPECT_TRUE(report.faults.empty());
}

TEST(FaultInjectorTest, SameSeedSameCorruption) {
  std::vector<RawPage> crawl = MakeCrawl(40);
  FaultInjectionConfig config;
  config.seed = 99;
  config.page_fault_rate = 0.5;
  config.drop_rate = 0.1;
  config.duplicate_rate = 0.1;
  FaultReport a_report, b_report;
  std::vector<RawPage> a = InjectFaults(crawl, config, &a_report);
  std::vector<RawPage> b = InjectFaults(crawl, config, &b_report);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].url, b[i].url);
    EXPECT_EQ(a[i].html, b[i].html);
  }
  ASSERT_EQ(a_report.faults.size(), b_report.faults.size());
  for (size_t i = 0; i < a_report.faults.size(); ++i) {
    EXPECT_EQ(a_report.faults[i].source_page, b_report.faults[i].source_page);
    EXPECT_EQ(a_report.faults[i].fault, b_report.faults[i].fault);
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiffer) {
  std::vector<RawPage> crawl = MakeCrawl(40);
  FaultInjectionConfig config;
  config.page_fault_rate = 1.0;
  config.seed = 1;
  std::vector<RawPage> a = InjectFaults(crawl, config, nullptr);
  config.seed = 2;
  std::vector<RawPage> b = InjectFaults(crawl, config, nullptr);
  size_t differing = 0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].html != b[i].html) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInjectorTest, FullFaultRateHitsEveryPage) {
  std::vector<RawPage> crawl = MakeCrawl(25);
  FaultInjectionConfig config;
  config.page_fault_rate = 1.0;
  FaultReport report;
  std::vector<RawPage> out = InjectFaults(crawl, config, &report);
  EXPECT_EQ(out.size(), crawl.size());
  EXPECT_EQ(report.faults.size(), crawl.size());
}

TEST(FaultInjectorTest, DropRemovesAndDuplicateRepeats) {
  std::vector<RawPage> crawl = MakeCrawl(200);
  FaultInjectionConfig config;
  config.drop_rate = 0.2;
  config.duplicate_rate = 0.2;
  FaultReport report;
  std::vector<RawPage> out = InjectFaults(crawl, config, &report);
  const int64_t drops = report.count(FaultType::kDrop);
  const int64_t duplicates = report.count(FaultType::kDuplicate);
  EXPECT_GT(drops, 0);
  EXPECT_GT(duplicates, 0);
  EXPECT_EQ(out.size(),
            crawl.size() - static_cast<size_t>(drops) +
                static_cast<size_t>(duplicates));
  // Duplicated pages appear back to back.
  std::vector<PageIndex> duplicated = report.PagesWith(FaultType::kDuplicate);
  for (size_t i = 1; i < out.size(); ++i) {
    if (out[i].url == out[i - 1].url) {
      // Find its source index by URL suffix match against the report.
      EXPECT_EQ(out[i].html, out[i - 1].html);
    }
  }
  EXPECT_EQ(duplicated.size(), static_cast<size_t>(duplicates));
}

TEST(FaultInjectorTest, WeightsSelectFaultKinds) {
  std::vector<RawPage> crawl = MakeCrawl(50);
  FaultInjectionConfig config;
  config.page_fault_rate = 1.0;
  config.truncate_weight = 0;
  config.garble_weight = 0;
  config.tag_delete_weight = 0;
  config.entity_break_weight = 0;
  config.node_bomb_weight = 1;
  FaultReport report;
  InjectFaults(crawl, config, &report);
  EXPECT_EQ(report.count(FaultType::kNodeBomb),
            static_cast<int64_t>(crawl.size()));
}

TEST(FaultInjectorTest, TruncateShortensGarbleKeepsLength) {
  FaultInjectionConfig config;
  Rng rng(3);
  const std::string html = MakeCrawl(1)[0].html;
  std::string truncated = CorruptHtml(html, FaultType::kTruncate, config,
                                      &rng);
  EXPECT_LT(truncated.size(), html.size());
  EXPECT_EQ(html.substr(0, truncated.size()), truncated);
  std::string garbled = CorruptHtml(html, FaultType::kGarble, config, &rng);
  EXPECT_EQ(garbled.size(), html.size());
  EXPECT_NE(garbled, html);
}

TEST(FaultInjectorTest, ShapeFaultsLeaveHtmlAlone) {
  FaultInjectionConfig config;
  Rng rng(3);
  const std::string html = "<p>unchanged</p>";
  EXPECT_EQ(CorruptHtml(html, FaultType::kNone, config, &rng), html);
  EXPECT_EQ(CorruptHtml(html, FaultType::kDrop, config, &rng), html);
  EXPECT_EQ(CorruptHtml(html, FaultType::kDuplicate, config, &rng), html);
}

TEST(FaultInjectorTest, FaultTypeNamesAreDistinct) {
  EXPECT_STREQ(FaultTypeName(FaultType::kTruncate), "truncate");
  EXPECT_STREQ(FaultTypeName(FaultType::kNodeBomb), "node-bomb");
  EXPECT_STREQ(FaultTypeName(FaultType::kDrop), "drop");
}

}  // namespace
}  // namespace ceres
