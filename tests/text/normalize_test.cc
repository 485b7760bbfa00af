#include "text/normalize.h"

#include <gtest/gtest.h>

namespace ceres {
namespace {

TEST(NormalizeTest, LowercasesAscii) {
  EXPECT_EQ(NormalizeText("Spike Lee"), "spike lee");
}

TEST(NormalizeTest, CollapsesWhitespaceAndPunctuation) {
  EXPECT_EQ(NormalizeText("  Do the Right Thing!  "), "do the right thing");
  EXPECT_EQ(NormalizeText("a,b;c"), "a b c");
  EXPECT_EQ(NormalizeText("one -- two"), "one two");
}

TEST(NormalizeTest, FoldsLatinAccents) {
  EXPECT_EQ(NormalizeText("Réžie"), "rezie");
  EXPECT_EQ(NormalizeText("Søren Kierkegaard"), "soren kierkegaard");
  EXPECT_EQ(NormalizeText("Guðrún Ásdóttir"), "gudrun asdottir");
  EXPECT_EQ(NormalizeText("Żółć"), "zolc");
}

TEST(NormalizeTest, KeepsDigits) {
  EXPECT_EQ(NormalizeText("978-1-2345-6"), "978 1 2345 6");
}

TEST(NormalizeTest, EmptyAndPunctuationOnly) {
  EXPECT_EQ(NormalizeText(""), "");
  EXPECT_EQ(NormalizeText("!!!"), "");
  EXPECT_TRUE(IsBlankAfterNormalize("—–…"));
  EXPECT_FALSE(IsBlankAfterNormalize("a"));
}

TEST(NormalizeTest, HandlesMalformedUtf8) {
  std::string bad = "abc";
  bad.push_back(static_cast<char>(0xC3));  // Truncated 2-byte sequence.
  std::string out = NormalizeText(bad);
  EXPECT_EQ(out.substr(0, 3), "abc");
}

TEST(NormalizeTest, MatchingIsCaseAndAccentInsensitive) {
  EXPECT_EQ(NormalizeText("FRANÇOIS Truffaut"),
            NormalizeText("francois truffaut"));
}

TEST(StripTrailingYearTest, ViewVariantAgreesWithCopyingVariant) {
  for (const char* input :
       {"selma 2014", "selma", "2014", "top 100", "war 19999"}) {
    EXPECT_EQ(StripTrailingYearView(input), StripTrailingYear(input))
        << input;
  }
}

TEST(StripTrailingYearTest, Behaviour) {
  EXPECT_EQ(StripTrailingYear("selma 2014"), "selma");
  EXPECT_EQ(StripTrailingYear("selma"), "selma");
  EXPECT_EQ(StripTrailingYear("2014"), "2014");         // Nothing would remain.
  EXPECT_EQ(StripTrailingYear("top 100"), "top 100");    // Not 4 digits.
  EXPECT_EQ(StripTrailingYear("war 19999"), "war 19999");
}

}  // namespace
}  // namespace ceres
