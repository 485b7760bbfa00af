#include "text/tokenizer.h"

#include <gtest/gtest.h>

namespace ceres {
namespace {

TEST(TokenizerTest, BasicTokens) {
  EXPECT_EQ(Tokenize("Do the Right Thing"),
            (std::vector<std::string>{"do", "the", "right", "thing"}));
}

TEST(TokenizerTest, PunctuationSeparates) {
  EXPECT_EQ(Tokenize("Director: Spike Lee"),
            (std::vector<std::string>{"director", "spike", "lee"}));
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("!!!").empty());
}

}  // namespace
}  // namespace ceres
