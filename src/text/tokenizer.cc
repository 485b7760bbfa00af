#include "text/tokenizer.h"

#include "text/normalize.h"
#include "util/string_util.h"

namespace ceres {

std::vector<std::string> Tokenize(std::string_view text) {
  std::string norm = NormalizeText(text);
  if (norm.empty()) return {};
  return Split(norm, ' ');
}

}  // namespace ceres
