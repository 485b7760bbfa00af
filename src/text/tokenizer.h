#ifndef CERES_TEXT_TOKENIZER_H_
#define CERES_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace ceres {

/// Splits `text` into normalized word tokens (the words of
/// NormalizeText(text)). Used for frequent-string mining in the node-text
/// feature generator (§4.2).
std::vector<std::string> Tokenize(std::string_view text);

}  // namespace ceres

#endif  // CERES_TEXT_TOKENIZER_H_
