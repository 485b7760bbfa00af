#ifndef CERES_TEXT_NORMALIZE_H_
#define CERES_TEXT_NORMALIZE_H_

#include <string>
#include <string_view>

namespace ceres {

/// Canonicalizes a text field for entity matching: lower-cases ASCII, folds
/// common Latin accented characters (UTF-8, Latin-1 supplement + Latin
/// Extended-A) to their ASCII base letter, replaces punctuation with spaces,
/// and collapses runs of whitespace to a single space.
///
/// This is the normalized-string matching used wherever the paper calls for
/// the fuzzy string matching of Gulhane et al. [18]: two strings match when
/// their normalizations are equal.
std::string NormalizeText(std::string_view input);

/// NormalizeText into a caller-owned buffer, reusing its capacity. Hot
/// loops (per-DOM-text-node matching, lexicon mining) call this with a
/// scratch string so normalization stops allocating per call. `out` is
/// cleared first; `input` must not alias `*out`.
void NormalizeTextInto(std::string_view input, std::string* out);

/// True if the normalized form is empty (i.e. the field carries no
/// matchable content).
bool IsBlankAfterNormalize(std::string_view input);

/// View of `normalized` with one trailing 4-digit-year token removed:
/// "selma 2014" -> "selma". Returns the input unchanged when there is no
/// trailing year or nothing would remain.
std::string_view StripTrailingYearView(std::string_view normalized);

/// Copying variant of StripTrailingYearView.
std::string StripTrailingYear(std::string_view normalized);

}  // namespace ceres

#endif  // CERES_TEXT_NORMALIZE_H_
