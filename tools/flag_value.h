#ifndef CERES_TOOLS_FLAG_VALUE_H_
#define CERES_TOOLS_FLAG_VALUE_H_

#include <charconv>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ceres::tools {

/// Parses all of `text` as a number in [lo, hi] and stores it in `*out`;
/// the bounds default to the whole range of T.
/// Unlike strtol/atoi/strtod, which stop quietly at the first bad byte,
/// this rejects trailing bytes ("4x"), non-numbers ("abc" is not 0), an
/// empty string, values T cannot hold (a port of "70000", "-1" for an
/// unsigned count), NaN, and anything outside [lo, hi]. On rejection
/// `*out` is left unchanged.
template <typename T>
bool ParseFlagValue(
    std::string_view text, T* out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace ceres::tools

#endif  // CERES_TOOLS_FLAG_VALUE_H_
