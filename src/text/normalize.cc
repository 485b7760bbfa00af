#include "text/normalize.h"

#include <array>
#include <cctype>
#include <cstdint>

namespace ceres {

namespace {

// Maps a Unicode code point in the Latin-1 supplement / Latin Extended-A
// ranges to an ASCII base letter, or 0 when there is no sensible fold.
char FoldLatin(uint32_t cp) {
  if (cp >= 0x00C0 && cp <= 0x00C5) return 'a';  // À-Å
  if (cp == 0x00C6) return 'a';                  // Æ
  if (cp == 0x00C7) return 'c';                  // Ç
  if (cp >= 0x00C8 && cp <= 0x00CB) return 'e';  // È-Ë
  if (cp >= 0x00CC && cp <= 0x00CF) return 'i';  // Ì-Ï
  if (cp == 0x00D0) return 'd';                  // Ð
  if (cp == 0x00D1) return 'n';                  // Ñ
  if (cp >= 0x00D2 && cp <= 0x00D6) return 'o';  // Ò-Ö
  if (cp == 0x00D8) return 'o';                  // Ø
  if (cp >= 0x00D9 && cp <= 0x00DC) return 'u';  // Ù-Ü
  if (cp == 0x00DD) return 'y';                  // Ý
  if (cp == 0x00DE) return 't';                  // Þ
  if (cp == 0x00DF) return 's';                  // ß
  if (cp >= 0x00E0 && cp <= 0x00E5) return 'a';
  if (cp == 0x00E6) return 'a';
  if (cp == 0x00E7) return 'c';
  if (cp >= 0x00E8 && cp <= 0x00EB) return 'e';
  if (cp >= 0x00EC && cp <= 0x00EF) return 'i';
  if (cp == 0x00F0) return 'd';
  if (cp == 0x00F1) return 'n';
  if (cp >= 0x00F2 && cp <= 0x00F6) return 'o';
  if (cp == 0x00F8) return 'o';
  if (cp >= 0x00F9 && cp <= 0x00FC) return 'u';
  if (cp == 0x00FD || cp == 0x00FF) return 'y';
  if (cp == 0x00FE) return 't';
  if (cp >= 0x0100 && cp <= 0x0105) return 'a';  // Ā-ą
  if (cp >= 0x0106 && cp <= 0x010D) return 'c';  // Ć-č
  if (cp >= 0x010E && cp <= 0x0111) return 'd';  // Ď-đ
  if (cp >= 0x0112 && cp <= 0x011B) return 'e';  // Ē-ě
  if (cp >= 0x011C && cp <= 0x0123) return 'g';
  if (cp >= 0x0124 && cp <= 0x0127) return 'h';
  if (cp >= 0x0128 && cp <= 0x0131) return 'i';
  if (cp >= 0x0134 && cp <= 0x0135) return 'j';
  if (cp >= 0x0136 && cp <= 0x0138) return 'k';
  if (cp >= 0x0139 && cp <= 0x0142) return 'l';
  if (cp >= 0x0143 && cp <= 0x014B) return 'n';
  if (cp >= 0x014C && cp <= 0x0153) return 'o';
  if (cp >= 0x0154 && cp <= 0x0159) return 'r';
  if (cp >= 0x015A && cp <= 0x0161) return 's';
  if (cp >= 0x0162 && cp <= 0x0167) return 't';
  if (cp >= 0x0168 && cp <= 0x0173) return 'u';
  if (cp >= 0x0174 && cp <= 0x0175) return 'w';
  if (cp >= 0x0176 && cp <= 0x0178) return 'y';
  if (cp >= 0x0179 && cp <= 0x017E) return 'z';
  return 0;
}

// Decodes one UTF-8 code point starting at input[i]; advances i past it.
// Malformed bytes are consumed one at a time and returned as-is.
uint32_t DecodeUtf8(std::string_view input, size_t* i) {
  unsigned char c0 = static_cast<unsigned char>(input[*i]);
  if (c0 < 0x80) {
    ++*i;
    return c0;
  }
  int extra = 0;
  uint32_t cp = 0;
  if ((c0 & 0xE0) == 0xC0) {
    extra = 1;
    cp = c0 & 0x1F;
  } else if ((c0 & 0xF0) == 0xE0) {
    extra = 2;
    cp = c0 & 0x0F;
  } else if ((c0 & 0xF8) == 0xF0) {
    extra = 3;
    cp = c0 & 0x07;
  } else {
    ++*i;
    return c0;
  }
  if (*i + extra >= input.size()) {
    // Truncated sequence: consume the lead byte only.
    ++*i;
    return c0;
  }
  for (int k = 1; k <= extra; ++k) {
    unsigned char ck = static_cast<unsigned char>(input[*i + k]);
    if ((ck & 0xC0) != 0x80) {
      ++*i;
      return c0;
    }
    cp = (cp << 6) | (ck & 0x3F);
  }
  *i += 1 + extra;
  return cp;
}

}  // namespace

void NormalizeTextInto(std::string_view input, std::string* out_ptr) {
  std::string& out = *out_ptr;
  out.clear();
  out.reserve(input.size());
  bool pending_space = false;
  auto push = [&](char c) {
    if (c == ' ') {
      if (!out.empty()) pending_space = true;
      return;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  };
  size_t i = 0;
  while (i < input.size()) {
    uint32_t cp = DecodeUtf8(input, &i);
    if (cp < 0x80) {
      char c = static_cast<char>(cp);
      if (std::isalnum(static_cast<unsigned char>(c))) {
        push(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
      } else {
        push(' ');
      }
    } else {
      char folded = FoldLatin(cp);
      push(folded != 0 ? folded : ' ');
    }
  }
}

std::string NormalizeText(std::string_view input) {
  std::string out;
  NormalizeTextInto(input, &out);
  return out;
}

bool IsBlankAfterNormalize(std::string_view input) {
  return NormalizeText(input).empty();
}

std::string_view StripTrailingYearView(std::string_view normalized) {
  size_t space = normalized.rfind(' ');
  if (space == std::string_view::npos) return normalized;
  std::string_view last = normalized.substr(space + 1);
  if (last.size() != 4) return normalized;
  for (char c : last) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return normalized;
    }
  }
  return normalized.substr(0, space);
}

std::string StripTrailingYear(std::string_view normalized) {
  return std::string(StripTrailingYearView(normalized));
}

}  // namespace ceres
