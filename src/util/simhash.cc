#include "util/simhash.h"

#include <array>

#include "util/string_util.h"

namespace ceres {

namespace {

/// One mixing round over an accumulated shingle hash. The token hashes are
/// combined order-sensitively (multiply-xor chain), so "director spike lee"
/// and "lee spike director" shingle differently.
constexpr uint64_t MixShingle(uint64_t accumulated, uint64_t token_hash) {
  accumulated ^= token_hash;
  accumulated *= 0x100000001b3ull;  // FNV prime, same constant as Fnv1a64
  accumulated ^= accumulated >> 29;
  return accumulated;
}

constexpr char ToLowerAscii(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

constexpr bool IsAlnumAscii(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

/// Tokens per shingle.
constexpr int kShingleSize = 4;

}  // namespace

uint64_t Simhash64(std::string_view text) {
  // Ring buffer of the last kShingleSize token hashes.
  std::array<uint64_t, kShingleSize> window = {};
  int tokens_seen = 0;

  std::array<int32_t, 64> votes = {};
  bool any_shingle = false;

  auto emit_shingle = [&]() {
    // Combine the window oldest-to-newest.
    uint64_t h = 0xcbf29ce484222325ull;
    const int count = tokens_seen < kShingleSize ? tokens_seen : kShingleSize;
    for (int k = count; k > 0; --k) {
      h = MixShingle(h, window[static_cast<size_t>((tokens_seen - k) %
                                                   kShingleSize)]);
    }
    for (int bit = 0; bit < 64; ++bit) {
      votes[static_cast<size_t>(bit)] += (h >> bit) & 1 ? 1 : -1;
    }
    any_shingle = true;
  };

  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    if (!IsAlnumAscii(text[i])) {
      ++i;
      continue;
    }
    // One normalized token: lowercased alphanumeric run, hashed in place
    // (no allocation on this path — it runs per request in the server).
    uint64_t token_hash = 0xcbf29ce484222325ull;
    while (i < n && IsAlnumAscii(text[i])) {
      token_hash ^= static_cast<uint8_t>(ToLowerAscii(text[i]));
      token_hash *= 0x100000001b3ull;
      ++i;
    }
    window[static_cast<size_t>(tokens_seen % kShingleSize)] = token_hash;
    ++tokens_seen;
    // A full window votes; short documents (fewer tokens than the shingle
    // size) still fingerprint via the final partial-window emit below.
    if (tokens_seen >= kShingleSize) emit_shingle();
  }
  if (!any_shingle && tokens_seen > 0) emit_shingle();
  if (!any_shingle) return 0;

  uint64_t fingerprint = 0;
  for (int bit = 0; bit < 64; ++bit) {
    if (votes[static_cast<size_t>(bit)] > 0) fingerprint |= 1ull << bit;
  }
  return fingerprint;
}

int HammingDistance(uint64_t a, uint64_t b) {
  return __builtin_popcountll(a ^ b);
}

}  // namespace ceres
