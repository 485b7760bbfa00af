#ifndef CERES_UTIL_SIMHASH_H_
#define CERES_UTIL_SIMHASH_H_

#include <cstdint>
#include <string_view>

namespace ceres {

/// Simhash (Charikar 2002) over normalized token shingles: the
/// near-duplicate fingerprint behind the serving tier's page cache.
///
/// Normalization makes the fingerprint invariant to the noise that
/// separates two crawls of the same detail page — whitespace runs, tag
/// attribute reordering across lines, letter case: the input is reduced
/// to its lowercased alphanumeric token stream before hashing. Each
/// window of 4 consecutive tokens (the classic near-dup shingle: local
/// word order matters, distant reordering does not) is hashed (order
/// sensitive, FNV-1a based, stable across processes like Fnv1a64), and
/// every shingle votes its 64 hash bits up or down; the sign of each
/// tally is the fingerprint bit. Near-identical pages — one field value
/// changed out of hundreds of template tokens — land within a small
/// Hamming distance, while unrelated pages differ in ~32 bits.

/// 64-bit simhash fingerprint of `text`. Empty or all-non-alphanumeric
/// input maps to 0. Deterministic across runs and processes.
uint64_t Simhash64(std::string_view text);

/// Number of differing bits between two fingerprints.
int HammingDistance(uint64_t a, uint64_t b);

}  // namespace ceres

#endif  // CERES_UTIL_SIMHASH_H_
