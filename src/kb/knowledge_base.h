#ifndef CERES_KB_KNOWLEDGE_BASE_H_
#define CERES_KB_KNOWLEDGE_BASE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "kb/kb_image.h"
#include "kb/ontology.h"
#include "util/status.h"

namespace ceres {

/// Identifier of an entity within a KnowledgeBase.
using EntityId = int64_t;
inline constexpr EntityId kInvalidEntity = -1;

/// Zero-copy view of an entity's aliases. Dereferencing yields
/// string_views into the KB's storage (the frozen image's string blob, or
/// the build-phase owning strings); views stay valid for the KB's
/// lifetime once frozen, and until the next mutation before that.
class KbAliasRange {
 public:
  KbAliasRange() = default;
  /// Frozen form: `count` refs into the image string blob.
  KbAliasRange(const KbStringRef* refs, size_t count, const char* blob)
      : refs_(refs), count_(count), blob_(blob) {}
  /// Build-phase form: a view over the owning alias vector.
  explicit KbAliasRange(const std::vector<std::string>* build)
      : build_(build), count_(build->size()) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::string_view operator[](size_t i) const {
    if (build_ != nullptr) return (*build_)[i];
    return std::string_view(blob_ + refs_[i].offset,
                            static_cast<size_t>(refs_[i].length));
  }

  class Iterator {
   public:
    Iterator(const KbAliasRange* range, size_t index)
        : range_(range), index_(index) {}
    std::string_view operator*() const { return (*range_)[index_]; }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return index_ != other.index_;
    }

   private:
    const KbAliasRange* range_;
    size_t index_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, count_); }

 private:
  const std::vector<std::string>* build_ = nullptr;
  const KbStringRef* refs_ = nullptr;
  size_t count_ = 0;
  const char* blob_ = nullptr;
};

/// One entity of the seed KB: a typed node with a canonical name and
/// optional aliases. Literal values (dates, numbers) are entities of
/// literal types so that all triple objects have matchable surface strings.
///
/// Entity is a cheap non-owning view (returned by value from
/// KnowledgeBase::entity): `name` and the aliases point into the KB's
/// frozen image (or build storage) rather than owning copies.
struct Entity {
  EntityId id = kInvalidEntity;
  TypeId type = kInvalidType;
  std::string_view name;
  KbAliasRange aliases;
};

/// One (subject, predicate, object) fact (§2.1). Stored verbatim in the
/// frozen image's triples section (fixed 24-byte records).
struct Triple {
  EntityId subject = kInvalidEntity;
  PredicateId predicate = kInvalidPredicate;
  EntityId object = kInvalidEntity;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.subject == b.subject && a.predicate == b.predicate &&
           a.object == b.object;
  }
};
static_assert(sizeof(Triple) == 24);
static_assert(std::is_trivially_copyable_v<Triple>);

/// The seed knowledge base: an entity catalog plus an indexed triple store.
///
/// Build phase: AddEntity / AddAlias / AddTriple in any order, then call
/// Freeze() once. Freeze serializes the whole KB — entities, sorted
/// triples, CSR subject index, per-subject object sets, the normalized
/// name index, and object-string statistics — into one flat image buffer
/// (kb/kb_image.h), and all query methods serve from that image. A frozen
/// KB can be written out with SaveImage and re-opened out-of-core with
/// OpenImage, which mmap's the file read-only in O(1) and serves the same
/// queries from the mapping, byte-identical to the heap-frozen path (they
/// are literally the same bytes). Forked workers mapping one image share
/// its pages copy-on-write.
class KnowledgeBase {
 public:
  explicit KnowledgeBase(Ontology ontology)
      : ontology_(std::move(ontology)) {}
  KnowledgeBase(KnowledgeBase&&) = default;
  KnowledgeBase& operator=(KnowledgeBase&&) = default;
  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  const Ontology& ontology() const { return ontology_; }

  /// Registers an entity and returns its id.
  EntityId AddEntity(TypeId type, std::string_view name);

  /// Adds an alternative surface name for an existing entity.
  void AddAlias(EntityId id, std::string_view alias);

  /// Adds a fact; subject/object must be registered entities. Duplicate
  /// triples are collapsed at Freeze() time.
  void AddTriple(EntityId subject, PredicateId predicate, EntityId object);

  /// Builds all indexes and serializes the frozen state into the image
  /// buffer. Must be called exactly once, after loading.
  void Freeze();
  bool frozen() const { return frozen_; }

  // --- Out-of-core image -----------------------------------------------

  struct OpenOptions {
    /// Verify the payload checksum and every stored ref on open. O(n) in
    /// the image size; leave false for the O(1) serving path (the header
    /// checksum and section table are always verified).
    bool verify_checksum = false;
  };

  /// Opens a KB image file (written by SaveImage / ceres_kb_build) as a
  /// read-only mapping. O(1) in KB size unless verify_checksum. Corrupt,
  /// truncated, or wrong-version files yield a typed kDataLoss status.
  static Result<KnowledgeBase> OpenImage(const std::string& path,
                                         OpenOptions options);
  static Result<KnowledgeBase> OpenImage(const std::string& path) {
    return OpenImage(path, OpenOptions());
  }

  /// Writes the frozen image to `path` (temp file + rename).
  Status SaveImage(const std::string& path) const;

  /// The raw frozen image bytes (header + sections). Valid while frozen.
  std::span<const char> image_bytes() const {
    return std::span<const char>(image_.data(), image_.size());
  }

  /// True when this KB serves from a read-only file mapping rather than
  /// a heap buffer.
  bool mapped() const { return mapped_; }

  // --- Catalog queries -------------------------------------------------

  int64_t num_entities() const {
    return frozen_ ? static_cast<int64_t>(entities_.size())
                   : static_cast<int64_t>(build_entities_.size());
  }
  int64_t num_triples() const {
    return frozen_ ? static_cast<int64_t>(triples_.size())
                   : static_cast<int64_t>(build_triples_.size());
  }
  /// The entity record as a non-owning view (see Entity).
  Entity entity(EntityId id) const;
  std::span<const Triple> triples() const {
    return frozen_ ? triples_ : std::span<const Triple>(build_triples_);
  }

  /// Entities per type; used by the Table 2 report.
  int64_t CountEntitiesOfType(TypeId type) const;
  /// Distinct predicates whose subject type is `type`.
  int64_t CountPredicatesForSubjectType(TypeId type) const;

  // --- Matching (requires frozen) --------------------------------------

  /// All entity ids whose name or alias fuzzily matches `text` (§3.1.1
  /// step 1), in entity-id order; see Freeze() for the matching rule.
  /// May return many ids for ambiguous strings. The span aliases the
  /// image's name-id section and stays valid for the KB's lifetime;
  /// matching normalizes into per-thread scratch and binary-searches the
  /// sorted key section, so concurrent calls are safe and allocation-free.
  std::span<const EntityId> MatchMentionsView(std::string_view text) const;

  /// Copying variant of MatchMentionsView for callers that keep the result.
  std::vector<EntityId> MatchMentions(std::string_view text) const;

  // --- Triple queries (require frozen) ----------------------------------

  /// Triples with the given subject. Freeze() sorts triples by (subject,
  /// predicate, object) and indexes them CSR-style, so this is a view into
  /// the contiguous per-subject slice of triples() — no copy. Valid for the
  /// KB's lifetime.
  std::span<const Triple> TriplesWithSubject(EntityId subject) const;

  /// Objects of any triple with the given subject — the entitySet of
  /// Equation (1). Sorted ascending, no duplicates (membership is a
  /// binary search); a CSR view into the image, valid for the KB's
  /// lifetime.
  std::span<const EntityId> ObjectsOfSubject(EntityId subject) const;

  /// All predicates r such that (subject, r, object) is in the KB.
  std::vector<PredicateId> PredicatesBetween(EntityId subject,
                                             EntityId object) const;

  bool HasTriple(EntityId subject, PredicateId predicate,
                 EntityId object) const;

  /// Normalized object strings that appear in at least `fraction` of all
  /// triples — the common-string topic filter of §3.1.1 (paper example:
  /// 0.01%). `min_count` floors the threshold so that small KBs (where
  /// 0.01% is under one triple) don't filter every string.
  std::unordered_set<std::string> CommonObjectStrings(
      double fraction, int64_t min_count = 1) const;

 private:
  /// Owning storage for the build phase only; dropped at Freeze(). A
  /// deque keeps entity records pointer-stable so pre-freeze entity()
  /// views survive later AddEntity calls.
  struct BuildEntity {
    TypeId type = kInvalidType;
    std::string name;
    std::vector<std::string> aliases;
  };

  /// Caches typed section spans out of image_.
  void AttachImage();
  /// Exact lookup of a normalized key in the image's sorted key section.
  std::span<const EntityId> LookupNameKey(std::string_view normalized) const;
  /// O(1) consistency checks between typed section sizes.
  static Status ValidateImageStructure(const KbImage& image);

  Ontology ontology_;
  bool frozen_ = false;
  bool mapped_ = false;

  std::deque<BuildEntity> build_entities_;
  std::vector<Triple> build_triples_;

  /// The frozen state: one flat buffer (owned or mapped); the spans below
  /// are typed views into its sections.
  KbImage image_;
  std::span<const KbEntityRecord> entities_;
  std::span<const KbStringRef> alias_refs_;
  std::span<const Triple> triples_;
  std::span<const uint64_t> subject_offsets_;
  std::span<const uint64_t> object_offsets_;
  std::span<const EntityId> objects_;
  std::span<const KbNameKey> name_keys_;
  std::span<const EntityId> name_ids_;
  std::span<const KbObjectStringCount> object_string_counts_;
  const char* strings_ = nullptr;
  /// name_keys_[bucket[b], bucket[b + 1]) are the keys starting with byte
  /// b, so LookupNameKey binary-searches only its probe's bucket. Derived
  /// from the key section by AttachImage, on both backings.
  std::array<size_t, 257> name_key_bucket_{};
};

}  // namespace ceres

#endif  // CERES_KB_KNOWLEDGE_BASE_H_
