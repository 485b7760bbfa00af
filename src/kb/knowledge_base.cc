#include "kb/knowledge_base.h"

#include <algorithm>
#include <map>
#include <utility>

#include "text/normalize.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ceres {

EntityId KnowledgeBase::AddEntity(TypeId type, std::string_view name) {
  CERES_CHECK(!frozen_);
  CERES_CHECK(type >= 0 && type < ontology_.num_types());
  EntityId id = static_cast<EntityId>(build_entities_.size());
  build_entities_.push_back(BuildEntity{type, std::string(name), {}});
  return id;
}

void KnowledgeBase::AddAlias(EntityId id, std::string_view alias) {
  CERES_CHECK(!frozen_);
  CERES_CHECK(id >= 0 && id < num_entities());
  build_entities_[static_cast<size_t>(id)].aliases.emplace_back(alias);
}

void KnowledgeBase::AddTriple(EntityId subject, PredicateId predicate,
                              EntityId object) {
  CERES_CHECK(!frozen_);
  CERES_CHECK(subject >= 0 && subject < num_entities());
  CERES_CHECK(object >= 0 && object < num_entities());
  CERES_CHECK(predicate >= 0 && predicate < ontology_.num_predicates());
  build_triples_.push_back(Triple{subject, predicate, object});
}

void KnowledgeBase::Freeze() {
  CERES_CHECK(!frozen_);
  const size_t num_entities = build_entities_.size();

  // Deduplicate triples.
  std::sort(build_triples_.begin(), build_triples_.end(),
            [](const Triple& a, const Triple& b) {
              if (a.subject != b.subject) return a.subject < b.subject;
              if (a.predicate != b.predicate) return a.predicate < b.predicate;
              return a.object < b.object;
            });
  build_triples_.erase(
      std::unique(build_triples_.begin(), build_triples_.end()),
      build_triples_.end());

  // The normalized name index, which defines what a mention matches (the
  // string matching of Gulhane et al. that §3.1.1 adopts): every name and
  // alias is keyed by its NormalizeText form, so matching is case-,
  // punctuation- and accent-insensitive; names that normalize to nothing
  // are never keyed; each key lists its ids once, in entity-id order, so
  // an ambiguous name returns every entity bearing it. MatchMentionsView
  // additionally retries a miss without a trailing year token. A std::map
  // because the image's key section must be sorted by key bytes.
  std::map<std::string, std::vector<EntityId>> name_map;
  auto add_name = [&name_map](std::string_view surface, EntityId id) {
    std::string key = NormalizeText(surface);
    if (key.empty()) return;
    std::vector<EntityId>& ids = name_map[std::move(key)];
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  };
  for (size_t i = 0; i < num_entities; ++i) {
    const BuildEntity& entity = build_entities_[i];
    const EntityId id = static_cast<EntityId>(i);
    add_name(entity.name, id);
    for (const std::string& alias : entity.aliases) add_name(alias, id);
  }

  // CSR subject index over the (now sorted) triple array: a counting pass
  // then a prefix sum, so TriplesWithSubject is an O(1) span handout. The
  // object CSR reuses the sort: each subject's slice is contiguous, its
  // objects only need a per-subject sort + unique.
  std::vector<uint64_t> subject_offsets(num_entities + 1, 0);
  std::map<std::string, int64_t> object_string_counts;
  std::string key;
  for (const Triple& triple : build_triples_) {
    ++subject_offsets[static_cast<size_t>(triple.subject) + 1];
    NormalizeTextInto(
        build_entities_[static_cast<size_t>(triple.object)].name, &key);
    if (!key.empty()) ++object_string_counts[key];
  }
  for (size_t s = 1; s < subject_offsets.size(); ++s) {
    subject_offsets[s] += subject_offsets[s - 1];
  }
  std::vector<uint64_t> object_offsets(num_entities + 1, 0);
  std::vector<EntityId> objects;
  objects.reserve(build_triples_.size());
  std::vector<EntityId> scratch;
  for (size_t s = 0; s < num_entities; ++s) {
    scratch.clear();
    for (size_t t = subject_offsets[s]; t < subject_offsets[s + 1]; ++t) {
      scratch.push_back(build_triples_[t].object);
    }
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    objects.insert(objects.end(), scratch.begin(), scratch.end());
    object_offsets[s + 1] = objects.size();
  }

  // Serialize everything into the flat image; from here on the image is
  // the single source of truth and the build storage is dropped.
  KbImageBuilder builder;
  for (const EntityTypeDecl& type : ontology_.entity_types()) {
    KbTypeRecord record;
    record.name = builder.AddString(type.name);
    record.is_literal = type.is_literal ? 1 : 0;
    builder.Append(kKbSectionTypes, record);
  }
  for (const PredicateDecl& predicate : ontology_.predicates()) {
    KbPredicateRecord record;
    record.name = builder.AddString(predicate.name);
    record.subject_type = predicate.subject_type;
    record.object_type = predicate.object_type;
    record.multi_valued = predicate.multi_valued ? 1 : 0;
    builder.Append(kKbSectionPredicates, record);
  }
  uint64_t alias_cursor = 0;
  for (size_t i = 0; i < num_entities; ++i) {
    const BuildEntity& entity = build_entities_[i];
    KbEntityRecord record;
    record.name = builder.AddString(entity.name);
    record.alias_begin = alias_cursor;
    for (const std::string& alias : entity.aliases) {
      builder.Append(kKbSectionAliasRefs, builder.AddString(alias));
      ++alias_cursor;
    }
    record.alias_end = alias_cursor;
    record.type = entity.type;
    builder.Append(kKbSectionEntities, record);
  }
  for (const Triple& triple : build_triples_) {
    builder.Append(kKbSectionTriples, triple);
  }
  for (uint64_t offset : subject_offsets) {
    builder.Append(kKbSectionSubjectOffsets, offset);
  }
  for (uint64_t offset : object_offsets) {
    builder.Append(kKbSectionObjectOffsets, offset);
  }
  for (EntityId object : objects) {
    builder.Append(kKbSectionObjects, object);
  }
  uint64_t ids_cursor = 0;
  for (const auto& [name_key, ids] : name_map) {
    KbNameKey record;
    record.key = builder.AddString(name_key);
    record.ids_begin = ids_cursor;
    record.ids_end = ids_cursor + ids.size();
    builder.Append(kKbSectionNameKeys, record);
    for (EntityId id : ids) builder.Append(kKbSectionNameIds, id);
    ids_cursor = record.ids_end;
  }
  for (const auto& [count_key, count] : object_string_counts) {
    KbObjectStringCount record;
    record.key = builder.AddString(count_key);
    record.count = count;
    builder.Append(kKbSectionObjectStringCounts, record);
  }

  Result<KbImage> image = KbImage::FromBuffer(builder.Serialize());
  CERES_CHECK_MSG(image.ok(), "freshly serialized KB image must validate");
  image_ = std::move(image).value();
  AttachImage();

  build_entities_.clear();
  std::vector<Triple>().swap(build_triples_);
  frozen_ = true;
}

void KnowledgeBase::AttachImage() {
  entities_ = image_.Section<KbEntityRecord>(kKbSectionEntities);
  alias_refs_ = image_.Section<KbStringRef>(kKbSectionAliasRefs);
  triples_ = image_.Section<Triple>(kKbSectionTriples);
  subject_offsets_ = image_.Section<uint64_t>(kKbSectionSubjectOffsets);
  object_offsets_ = image_.Section<uint64_t>(kKbSectionObjectOffsets);
  objects_ = image_.Section<EntityId>(kKbSectionObjects);
  name_keys_ = image_.Section<KbNameKey>(kKbSectionNameKeys);
  name_ids_ = image_.Section<EntityId>(kKbSectionNameIds);
  object_string_counts_ =
      image_.Section<KbObjectStringCount>(kKbSectionObjectStringCounts);
  strings_ =
      image_.data() + image_.header().sections[kKbSectionStrings].offset;
  // First-byte buckets over the sorted key section: bucket b starts at the
  // first key whose first byte is >= b. One binary search per byte value
  // keeps OpenImage O(1) in KB size. On an unverified corrupt image the
  // offset check keeps these reads inside the blob, and starting each
  // search at the previous bound keeps the buckets ordered.
  const uint64_t strings_bytes =
      image_.header().sections[kKbSectionStrings].bytes;
  auto first_byte = [this, strings_bytes](const KbNameKey& key) -> size_t {
    if (key.key.length == 0 || key.key.offset >= strings_bytes) return 0;
    return static_cast<unsigned char>(strings_[key.key.offset]);
  };
  size_t bound = 0;
  for (size_t b = 0; b < 256; ++b) {
    size_t high = name_keys_.size();
    while (bound < high) {
      const size_t mid = bound + (high - bound) / 2;
      if (first_byte(name_keys_[mid]) < b) {
        bound = mid + 1;
      } else {
        high = mid;
      }
    }
    name_key_bucket_[b] = bound;
  }
  name_key_bucket_[256] = name_keys_.size();
}

Status KnowledgeBase::ValidateImageStructure(const KbImage& image) {
  const KbImageHeader& header = image.header();
  auto record_count = [&header](KbImageSectionId id,
                                size_t record_bytes) -> int64_t {
    if (header.sections[id].bytes % record_bytes != 0) return -1;
    return static_cast<int64_t>(header.sections[id].bytes / record_bytes);
  };
  const int64_t types = record_count(kKbSectionTypes, sizeof(KbTypeRecord));
  const int64_t predicates =
      record_count(kKbSectionPredicates, sizeof(KbPredicateRecord));
  const int64_t entities =
      record_count(kKbSectionEntities, sizeof(KbEntityRecord));
  const int64_t alias_refs =
      record_count(kKbSectionAliasRefs, sizeof(KbStringRef));
  const int64_t triples = record_count(kKbSectionTriples, sizeof(Triple));
  const int64_t subject_offsets =
      record_count(kKbSectionSubjectOffsets, sizeof(uint64_t));
  const int64_t object_offsets =
      record_count(kKbSectionObjectOffsets, sizeof(uint64_t));
  const int64_t objects = record_count(kKbSectionObjects, sizeof(EntityId));
  const int64_t name_keys =
      record_count(kKbSectionNameKeys, sizeof(KbNameKey));
  const int64_t name_ids = record_count(kKbSectionNameIds, sizeof(EntityId));
  const int64_t counts =
      record_count(kKbSectionObjectStringCounts, sizeof(KbObjectStringCount));
  if (types < 0 || predicates < 0 || entities < 0 || alias_refs < 0 ||
      triples < 0 || subject_offsets < 0 || object_offsets < 0 ||
      objects < 0 || name_keys < 0 || name_ids < 0 || counts < 0) {
    return Status::DataLoss(
        "section byte count is not a record-size multiple");
  }
  if (subject_offsets != entities + 1 || object_offsets != entities + 1) {
    return Status::DataLoss(
        StrCat("offset table sizes (", subject_offsets, ", ",
               object_offsets, ") do not match ", entities, " entities"));
  }
  const auto subject_span =
      image.Section<uint64_t>(kKbSectionSubjectOffsets);
  const auto object_span = image.Section<uint64_t>(kKbSectionObjectOffsets);
  if (subject_span.back() != static_cast<uint64_t>(triples)) {
    return Status::DataLoss(
        StrCat("subject offsets end at ", subject_span.back(), " but ",
               triples, " triples are stored"));
  }
  if (object_span.back() != static_cast<uint64_t>(objects)) {
    return Status::DataLoss(
        StrCat("object offsets end at ", object_span.back(), " but ",
               objects, " objects are stored"));
  }
  return Status::Ok();
}

Result<KnowledgeBase> KnowledgeBase::OpenImage(const std::string& path,
                                               OpenOptions options) {
  CERES_ASSIGN_OR_RETURN(KbImage image,
                         KbImage::Map(path, options.verify_checksum));
  CERES_RETURN_IF_ERROR(PrependContext(ValidateImageStructure(image),
                                       StrCat("kb image ", path)));
  if (options.verify_checksum) {
    CERES_RETURN_IF_ERROR(
        PrependContext(image.VerifyRefs(), StrCat("kb image ", path)));
  }
  // Materialize the (small) ontology from the image records; record order
  // is id order on both sides, so ids round-trip unchanged.
  Ontology ontology;
  for (const KbTypeRecord& type : image.Section<KbTypeRecord>(kKbSectionTypes)) {
    ontology.AddEntityType(image.View(type.name), type.is_literal != 0);
  }
  for (const KbPredicateRecord& predicate :
       image.Section<KbPredicateRecord>(kKbSectionPredicates)) {
    ontology.AddPredicate(image.View(predicate.name),
                          predicate.subject_type, predicate.object_type,
                          predicate.multi_valued != 0);
  }
  KnowledgeBase kb(std::move(ontology));
  kb.image_ = std::move(image);
  kb.AttachImage();
  kb.frozen_ = true;
  kb.mapped_ = true;
  return kb;
}

Status KnowledgeBase::SaveImage(const std::string& path) const {
  CERES_CHECK(frozen_);
  return WriteKbImageFile(image_bytes(), path);
}

Entity KnowledgeBase::entity(EntityId id) const {
  CERES_CHECK(id >= 0 && id < num_entities());
  if (!frozen_) {
    const BuildEntity& build = build_entities_[static_cast<size_t>(id)];
    return Entity{id, build.type, build.name, KbAliasRange(&build.aliases)};
  }
  const KbEntityRecord& record = entities_[static_cast<size_t>(id)];
  return Entity{
      id, record.type, image_.View(record.name),
      KbAliasRange(alias_refs_.data() + record.alias_begin,
                   static_cast<size_t>(record.alias_end - record.alias_begin),
                   strings_)};
}

int64_t KnowledgeBase::CountEntitiesOfType(TypeId type) const {
  int64_t count = 0;
  if (frozen_) {
    for (const KbEntityRecord& record : entities_) {
      if (record.type == type) ++count;
    }
  } else {
    for (const BuildEntity& entity : build_entities_) {
      if (entity.type == type) ++count;
    }
  }
  return count;
}

int64_t KnowledgeBase::CountPredicatesForSubjectType(TypeId type) const {
  std::unordered_set<PredicateId> seen;
  for (const Triple& triple : triples()) {
    const TypeId subject_type =
        frozen_ ? entities_[static_cast<size_t>(triple.subject)].type
                : build_entities_[static_cast<size_t>(triple.subject)].type;
    if (subject_type == type) seen.insert(triple.predicate);
  }
  return static_cast<int64_t>(seen.size());
}

std::span<const EntityId> KnowledgeBase::LookupNameKey(
    std::string_view normalized) const {
  if (normalized.empty()) return {};
  // Views from the cached blob base: image_.View re-reads the section
  // table, and this runs once per binary-search step.
  const char* const strings = strings_;
  auto key_of = [strings](const KbNameKey& key) {
    return std::string_view(strings + key.key.offset,
                            static_cast<size_t>(key.key.length));
  };
  const size_t first = static_cast<unsigned char>(normalized[0]);
  const KbNameKey* begin = name_keys_.data() + name_key_bucket_[first];
  const KbNameKey* end = name_keys_.data() + name_key_bucket_[first + 1];
  const KbNameKey* it = std::lower_bound(
      begin, end, normalized,
      [&key_of](const KbNameKey& key, std::string_view probe) {
        return key_of(key) < probe;
      });
  if (it == end || key_of(*it) != normalized) return {};
  return name_ids_.subspan(it->ids_begin, it->ids_end - it->ids_begin);
}

std::span<const EntityId> KnowledgeBase::MatchMentionsView(
    std::string_view text) const {
  CERES_CHECK(frozen_);
  // One scratch buffer per thread: concurrent batch workers each reuse
  // their own, so the hot path stays allocation-free after warm-up.
  thread_local std::string scratch;
  NormalizeTextInto(text, &scratch);
  std::span<const EntityId> hit;
  if (!scratch.empty()) {
    hit = LookupNameKey(scratch);
    if (hit.empty()) {
      // Retry with a trailing disambiguation year removed, a common
      // pattern on film sites ("Do the Right Thing (1989)").
      std::string_view stripped = StripTrailingYearView(scratch);
      if (stripped.size() != scratch.size() && !stripped.empty()) {
        hit = LookupNameKey(stripped);
      }
    }
  }
  return hit;
}

std::vector<EntityId> KnowledgeBase::MatchMentions(
    std::string_view text) const {
  std::span<const EntityId> hit = MatchMentionsView(text);
  return std::vector<EntityId>(hit.begin(), hit.end());
}

std::span<const Triple> KnowledgeBase::TriplesWithSubject(
    EntityId subject) const {
  CERES_CHECK(frozen_);
  if (subject < 0 || subject >= num_entities()) return {};
  const size_t begin = subject_offsets_[static_cast<size_t>(subject)];
  const size_t end = subject_offsets_[static_cast<size_t>(subject) + 1];
  return triples_.subspan(begin, end - begin);
}

std::span<const EntityId> KnowledgeBase::ObjectsOfSubject(
    EntityId subject) const {
  CERES_CHECK(frozen_);
  if (subject < 0 || subject >= num_entities()) return {};
  const size_t begin = object_offsets_[static_cast<size_t>(subject)];
  const size_t end = object_offsets_[static_cast<size_t>(subject) + 1];
  return objects_.subspan(begin, end - begin);
}

std::vector<PredicateId> KnowledgeBase::PredicatesBetween(
    EntityId subject, EntityId object) const {
  std::vector<PredicateId> out;
  for (const Triple& triple : TriplesWithSubject(subject)) {
    if (triple.object == object) out.push_back(triple.predicate);
  }
  return out;
}

bool KnowledgeBase::HasTriple(EntityId subject, PredicateId predicate,
                              EntityId object) const {
  // The subject slice is sorted by (predicate, object), so membership is a
  // binary search rather than a scan over the subject's triples.
  std::span<const Triple> slice = TriplesWithSubject(subject);
  const Triple probe{subject, predicate, object};
  return std::binary_search(slice.begin(), slice.end(), probe,
                            [](const Triple& a, const Triple& b) {
                              if (a.predicate != b.predicate) {
                                return a.predicate < b.predicate;
                              }
                              return a.object < b.object;
                            });
}

std::unordered_set<std::string> KnowledgeBase::CommonObjectStrings(
    double fraction, int64_t min_count) const {
  CERES_CHECK(frozen_);
  std::unordered_set<std::string> out;
  if (triples_.empty()) return out;
  const double threshold =
      std::max(fraction * static_cast<double>(triples_.size()),
               static_cast<double>(min_count));
  for (const KbObjectStringCount& record : object_string_counts_) {
    if (static_cast<double>(record.count) >= threshold) {
      out.insert(std::string(image_.View(record.key)));
    }
  }
  return out;
}

}  // namespace ceres
