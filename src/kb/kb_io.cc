#include "kb/kb_io.h"

#include <charconv>
#include <fstream>
#include <memory>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/string_util.h"

namespace ceres {

namespace {

bool HasTab(std::string_view text) {
  return text.find('\t') != std::string_view::npos;
}

Status MalformedLine(int line_number, const std::string& line,
                     const std::string& why) {
  return Status::InvalidArgument(
      StrCat("line ", line_number, ": ", why, " — \"", line, "\""));
}

}  // namespace

Status SaveKb(const KnowledgeBase& kb, std::ostream* out) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("KB must be frozen before saving");
  }
  const Ontology& ontology = kb.ontology();
  *out << "#types\n";
  for (const EntityTypeDecl& type : ontology.entity_types()) {
    if (HasTab(type.name)) {
      return Status::InvalidArgument(
          StrCat("type name contains a tab: ", type.name));
    }
    *out << type.name << '\t' << (type.is_literal ? "literal" : "entity")
         << '\n';
  }
  *out << "#predicates\n";
  for (const PredicateDecl& predicate : ontology.predicates()) {
    if (HasTab(predicate.name)) {
      return Status::InvalidArgument(
          StrCat("predicate name contains a tab: ", predicate.name));
    }
    *out << predicate.name << '\t'
         << ontology.entity_type(predicate.subject_type).name << '\t'
         << ontology.entity_type(predicate.object_type).name << '\t'
         << (predicate.multi_valued ? "multi" : "single") << '\n';
  }
  *out << "#entities\n";
  for (EntityId id = 0; id < kb.num_entities(); ++id) {
    const Entity& entity = kb.entity(id);
    if (HasTab(entity.name)) {
      return Status::InvalidArgument(
          StrCat("entity name contains a tab: ", entity.name));
    }
    *out << id << '\t' << ontology.entity_type(entity.type).name << '\t'
         << entity.name;
    for (std::string_view alias : entity.aliases) {
      if (HasTab(alias)) {
        return Status::InvalidArgument(
            StrCat("alias contains a tab: ", alias));
      }
      *out << '\t' << alias;
    }
    *out << '\n';
  }
  *out << "#triples\n";
  for (const Triple& triple : kb.triples()) {
    *out << triple.subject << '\t'
         << ontology.predicate(triple.predicate).name << '\t'
         << triple.object << '\n';
  }
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::Ok();
}

Status SaveKbToFile(const KnowledgeBase& kb, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound(StrCat("cannot open for writing: ", path));
  }
  return SaveKb(kb, &out);
}

namespace {

/// Incremental parser state of one LoadKb call. ConsumeLine returns the
/// status of one line; the first failure ends the load.
class KbParser {
 public:
  /// Section-header / comment lines; never fails.
  bool ConsumeDirective(const std::string& line) {
    if (line.empty() || line[0] != '#') return false;
    if (line == "#types") {
      section_ = Section::kTypes;
    } else if (line == "#predicates") {
      section_ = Section::kPredicates;
    } else if (line == "#entities") {
      section_ = Section::kEntities;
      EnsureKb();
    } else if (line == "#triples") {
      EnsureKb();
      section_ = Section::kTriples;
    }
    return true;  // Unknown '#' lines are comments.
  }

  Status ConsumeLine(int line_number, const std::string& line) {
    std::vector<std::string> fields = Split(line, '\t');
    switch (section_) {
      case Section::kNone:
        return MalformedLine(line_number, line, "data before any section");
      case Section::kTypes: {
        if (fields.size() != 2) {
          return MalformedLine(line_number, line, "expected 2 fields");
        }
        if (fields[1] != "literal" && fields[1] != "entity") {
          return MalformedLine(line_number, line,
                               "kind must be literal|entity");
        }
        if (ontology_.TypeByName(fields[0]).ok()) {
          return MalformedLine(line_number, line, "duplicate type");
        }
        ontology_.AddEntityType(fields[0], fields[1] == "literal");
        return Status::Ok();
      }
      case Section::kPredicates: {
        if (fields.size() != 4) {
          return MalformedLine(line_number, line, "expected 4 fields");
        }
        Result<TypeId> subject = ontology_.TypeByName(fields[1]);
        Result<TypeId> object = ontology_.TypeByName(fields[2]);
        if (!subject.ok() || !object.ok()) {
          return MalformedLine(line_number, line, "unknown type");
        }
        if (fields[3] != "multi" && fields[3] != "single") {
          return MalformedLine(line_number, line,
                               "cardinality must be multi|single");
        }
        if (ontology_.PredicateByName(fields[0]).ok()) {
          return MalformedLine(line_number, line, "duplicate predicate");
        }
        ontology_.AddPredicate(fields[0], *subject, *object,
                               fields[3] == "multi");
        return Status::Ok();
      }
      case Section::kEntities: {
        if (fields.size() < 3) {
          return MalformedLine(line_number, line, "expected >= 3 fields");
        }
        int64_t external_id = 0;
        if (!ParseId(fields[0], &external_id)) {
          return MalformedLine(line_number, line, "bad entity id");
        }
        if (id_map_.count(external_id) > 0) {
          return MalformedLine(line_number, line, "duplicate entity id");
        }
        Result<TypeId> type = kb_->ontology().TypeByName(fields[1]);
        if (!type.ok()) {
          return MalformedLine(line_number, line, "unknown type");
        }
        EntityId internal = kb_->AddEntity(*type, fields[2]);
        for (size_t i = 3; i < fields.size(); ++i) {
          kb_->AddAlias(internal, fields[i]);
        }
        id_map_[external_id] = internal;
        return Status::Ok();
      }
      case Section::kTriples: {
        if (fields.size() != 3) {
          return MalformedLine(line_number, line, "expected 3 fields");
        }
        int64_t subject_id = 0;
        int64_t object_id = 0;
        if (!ParseId(fields[0], &subject_id) ||
            !ParseId(fields[2], &object_id)) {
          return MalformedLine(line_number, line, "bad entity id");
        }
        auto subject_it = id_map_.find(subject_id);
        auto object_it = id_map_.find(object_id);
        if (subject_it == id_map_.end() || object_it == id_map_.end()) {
          return MalformedLine(line_number, line, "undeclared entity id");
        }
        Result<PredicateId> predicate =
            kb_->ontology().PredicateByName(fields[1]);
        if (!predicate.ok()) {
          return MalformedLine(line_number, line, "unknown predicate");
        }
        kb_->AddTriple(subject_it->second, *predicate, object_it->second);
        return Status::Ok();
      }
    }
    return Status::Internal("unreachable");
  }

  KnowledgeBase Finish() {
    EnsureKb();
    kb_->Freeze();
    return std::move(*kb_);
  }

 private:
  enum class Section { kNone, kTypes, kPredicates, kEntities, kTriples };

  static bool ParseId(const std::string& field, int64_t* value) {
    auto [ptr, ec] = std::from_chars(field.data(),
                                     field.data() + field.size(), *value);
    return ec == std::errc() && ptr == field.data() + field.size();
  }

  // Ontology fills first; the KB is created lazily when #entities begins.
  void EnsureKb() {
    if (kb_ == nullptr) kb_ = std::make_unique<KnowledgeBase>(ontology_);
  }

  Section section_ = Section::kNone;
  Ontology ontology_;
  std::unique_ptr<KnowledgeBase> kb_;
  std::unordered_map<int64_t, EntityId> id_map_;
};

}  // namespace

Result<KnowledgeBase> LoadKb(std::istream* in) {
  KbParser parser;
  std::string line;
  int line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (parser.ConsumeDirective(line)) continue;
    CERES_RETURN_IF_ERROR(parser.ConsumeLine(line_number, line));
  }
  return parser.Finish();
}

Result<KnowledgeBase> LoadKbFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open: ", path));
  }
  CERES_ASSIGN_OR_RETURN(KnowledgeBase kb, LoadKb(&in),
                         StrCat("loading ", path));
  return kb;
}

}  // namespace ceres
