#ifndef CERES_KB_KB_IO_H_
#define CERES_KB_KB_IO_H_

#include <iosfwd>
#include <string>

#include "kb/knowledge_base.h"
#include "util/status.h"

namespace ceres {

/// Text serialization of a KnowledgeBase, for loading real seed KBs into
/// the extractor and for exporting synthetic ones.
///
/// The format is a single TSV-style text document with three sections:
///
///   #types
///   <name> \t <literal|entity>
///   #predicates
///   <name> \t <subject type> \t <object type> \t <multi|single>
///   #entities
///   <id> \t <type name> \t <name> [\t alias]...
///   #triples
///   <subject id> \t <predicate name> \t <object id>
///
/// Ids are the caller's; they are remapped to dense internal ids on load.
/// Lines starting with '#' other than section headers, and blank lines,
/// are ignored. Tabs inside names are not supported (rejected on save).

/// Writes `kb` to `out`. The KB must be frozen.
Status SaveKb(const KnowledgeBase& kb, std::ostream* out);

/// Convenience: SaveKb to a file path.
Status SaveKbToFile(const KnowledgeBase& kb, const std::string& path);

/// Parses a serialized KB. Returns a frozen KnowledgeBase, or a
/// kInvalidArgument status naming the first malformed line.
Result<KnowledgeBase> LoadKb(std::istream* in);

/// Convenience: LoadKb from a file path (kNotFound if unreadable). Errors
/// are prefixed with the path.
Result<KnowledgeBase> LoadKbFromFile(const std::string& path);

}  // namespace ceres

#endif  // CERES_KB_KB_IO_H_
