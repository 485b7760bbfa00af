#ifndef CERES_DOM_HTML_PARSER_H_
#define CERES_DOM_HTML_PARSER_H_

#include <string_view>

#include "dom/dom_tree.h"
#include "util/status.h"

namespace ceres {

/// Options for ParseHtml.
struct HtmlParseOptions {
  /// Maximum element count before the parser gives up with
  /// kResourceExhausted; guards against pathological inputs.
  int max_nodes = 1 << 20;
};

/// Parses tag-soup HTML into a DomDocument.
///
/// The parser is tolerant by design, mirroring what a production wrapper
/// system faces in the wild:
///  * unclosed elements are closed implicitly (li/p/td/tr/th/dt/dd/option
///    auto-close their own kind; everything left open is closed at EOF);
///  * stray close tags with no matching open element are ignored;
///  * void elements (br, img, meta, ...) never take children;
///  * comments and doctype declarations are skipped, and so is the
///    content of <script> and <style> elements;
///  * character entities (&amp;, &#233;, &#x1F600;, ...) are decoded.
///
/// Character data attaches to the nearest open element as its `text` field,
/// whitespace-normalized, so a node's `text` is the "full text in a DOM node"
/// the paper matches entities against.
Result<DomDocument> ParseHtml(std::string_view html,
                              const HtmlParseOptions& options = {});

/// Decodes HTML character entities in `text` (named subset + numeric).
std::string DecodeEntities(std::string_view text);

}  // namespace ceres

#endif  // CERES_DOM_HTML_PARSER_H_
