#include "dom/html_parser.h"

#include <cctype>
#include <charconv>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "util/string_util.h"

namespace ceres {

namespace {

const std::unordered_set<std::string_view>& VoidElements() {
  static const auto* kSet = new std::unordered_set<std::string_view>{
      "area", "base",  "br",    "col",  "embed", "hr",  "img", "input",
      "link", "meta",  "param", "source", "track", "wbr"};
  return *kSet;
}

// Tags that implicitly close an open element of the same (or listed) kind.
// Maps a start tag to the set of open tags it closes when found on top of
// the stack.
const std::unordered_map<std::string_view,
                         std::unordered_set<std::string_view>>&
AutoCloseRules() {
  static const auto* kRules = new std::unordered_map<
      std::string_view, std::unordered_set<std::string_view>>{
      {"li", {"li"}},
      {"p", {"p"}},
      {"dt", {"dt", "dd"}},
      {"dd", {"dt", "dd"}},
      {"td", {"td", "th"}},
      {"th", {"td", "th"}},
      {"tr", {"td", "th", "tr"}},
      {"option", {"option"}},
  };
  return *kRules;
}

// Lower-cases `text` into `*scratch` and returns a view of it. The scratch
// buffer is reused across calls, so one parse does O(1) lowering
// allocations instead of one per tag/attribute.
std::string_view ToLowerInto(std::string_view text, std::string* scratch) {
  scratch->assign(text);
  for (char& c : *scratch) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return *scratch;
}

// Appends a code point to `out` as UTF-8.
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Appends the decoded form of `text` to `*out` (no clear).
void DecodeEntitiesInto(std::string_view text, std::string* out) {
  static const auto* kNamed =
      new std::unordered_map<std::string_view, std::string_view>{
          {"amp", "&"},   {"lt", "<"},     {"gt", ">"},   {"quot", "\""},
          {"apos", "'"},  {"nbsp", " "},   {"copy", "©"}, {"reg", "®"},
          {"hellip", "…"}, {"mdash", "—"}, {"ndash", "–"}, {"rsquo", "’"},
          {"lsquo", "‘"}, {"rdquo", "”"},  {"ldquo", "“"}, {"times", "×"},
      };
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out->push_back(text[i++]);
      continue;
    }
    size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out->push_back(text[i++]);
      continue;
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (!entity.empty() && entity[0] == '#') {
      uint32_t cp = 0;
      bool ok = false;
      if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
        auto [p, ec] = std::from_chars(entity.data() + 2,
                                       entity.data() + entity.size(), cp, 16);
        ok = ec == std::errc() && p == entity.data() + entity.size();
      } else {
        auto [p, ec] = std::from_chars(entity.data() + 1,
                                       entity.data() + entity.size(), cp, 10);
        ok = ec == std::errc() && p == entity.data() + entity.size();
      }
      if (ok && cp > 0 && cp <= 0x10FFFF) {
        AppendUtf8(cp, out);
        i = semi + 1;
        continue;
      }
    } else {
      auto it = kNamed->find(entity);
      if (it != kNamed->end()) {
        out->append(it->second);
        i = semi + 1;
        continue;
      }
    }
    out->push_back(text[i++]);
  }
}

// Reusable working buffers for one ParseHtml call: every per-tag and
// per-attribute transform (lowering, entity decoding, whitespace collapse)
// lands in one of these and is then interned or arena-copied, so steady
// state parsing does not allocate per token.
struct ParseScratch {
  std::string lower;    // lower-cased tag / attribute / close-tag names
  std::string decoded;  // entity-decoded attribute values and text
  std::string collapsed;  // whitespace-collapsed text segments
};

// Parses an attribute list between a tag name and '>' / '/>' directly into
// the document's flat attribute array for node `id`.
void ParseAttributes(std::string_view body, DomDocument* doc, NodeId id,
                     ParseScratch* scratch) {
  size_t i = 0;
  while (i < body.size()) {
    while (i < body.size() &&
           std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
    }
    if (i >= body.size() || body[i] == '/') break;
    size_t name_start = i;
    while (i < body.size() && body[i] != '=' && body[i] != '/' &&
           !std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
    }
    std::string_view name =
        ToLowerInto(body.substr(name_start, i - name_start), &scratch->lower);
    if (name.empty()) {
      ++i;
      continue;
    }
    while (i < body.size() &&
           std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
    }
    scratch->decoded.clear();
    if (i < body.size() && body[i] == '=') {
      ++i;
      while (i < body.size() &&
             std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      if (i < body.size() && (body[i] == '"' || body[i] == '\'')) {
        char quote = body[i++];
        size_t value_start = i;
        while (i < body.size() && body[i] != quote) ++i;
        DecodeEntitiesInto(body.substr(value_start, i - value_start),
                           &scratch->decoded);
        if (i < body.size()) ++i;  // Closing quote.
      } else {
        size_t value_start = i;
        while (i < body.size() && body[i] != '/' &&
               !std::isspace(static_cast<unsigned char>(body[i]))) {
          ++i;
        }
        DecodeEntitiesInto(body.substr(value_start, i - value_start),
                           &scratch->decoded);
      }
    }
    doc->AddAttribute(id, name, scratch->decoded);
  }
}

// Decodes and whitespace-collapses raw character data, then appends it to
// the node's text in the document arena.
void AppendText(DomDocument* doc, NodeId id, std::string_view raw,
                ParseScratch* scratch) {
  scratch->decoded.clear();
  DecodeEntitiesInto(raw, &scratch->decoded);
  std::string_view trimmed = StripWhitespace(scratch->decoded);
  if (trimmed.empty()) return;
  std::string& collapsed = scratch->collapsed;
  collapsed.clear();
  bool last_space = false;
  for (char c : trimmed) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!last_space) collapsed.push_back(' ');
      last_space = true;
    } else {
      collapsed.push_back(c);
      last_space = false;
    }
  }
  doc->AppendTextSegment(id, collapsed);
}

}  // namespace

std::string DecodeEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  DecodeEntitiesInto(text, &out);
  return out;
}

Result<DomDocument> ParseHtml(std::string_view html,
                              const HtmlParseOptions& options) {
  DomDocument doc;
  doc.ReserveFor(html.size());
  std::vector<NodeId> stack;
  stack.reserve(32);
  stack.push_back(doc.root());
  bool saw_explicit_html = false;
  ParseScratch scratch;
  scratch.lower.reserve(64);
  scratch.decoded.reserve(512);
  scratch.collapsed.reserve(512);

  size_t i = 0;
  const size_t n = html.size();
  while (i < n) {
    if (html[i] != '<') {
      size_t next = html.find('<', i);
      if (next == std::string_view::npos) next = n;
      AppendText(&doc, stack.back(), html.substr(i, next - i), &scratch);
      i = next;
      continue;
    }
    // Comment.
    if (html.compare(i, 4, "<!--") == 0) {
      size_t end = html.find("-->", i + 4);
      i = end == std::string_view::npos ? n : end + 3;
      continue;
    }
    // Doctype or other declaration.
    if (i + 1 < n && (html[i + 1] == '!' || html[i + 1] == '?')) {
      size_t end = html.find('>', i);
      i = end == std::string_view::npos ? n : end + 1;
      continue;
    }
    size_t close = html.find('>', i);
    if (close == std::string_view::npos) {
      // Trailing junk; treat as text.
      AppendText(&doc, stack.back(), html.substr(i), &scratch);
      break;
    }
    std::string_view tag_body = html.substr(i + 1, close - i - 1);
    i = close + 1;
    if (tag_body.empty()) continue;

    if (tag_body[0] == '/') {
      // End tag: pop to the matching open element, ignoring if absent.
      std::string_view tag =
          ToLowerInto(StripWhitespace(tag_body.substr(1)), &scratch.lower);
      for (size_t depth = stack.size(); depth-- > 0;) {
        if (doc.node(stack[depth]).tag == tag) {
          if (depth == 0) break;  // Never pop the root.
          stack.resize(depth);
          break;
        }
      }
      continue;
    }

    // Start tag.
    size_t name_end = 0;
    while (name_end < tag_body.size() && tag_body[name_end] != '/' &&
           !std::isspace(static_cast<unsigned char>(tag_body[name_end]))) {
      ++name_end;
    }
    std::string_view tag =
        ToLowerInto(tag_body.substr(0, name_end), &scratch.lower);
    if (tag.empty()) continue;
    bool self_closing = !tag_body.empty() && tag_body.back() == '/';

    if (tag == "html" && !saw_explicit_html) {
      // Merge into the implicit root rather than nesting a second <html>.
      saw_explicit_html = true;
      ParseAttributes(tag_body.substr(name_end), &doc, doc.root(), &scratch);
      continue;
    }

    // Implicit closes (e.g. <li> after an unclosed <li>).
    auto rule = AutoCloseRules().find(tag);
    if (rule != AutoCloseRules().end()) {
      while (stack.size() > 1 &&
             rule->second.count(doc.node(stack.back()).tag) > 0) {
        stack.pop_back();
      }
    }

    if (doc.size() >= options.max_nodes) {
      return Status::ResourceExhausted(
          StrCat("page exceeds max_nodes=", options.max_nodes));
    }
    NodeId id = doc.AddChild(stack.back(), tag);
    // Rebind to the pooled (stable) tag: ParseAttributes reuses the lowering
    // scratch buffer `tag` currently points into.
    tag = doc.node(id).tag;
    ParseAttributes(tag_body.substr(name_end), &doc, id, &scratch);

    bool is_void = VoidElements().count(tag) > 0;
    if ((tag == "script" || tag == "style") && !self_closing) {
      // Raw-text element: skip to the matching close tag. Its content is
      // discarded; semi-structured extraction never reads it.
      const char* close_tag = tag == "script" ? "</script" : "</style";
      const size_t close_len = tag.size() + 2;
      size_t end = i;
      while (true) {
        end = html.find('<', end);
        if (end == std::string_view::npos) {
          end = n;
          break;
        }
        if (end + close_len <= n) {
          std::string_view candidate =
              ToLowerInto(html.substr(end, close_len), &scratch.lower);
          if (candidate == close_tag) break;
        }
        ++end;
      }
      size_t tag_end = html.find('>', end);
      i = tag_end == std::string_view::npos ? n : tag_end + 1;
      continue;
    }
    if (!is_void && !self_closing) stack.push_back(id);
  }
  return doc;
}

}  // namespace ceres
