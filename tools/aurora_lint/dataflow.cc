#include "tools/aurora_lint/dataflow.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <utility>

namespace aurora::lint {
namespace {

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------
// Comments and literals are the only places C++ lexing gets subtle; everything
// else the rules need is identifiers and single-character punctuation. Multi-
// character operators are deliberately emitted as single chars: `>>` closing
// two template argument lists then balances naturally, and `->` shows up as
// `-` `>` which the member-access checks account for.

std::vector<Token> Tokenize(const std::string& src) {
  std::vector<Token> out;
  int line = 1;
  bool in_directive = false;
  bool at_line_start = true;  // only whitespace seen since the last newline
  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      // A directive ends at a newline unless escaped with a backslash.
      if (in_directive) {
        size_t j = i;
        while (j > 0 && (src[j - 1] == ' ' || src[j - 1] == '\t')) j--;
        if (j == 0 || src[j - 1] != '\\') in_directive = false;
      }
      line++;
      at_line_start = true;
      i++;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      i++;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') i++;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') line++;
        i++;
      }
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }
    if (c == '#' && at_line_start) {
      in_directive = true;
      out.push_back({Tk::kPunct, "#", line, true});
      at_line_start = false;
      i++;
      continue;
    }
    at_line_start = false;
    // Raw string literal: R"delim( ... )delim"
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      size_t d0 = i + 2;
      size_t dp = d0;
      while (dp < n && src[dp] != '(') dp++;
      std::string close = ")" + src.substr(d0, dp - d0) + "\"";
      size_t end = src.find(close, dp);
      end = (end == std::string::npos) ? n : end + close.size();
      int start_line = line;
      for (size_t j = i; j < end; j++) {
        if (src[j] == '\n') line++;
      }
      out.push_back({Tk::kString, src.substr(i, end - i), start_line, in_directive});
      i = end;
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      size_t start = i++;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) i++;
        if (src[i] == '\n') line++;  // unterminated literal; keep line counts sane
        i++;
      }
      if (i < n) i++;
      out.push_back({quote == '"' ? Tk::kString : Tk::kChar, src.substr(start, i - start), line,
                     in_directive});
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(src[i])) i++;
      out.push_back({Tk::kIdent, src.substr(start, i - start), line, in_directive});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E')))) {
        i++;
      }
      out.push_back({Tk::kNumber, src.substr(start, i - start), line, in_directive});
      continue;
    }
    out.push_back({Tk::kPunct, std::string(1, c), line, in_directive});
    i++;
  }
  return out;
}

bool IsIdent(const Token& t, std::string_view s) { return t.kind == Tk::kIdent && t.text == s; }
bool IsPunct(const Token& t, char c) { return t.kind == Tk::kPunct && t.text[0] == c; }

size_t SkipAngles(const std::vector<Token>& toks, size_t i) {
  size_t depth = 0;
  for (size_t j = i; j < toks.size(); j++) {
    if (IsPunct(toks[j], '<')) depth++;
    if (IsPunct(toks[j], '>')) {
      depth--;
      if (depth == 0) return j + 1;
    }
    if (IsPunct(toks[j], ';') || IsPunct(toks[j], '{')) break;
  }
  return i;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

SuppressionSet CollectSuppressions(const std::string& src) {
  SuppressionSet out;
  std::istringstream in(src);
  std::string text;
  int line = 0;
  while (std::getline(in, text)) {
    line++;
    size_t pos = text.find("aurora-lint: allow(");
    if (pos == std::string::npos) continue;
    size_t open = text.find('(', pos);
    size_t close = text.find(')', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    std::string args = text.substr(open + 1, close - open - 1);
    std::istringstream as(args);
    std::string one;
    while (std::getline(as, one, ',')) {
      size_t b = one.find_first_not_of(" \t");
      size_t e = one.find_last_not_of(" \t");
      if (b != std::string::npos) out.rules[line].insert(one.substr(b, e - b + 1));
    }
    // The reason is whatever follows the ')', after an optional ':' or '-'
    // separator and ignoring a block-comment close. Empty = reasonless.
    std::string tail = text.substr(close + 1);
    size_t star = tail.rfind("*/");
    if (star != std::string::npos) tail = tail.substr(0, star);
    size_t b = tail.find_first_not_of(" \t:-");
    if (b == std::string::npos && out.rules.count(line)) out.reasonless.insert(line);
  }
  return out;
}

bool Suppressed(const SuppressionSet& sup, int line, const std::string& rule) {
  auto it = sup.rules.find(line);
  if (it == sup.rules.end()) return false;
  const auto& s = it->second;
  if (s.count("all") || s.count(rule)) return true;
  size_t slash = rule.find('/');
  return s.count(rule.substr(0, slash)) > 0 ||  // family name
         (slash != std::string::npos && s.count(rule.substr(slash + 1)) > 0);
}

// ---------------------------------------------------------------------------
// Scope classification
// ---------------------------------------------------------------------------

// Classifies the '{' at tokens[brace] using the tokens since the last hard
// boundary (';', '{', '}').
Scope ClassifyBrace(const std::vector<Token>& toks, size_t brace, Scope current) {
  if (current == Scope::kFunction || current == Scope::kOther) return Scope::kOther;
  size_t begin = 0;
  for (size_t j = brace; j > 0; j--) {
    const Token& t = toks[j - 1];
    if (IsPunct(t, ';') || IsPunct(t, '{') || IsPunct(t, '}')) {
      begin = j;
      break;
    }
  }
  bool has_paren = false, has_class = false, has_namespace = false, has_enum = false,
       has_assign = false;
  for (size_t j = begin; j < brace; j++) {
    const Token& t = toks[j];
    if (t.in_directive) continue;
    if (IsPunct(t, '(')) has_paren = true;
    if (IsPunct(t, '=')) has_assign = true;
    if (IsIdent(t, "class") || IsIdent(t, "struct") || IsIdent(t, "union")) has_class = true;
    if (IsIdent(t, "namespace")) has_namespace = true;
    if (IsIdent(t, "enum")) has_enum = true;
  }
  if (has_namespace) return Scope::kNamespace;
  if (has_enum) return Scope::kOther;
  const Token* prev = brace > 0 ? &toks[brace - 1] : nullptr;
  bool function_tail =
      prev != nullptr &&
      (IsPunct(*prev, ')') || IsIdent(*prev, "override") || IsIdent(*prev, "final") ||
       IsIdent(*prev, "const") || IsIdent(*prev, "noexcept") || IsIdent(*prev, "try"));
  // `template <class T> Status Foo(T) {` contains the `class` keyword but is a
  // function definition; the `)`-shaped tail wins.
  if (has_class && !function_tail) return Scope::kClass;
  if (function_tail || has_paren) return Scope::kFunction;
  if (has_assign) return Scope::kOther;
  return Scope::kOther;
}

// ---------------------------------------------------------------------------
// Class registry
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string>& GenFieldNames() {
  static const std::set<std::string> kNames = {"generation_", "generation", "mutation_gen"};
  return kNames;
}

// True when toks[j] names a generation counter being written (the "bump"):
// postfix/prefix ++/--, compound assignment, or plain assignment.
bool IsBumpAt(const std::vector<Token>& toks, size_t j, size_t e) {
  if (toks[j].kind != Tk::kIdent || !GenFieldNames().count(toks[j].text)) return false;
  if (j + 2 < e) {
    char a = toks[j + 1].kind == Tk::kPunct ? toks[j + 1].text[0] : 0;
    char b = toks[j + 2].kind == Tk::kPunct ? toks[j + 2].text[0] : 0;
    if ((a == '+' && b == '+') || (a == '-' && b == '-')) return true;
    if (b == '=' && (a == '+' || a == '-' || a == '|' || a == '^')) return true;
    if (a == '=' && b != '=') return true;
  } else if (j + 1 < e && IsPunct(toks[j + 1], '=')) {
    return true;
  }
  if (j >= 2 && ((IsPunct(toks[j - 1], '+') && IsPunct(toks[j - 2], '+')) ||
                 (IsPunct(toks[j - 1], '-') && IsPunct(toks[j - 2], '-')))) {
    return true;
  }
  return false;
}

// Parses a class head in [b, brace): returns the class name and appends direct
// bases to info. Handles `template <class T> struct X : public B<T> {`.
std::string ParseClassHead(const std::vector<Token>& toks, size_t b, size_t brace,
                           ClassInfo* info) {
  size_t key = brace;  // index of the class/struct/union keyword, at angle depth 0
  int angle = 0;
  for (size_t j = b; j < brace; j++) {
    if (toks[j].in_directive) continue;
    if (IsPunct(toks[j], '<')) angle++;
    if (IsPunct(toks[j], '>') && angle > 0) angle--;
    if (angle == 0 &&
        (IsIdent(toks[j], "class") || IsIdent(toks[j], "struct") || IsIdent(toks[j], "union"))) {
      key = j;
    }
  }
  if (key == brace) return "";
  // Name: first plain identifier after the keyword, skipping attributes.
  size_t j = key + 1;
  std::string name;
  while (j < brace) {
    const Token& t = toks[j];
    if (IsPunct(t, '[') || IsPunct(t, ']') || IsIdent(t, "alignas") || IsIdent(t, "nodiscard") ||
        t.in_directive || t.kind == Tk::kString || IsPunct(t, '(') || IsPunct(t, ')')) {
      j++;
      continue;
    }
    if (t.kind == Tk::kIdent) {
      name = t.text;
      j++;
      break;
    }
    break;
  }
  if (name.empty()) return "";
  // Bases: after optional `final`, a single ':' introduces the base list.
  while (j < brace && IsIdent(toks[j], "final")) j++;
  if (j < brace && IsPunct(toks[j], ':')) {
    j++;
    std::string last;
    while (j < brace) {
      const Token& t = toks[j];
      if (t.kind == Tk::kIdent) {
        if (t.text != "public" && t.text != "private" && t.text != "protected" &&
            t.text != "virtual") {
          last = t.text;  // qualified A::B keeps overwriting; the final ident wins
        }
        j++;
        continue;
      }
      if (IsPunct(t, '<')) {
        size_t after = SkipAngles(toks, j);
        if (after == j) break;
        j = after;
        continue;
      }
      if (IsPunct(t, ',')) {
        if (!last.empty()) info->bases.push_back(last);
        last.clear();
        j++;
        continue;
      }
      j++;  // ':' of '::' and the like
    }
    if (!last.empty()) info->bases.push_back(last);
  }
  return name;
}

// Records one field-declaration statement in [b, e) at class scope.
void CollectFieldStmt(const std::vector<Token>& toks, size_t b, size_t e, ClassInfo* info,
                      const SuppressionSet& sup, const char* gen_rule) {
  bool seen_eq = false;
  for (size_t j = b; j < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive) continue;
    if (t.kind == Tk::kIdent &&
        (t.text == "static" || t.text == "using" || t.text == "typedef" || t.text == "friend" ||
         t.text == "enum" || t.text == "class" || t.text == "struct" || t.text == "union" ||
         t.text == "template" || t.text == "operator" || t.text == "namespace")) {
      return;  // not a data member declaration
    }
    if (IsPunct(t, '=')) seen_eq = true;
    if (IsPunct(t, '(') && !seen_eq) return;  // method declaration
  }
  int angle = 0, paren = 0;
  std::string name, last_ident;
  int name_line = 0, last_line = 0;
  auto commit = [&](size_t) {
    const std::string& f = name.empty() ? last_ident : name;
    int line = name.empty() ? last_line : name_line;
    if (f.empty()) return;
    info->fields.insert(f);
    if (GenFieldNames().count(f)) info->gen_field = f;
    if (Suppressed(sup, line, gen_rule)) info->gen_exempt.insert(f);
  };
  for (size_t j = b; j < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive) continue;
    if (IsPunct(t, '<')) angle++;
    if (IsPunct(t, '>') && angle > 0) angle--;
    if (IsPunct(t, '(')) paren++;
    if (IsPunct(t, ')') && paren > 0) paren--;
    if (angle > 0 || paren > 0) continue;
    if (t.kind == Tk::kIdent && t.text != "const" && t.text != "mutable" &&
        t.text != "volatile") {
      last_ident = t.text;
      last_line = t.line;
      continue;
    }
    if (IsPunct(t, '=') && name.empty()) {
      name = last_ident;
      name_line = last_line;
      continue;
    }
    if (IsPunct(t, ',')) {
      commit(j);
      name.clear();
      last_ident.clear();
      continue;
    }
  }
  commit(e);
}

}  // namespace

void Registry::AddFile(const std::string& contents) {
  std::vector<Token> toks = Tokenize(contents);
  SuppressionSet sup = CollectSuppressions(contents);
  struct Frame {
    Scope scope;
    std::string cls;
  };
  std::vector<Frame> stack;
  auto cur_scope = [&] { return stack.empty() ? Scope::kNamespace : stack.back().scope; };
  size_t stmt_begin = 0;
  for (size_t i = 0; i < toks.size(); i++) {
    const Token& t = toks[i];
    if (IsPunct(t, '{') && !t.in_directive) {
      Scope sc = ClassifyBrace(toks, i, cur_scope());
      std::string cls;
      if (sc == Scope::kClass) {
        ClassInfo head;
        cls = ParseClassHead(toks, stmt_begin, i, &head);
        if (!cls.empty()) {
          ClassInfo& info = classes[cls];
          for (const std::string& base : head.bases) info.bases.push_back(base);
        }
      } else if (sc == Scope::kFunction && cur_scope() == Scope::kClass &&
                 !stack.back().cls.empty()) {
        // Inline method: record it as a bump helper if its body directly
        // writes a generation counter (so calls to it count as bumps).
        std::string name;
        for (size_t j = stmt_begin; j + 1 < i; j++) {
          if (toks[j].kind == Tk::kIdent && IsPunct(toks[j + 1], '(')) {
            name = toks[j].text;
            break;
          }
        }
        size_t depth = 1;
        size_t close = i + 1;
        for (; close < toks.size() && depth > 0; close++) {
          if (toks[close].in_directive) continue;
          if (IsPunct(toks[close], '{')) depth++;
          if (IsPunct(toks[close], '}')) depth--;
        }
        if (!name.empty()) {
          for (size_t j = i + 1; j + 1 < close; j++) {
            if (IsBumpAt(toks, j, close)) {
              classes[stack.back().cls].bump_methods.insert(name);
              break;
            }
          }
        }
      } else if (cur_scope() == Scope::kClass && !stack.back().cls.empty() &&
                 sc == Scope::kOther) {
        // `std::vector<int> v{};` — brace-init of a field; commit the prefix.
        CollectFieldStmt(toks, stmt_begin, i, &classes[stack.back().cls], sup,
                         kRuleGenMissedBump);
      }
      stack.push_back({sc, cls});
      stmt_begin = i + 1;
      continue;
    }
    if (IsPunct(t, '}') && !t.in_directive) {
      if (!stack.empty()) stack.pop_back();
      stmt_begin = i + 1;
      continue;
    }
    if (IsPunct(t, ';') && !t.in_directive) {
      if (cur_scope() == Scope::kClass && !stack.empty() && !stack.back().cls.empty()) {
        CollectFieldStmt(toks, stmt_begin, i, &classes[stack.back().cls], sup,
                         kRuleGenMissedBump);
      }
      stmt_begin = i + 1;
      continue;
    }
    if (IsPunct(t, ':') && !t.in_directive && i > 0 &&
        (IsIdent(toks[i - 1], "public") || IsIdent(toks[i - 1], "private") ||
         IsIdent(toks[i - 1], "protected"))) {
      stmt_begin = i + 1;  // access specifiers do not start a declaration
      continue;
    }
  }
  // Result-returning function names: `Result<...> [Cls::]name(` anywhere.
  for (size_t i = 0; i + 1 < toks.size(); i++) {
    if (!IsIdent(toks[i], "Result") || !IsPunct(toks[i + 1], '<')) continue;
    size_t after = SkipAngles(toks, i + 1);
    if (after == i + 1) continue;
    size_t j = after;
    std::string name;
    while (j < toks.size() && toks[j].kind == Tk::kIdent) {
      name = toks[j].text;
      if (j + 2 < toks.size() && IsPunct(toks[j + 1], ':') && IsPunct(toks[j + 2], ':')) {
        j += 3;
        continue;
      }
      j++;
      break;
    }
    if (!name.empty() && name != "operator" && j < toks.size() && IsPunct(toks[j], '(')) {
      result_functions.insert(name);
    }
  }
}

namespace {

template <typename Fn>
void WalkClassAndBases(const std::map<std::string, ClassInfo>& classes, const std::string& cls,
                       std::set<std::string>* visited, Fn&& fn) {
  if (cls.empty() || !visited->insert(cls).second) return;
  auto it = classes.find(cls);
  if (it == classes.end()) return;
  fn(it->second);
  for (const std::string& base : it->second.bases) {
    WalkClassAndBases(classes, base, visited, fn);
  }
}

}  // namespace

bool Registry::IsGenClass(const std::string& cls) const {
  std::set<std::string> visited;
  bool gen = false;
  WalkClassAndBases(classes, cls, &visited, [&](const ClassInfo& info) {
    if (!info.gen_field.empty()) gen = true;
  });
  return gen;
}

std::set<std::string> Registry::AllFields(const std::string& cls) const {
  std::set<std::string> visited, out;
  WalkClassAndBases(classes, cls, &visited, [&](const ClassInfo& info) {
    out.insert(info.fields.begin(), info.fields.end());
  });
  return out;
}

std::set<std::string> Registry::AllGenExempt(const std::string& cls) const {
  std::set<std::string> visited, out;
  WalkClassAndBases(classes, cls, &visited, [&](const ClassInfo& info) {
    out.insert(info.gen_exempt.begin(), info.gen_exempt.end());
  });
  return out;
}

std::set<std::string> Registry::AllGenFields(const std::string& cls) const {
  std::set<std::string> visited, out;
  WalkClassAndBases(classes, cls, &visited, [&](const ClassInfo& info) {
    if (!info.gen_field.empty()) out.insert(info.gen_field);
  });
  return out;
}

std::set<std::string> Registry::AllBumpMethods(const std::string& cls) const {
  std::set<std::string> visited, out;
  WalkClassAndBases(classes, cls, &visited, [&](const ClassInfo& info) {
    out.insert(info.bump_methods.begin(), info.bump_methods.end());
  });
  return out;
}

// ---------------------------------------------------------------------------
// Function extraction
// ---------------------------------------------------------------------------

namespace {

// Parses the declaration tokens [b, brace) of a function definition.
FunctionDef ParseFunctionHead(const std::vector<Token>& toks, size_t b, size_t brace,
                              const std::string& enclosing_cls) {
  FunctionDef fd;
  fd.cls = enclosing_cls;
  // First '(' at angle depth 0 opens the parameter list.
  int angle = 0;
  size_t open = brace;
  for (size_t j = b; j < brace; j++) {
    if (toks[j].in_directive) continue;
    if (IsPunct(toks[j], '<')) angle++;
    if (IsPunct(toks[j], '>') && angle > 0) angle--;
    if (angle == 0 && IsPunct(toks[j], '(')) {
      open = j;
      break;
    }
  }
  if (open == brace || open == b) return fd;
  size_t name_tok = open - 1;
  if (toks[name_tok].kind == Tk::kIdent) {
    fd.name = toks[name_tok].text;
  } else {
    // `operator=` / `operator()` and friends: punctuation between the
    // keyword and the parameter list.
    for (size_t j = name_tok; j > b; j--) {
      if (IsIdent(toks[j - 1], "operator")) {
        fd.name = "operator";
        name_tok = j - 1;
        break;
      }
      if (toks[j - 1].kind == Tk::kIdent) break;
    }
    if (fd.name.empty()) return fd;
  }
  // `Cls::Name(` out-of-line qualifier overrides the enclosing class.
  if (name_tok >= 3 && IsPunct(toks[name_tok - 1], ':') && IsPunct(toks[name_tok - 2], ':') &&
      toks[name_tok - 3].kind == Tk::kIdent) {
    fd.cls = toks[name_tok - 3].text;
  }
  if (fd.name == fd.cls && !fd.cls.empty()) fd.is_ctor_or_dtor = true;
  if (name_tok > b && IsPunct(toks[name_tok - 1], '~')) fd.is_ctor_or_dtor = true;
  // Trailing const: between the parameter-list ')' and the body, stopping at
  // the ':' that opens a constructor initializer list.
  int paren = 0;
  size_t close = brace;
  for (size_t j = open; j < brace; j++) {
    if (toks[j].in_directive) continue;
    if (IsPunct(toks[j], '(')) paren++;
    if (IsPunct(toks[j], ')')) {
      paren--;
      if (paren == 0) {
        close = j;
        break;
      }
    }
  }
  for (size_t j = close + 1; j < brace; j++) {
    if (toks[j].in_directive) continue;
    if (IsPunct(toks[j], ':')) break;
    if (IsIdent(toks[j], "const")) {
      fd.is_const = true;
      break;
    }
  }
  return fd;
}

}  // namespace

std::vector<FunctionDef> ExtractFunctions(const std::vector<Token>& toks) {
  std::vector<FunctionDef> out;
  struct Frame {
    Scope scope;
    std::string cls;
  };
  std::vector<Frame> stack;
  size_t stmt_begin = 0;
  for (size_t i = 0; i < toks.size(); i++) {
    const Token& t = toks[i];
    if (IsPunct(t, '{') && !t.in_directive) {
      Scope cur = stack.empty() ? Scope::kNamespace : stack.back().scope;
      Scope sc = ClassifyBrace(toks, i, cur);
      std::string cls;
      if (sc == Scope::kClass) {
        ClassInfo head;
        cls = ParseClassHead(toks, stmt_begin, i, &head);
      }
      if (sc == Scope::kFunction && (cur == Scope::kNamespace || cur == Scope::kClass)) {
        FunctionDef fd = ParseFunctionHead(toks, stmt_begin, i,
                                           cur == Scope::kClass ? stack.back().cls : "");
        if (!fd.name.empty()) {
          size_t depth = 1;
          size_t j = i + 1;
          for (; j < toks.size(); j++) {
            if (toks[j].in_directive) continue;
            if (IsPunct(toks[j], '{')) depth++;
            if (IsPunct(toks[j], '}')) {
              depth--;
              if (depth == 0) break;
            }
          }
          fd.line = t.line;
          fd.body_begin = i + 1;
          fd.body_end = j < toks.size() ? j : toks.size();
          out.push_back(std::move(fd));
        }
      }
      stack.push_back({sc, cls});
      stmt_begin = i + 1;
      continue;
    }
    if (IsPunct(t, '}') && !t.in_directive) {
      if (!stack.empty()) stack.pop_back();
      stmt_begin = i + 1;
      continue;
    }
    if (IsPunct(t, ';') && !t.in_directive) {
      stmt_begin = i + 1;
      continue;
    }
    if (IsPunct(t, ':') && !t.in_directive && i > 0 &&
        (IsIdent(toks[i - 1], "public") || IsIdent(toks[i - 1], "private") ||
         IsIdent(toks[i - 1], "protected"))) {
      stmt_begin = i + 1;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statement tree
// ---------------------------------------------------------------------------

namespace {

// Index of the '}' matching the '{' at `open`, or `end` if unbalanced.
size_t MatchBrace(const std::vector<Token>& toks, size_t open, size_t end) {
  size_t depth = 0;
  for (size_t j = open; j < end; j++) {
    if (toks[j].in_directive) continue;
    if (IsPunct(toks[j], '{')) depth++;
    if (IsPunct(toks[j], '}')) {
      depth--;
      if (depth == 0) return j;
    }
  }
  return end;
}

// Index of the ')' matching the '(' at `open`, or `end` if unbalanced.
size_t MatchParen(const std::vector<Token>& toks, size_t open, size_t end) {
  size_t depth = 0;
  for (size_t j = open; j < end; j++) {
    if (toks[j].in_directive) continue;
    if (IsPunct(toks[j], '(')) depth++;
    if (IsPunct(toks[j], ')')) {
      depth--;
      if (depth == 0) return j;
    }
  }
  return end;
}

// Scans forward from `i` to the ';' that ends a simple statement, balancing
// parens/braces/brackets (lambdas and brace-inits ride inside). Returns the
// index of the ';' (or `end`).
size_t FindStmtEnd(const std::vector<Token>& toks, size_t i, size_t end) {
  int paren = 0, brace = 0, brack = 0;
  for (size_t j = i; j < end; j++) {
    const Token& t = toks[j];
    if (t.in_directive) continue;
    if (IsPunct(t, '(')) paren++;
    if (IsPunct(t, ')')) paren--;
    if (IsPunct(t, '{')) brace++;
    if (IsPunct(t, '}')) brace--;
    if (IsPunct(t, '[')) brack++;
    if (IsPunct(t, ']')) brack--;
    if (brace < 0) return j;  // ran past the enclosing block; treat as end
    if (IsPunct(t, ';') && paren <= 0 && brace <= 0 && brack <= 0) return j;
  }
  return end;
}

// Parses exactly one statement starting at `i`, appends it to `out`, and
// returns the index one past it.
size_t ParseOneStmt(const std::vector<Token>& toks, size_t i, size_t end,
                    std::vector<Stmt>* out) {
  while (i < end && (toks[i].in_directive || IsPunct(toks[i], ';'))) i++;
  if (i >= end) return i;
  const Token& t = toks[i];
  if (IsPunct(t, '{')) {
    size_t close = MatchBrace(toks, i, end);
    Stmt s;
    s.kind = Stmt::Kind::kBlock;
    s.line = t.line;
    s.body = ParseStatements(toks, i + 1, close);
    out->push_back(std::move(s));
    return close + 1;
  }
  if (IsIdent(t, "if")) {
    size_t j = i + 1;
    if (j < end && IsIdent(toks[j], "constexpr")) j++;
    if (j >= end || !IsPunct(toks[j], '(')) return FindStmtEnd(toks, i, end) + 1;
    size_t close = MatchParen(toks, j, end);
    Stmt s;
    s.kind = Stmt::Kind::kIf;
    s.line = t.line;
    s.begin = j + 1;
    s.end = close;
    size_t next = ParseOneStmt(toks, close + 1, end, &s.body);
    if (next < end && IsIdent(toks[next], "else")) {
      next = ParseOneStmt(toks, next + 1, end, &s.else_body);
    }
    out->push_back(std::move(s));
    return next;
  }
  if (IsIdent(t, "for") || IsIdent(t, "while")) {
    size_t j = i + 1;
    if (j >= end || !IsPunct(toks[j], '(')) return FindStmtEnd(toks, i, end) + 1;
    size_t close = MatchParen(toks, j, end);
    Stmt s;
    s.kind = Stmt::Kind::kLoop;
    s.line = t.line;
    s.begin = j + 1;
    s.end = close;
    size_t next = ParseOneStmt(toks, close + 1, end, &s.body);
    out->push_back(std::move(s));
    return next;
  }
  if (IsIdent(t, "do")) {
    Stmt s;
    s.kind = Stmt::Kind::kLoop;
    s.line = t.line;
    size_t next = ParseOneStmt(toks, i + 1, end, &s.body);
    if (next < end && IsIdent(toks[next], "while") && next + 1 < end &&
        IsPunct(toks[next + 1], '(')) {
      size_t close = MatchParen(toks, next + 1, end);
      s.begin = next + 2;
      s.end = close;
      next = close + 1;
      if (next < end && IsPunct(toks[next], ';')) next++;
    } else {
      s.begin = s.end = i + 1;  // malformed; empty condition
    }
    out->push_back(std::move(s));
    return next;
  }
  if (IsIdent(t, "switch")) {
    size_t j = i + 1;
    if (j >= end || !IsPunct(toks[j], '(')) return FindStmtEnd(toks, i, end) + 1;
    size_t close = MatchParen(toks, j, end);
    Stmt s;
    s.kind = Stmt::Kind::kSwitch;
    s.line = t.line;
    s.begin = j + 1;
    s.end = close;
    size_t next = ParseOneStmt(toks, close + 1, end, &s.body);
    out->push_back(std::move(s));
    return next;
  }
  if (IsIdent(t, "case") || IsIdent(t, "default")) {
    size_t j = i + 1;
    while (j < end && !IsPunct(toks[j], ':')) j++;
    return j + 1;
  }
  if (IsIdent(t, "else")) return i + 1;  // orphan; defensive
  if (IsIdent(t, "return") || IsIdent(t, "break") || IsIdent(t, "continue")) {
    size_t semi = FindStmtEnd(toks, i, end);
    Stmt s;
    s.kind = IsIdent(t, "return")   ? Stmt::Kind::kReturn
             : IsIdent(t, "break")  ? Stmt::Kind::kBreak
                                    : Stmt::Kind::kContinue;
    s.line = t.line;
    s.begin = i + 1;
    s.end = semi;
    out->push_back(std::move(s));
    return semi + 1;
  }
  size_t semi = FindStmtEnd(toks, i, end);
  Stmt s;
  s.kind = Stmt::Kind::kSimple;
  s.line = t.line;
  s.begin = i;
  s.end = semi;
  out->push_back(std::move(s));
  return semi + 1;
}

}  // namespace

std::vector<Stmt> ParseStatements(const std::vector<Token>& toks, size_t begin, size_t end) {
  std::vector<Stmt> out;
  size_t i = begin;
  while (i < end) {
    if (toks[i].in_directive || IsPunct(toks[i], ';') || IsPunct(toks[i], '}')) {
      i++;
      continue;
    }
    size_t next = ParseOneStmt(toks, i, end, &out);
    i = next > i ? next : i + 1;  // always make progress
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule family: typestate
// ---------------------------------------------------------------------------

namespace {

// Collects every executable token range of a statement tree (conditions and
// simple statements), so a scan sees exactly the reachable expression tokens.
void CollectRanges(const std::vector<Stmt>& stmts,
                   std::vector<std::pair<size_t, size_t>>* out) {
  for (const Stmt& s : stmts) {
    switch (s.kind) {
      case Stmt::Kind::kSimple:
      case Stmt::Kind::kReturn:
        out->emplace_back(s.begin, s.end);
        break;
      case Stmt::Kind::kIf:
      case Stmt::Kind::kLoop:
      case Stmt::Kind::kSwitch:
        out->emplace_back(s.begin, s.end);
        CollectRanges(s.body, out);
        CollectRanges(s.else_body, out);
        break;
      case Stmt::Kind::kBlock:
        CollectRanges(s.body, out);
        break;
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
        break;
    }
  }
}

// True when the punct token at j+1.. starts a mutation of the member at j:
// `=` (not `==`), `++`/`--` (split into two punct tokens), or a compound
// assignment.
bool WritesThroughNext(const std::vector<Token>& toks, size_t j, size_t e) {
  if (j + 1 >= e || toks[j + 1].kind != Tk::kPunct) return false;
  char a = toks[j + 1].text[0];
  char b = (j + 2 < e && toks[j + 2].kind == Tk::kPunct) ? toks[j + 2].text[0] : 0;
  if (a == '=' && b != '=') return true;
  if ((a == '+' && b == '+') || (a == '-' && b == '-')) return true;
  if (b == '=' && (a == '+' || a == '-' || a == '|' || a == '&' || a == '^' || a == '*' ||
                   a == '/' || a == '%')) {
    return true;
  }
  return false;
}

}  // namespace

void CheckTypestate(const std::string& path, const std::vector<Token>& toks,
                    const std::vector<FunctionDef>& funcs, const Options& opts,
                    std::vector<Finding>* out) {
  bool in_scope = false;
  for (const std::string& p : opts.typestate_paths) {
    if (path.find(p) != std::string::npos) in_scope = true;
  }
  if (!in_scope) return;
  static const std::set<std::string> kSanctioned = {"SegTransition", "DedupAddRef",
                                                    "DedupDropRef"};
  for (const FunctionDef& f : funcs) {
    if (kSanctioned.count(f.name)) continue;
    std::vector<Stmt> stmts = ParseStatements(toks, f.body_begin, f.body_end);
    std::vector<std::pair<size_t, size_t>> ranges;
    CollectRanges(stmts, &ranges);
    for (const auto& [b, e] : ranges) {
      for (size_t j = b; j < e; j++) {
        const Token& t = toks[j];
        if (t.in_directive || t.kind != Tk::kIdent) continue;
        bool member = j > b && (IsPunct(toks[j - 1], '.') || IsPunct(toks[j - 1], '>'));
        if (t.text == "state" && member && WritesThroughNext(toks, j, e)) {
          out->push_back({path, t.line, kRuleTypestateSegment,
                          "direct segment-state write outside the sanctioned transition "
                          "API; route through SegTransition()"});
        }
        if (t.text == "refs" && member && WritesThroughNext(toks, j, e)) {
          out->push_back({path, t.line, kRuleTypestateDedup,
                          "direct dedup-refcount write outside the sanctioned API; route "
                          "through DedupAddRef()/DedupDropRef()"});
        }
        if (t.text == "Segment" && j > b && IsPunct(toks[j - 1], '=') &&
            !(j >= 2 && IsPunct(toks[j - 2], '=')) && j + 1 < e && IsPunct(toks[j + 1], '{')) {
          out->push_back({path, t.line, kRuleTypestateSegment,
                          "whole-Segment overwrite bypasses the lifecycle graph; route "
                          "through SegTransition()"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule family: gen (serialize-cache generation discipline)
// ---------------------------------------------------------------------------

namespace {

// Path state for the generation analysis. The domain is deliberately
// order-insensitive: one bump anywhere on a path absolves every member write
// on that path (the serialize cache only compares the final counter), which
// keeps the merge linear instead of exponential in branch count.
struct GenState {
  bool live = true;
  bool bumped = false;                       // every live path has bumped
  std::map<int, std::string> writes;         // line -> field, on unbumped paths

  void Bump() {
    bumped = true;
    writes.clear();
  }
  void Write(int line, const std::string& field) {
    if (!bumped) writes.emplace(line, field);
  }
  static GenState Merge(const GenState& a, const GenState& b) {
    if (!a.live) return b;
    if (!b.live) return a;
    GenState m;
    m.bumped = a.bumped && b.bumped;
    m.writes = a.writes;
    m.writes.insert(b.writes.begin(), b.writes.end());
    return m;
  }
};

struct GenCtx {
  const std::vector<Token>* toks;
  std::set<std::string> fields;
  std::set<std::string> exempt;
  std::set<std::string> gens;
  std::set<std::string> bumps;
};

// Mutating container calls: `field_.push_back(x)` is a member write.
const std::set<std::string>& MutatingCalls() {
  static const std::set<std::string> kCalls = {
      "push_back", "pop_back", "push", "pop",  "insert",  "erase",        "clear",
      "resize",    "assign",   "swap", "emplace", "emplace_back", "append",
      "push_front", "pop_front"};
  return kCalls;
}

// Transfer one expression token range through the gen state.
void GenTransferRange(const GenCtx& ctx, size_t b, size_t e, GenState* st) {
  const std::vector<Token>& toks = *ctx.toks;
  bool bump_seen = false;
  std::vector<std::pair<int, std::string>> writes;
  for (size_t j = b; j < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive || t.kind != Tk::kIdent) continue;
    // Qualification: `obj.field` / `obj->field` targets another object and is
    // out of scope (documented imprecision); `this->field` is our own.
    bool qualified = false;
    if (j > b && (IsPunct(toks[j - 1], '.') || IsPunct(toks[j - 1], '>') ||
                  IsPunct(toks[j - 1], ':'))) {
      qualified = true;
      if (IsPunct(toks[j - 1], '>') && j >= 3 && IsPunct(toks[j - 2], '-') &&
          IsIdent(toks[j - 3], "this")) {
        qualified = false;
      }
      if (IsPunct(toks[j - 1], '.') && j >= 2 && IsIdent(toks[j - 2], "this")) {
        qualified = false;
      }
    }
    if (qualified) continue;
    // A bump: writing the generation counter, or calling a bump helper.
    if (ctx.gens.count(t.text) && IsBumpAt(toks, j, e)) {
      bump_seen = true;
      continue;
    }
    if (ctx.bumps.count(t.text) && j + 1 < e && IsPunct(toks[j + 1], '(')) {
      bump_seen = true;
      continue;
    }
    if (!ctx.fields.count(t.text) || ctx.exempt.count(t.text) || ctx.gens.count(t.text)) {
      continue;
    }
    // Follow the member chain: field_.a.b[i] / field_->a — the terminal token
    // decides whether this is a write.
    size_t k = j;
    std::string terminal = t.text;
    while (k + 1 < e) {
      if (IsPunct(toks[k + 1], '.') && k + 2 < e && toks[k + 2].kind == Tk::kIdent) {
        k += 2;
        terminal = toks[k].text;
        continue;
      }
      if (IsPunct(toks[k + 1], '-') && k + 2 < e && IsPunct(toks[k + 2], '>') && k + 3 < e &&
          toks[k + 3].kind == Tk::kIdent) {
        k += 3;
        terminal = toks[k].text;
        continue;
      }
      if (IsPunct(toks[k + 1], '[')) {
        int depth = 0;
        size_t m = k + 1;
        for (; m < e; m++) {
          if (IsPunct(toks[m], '[')) depth++;
          if (IsPunct(toks[m], ']')) {
            depth--;
            if (depth == 0) break;
          }
        }
        if (m >= e) break;
        k = m;
        terminal = "";
        continue;
      }
      break;
    }
    bool write = WritesThroughNext(toks, k, e);
    if (!write && k + 1 < e && IsPunct(toks[k + 1], '(') && MutatingCalls().count(terminal)) {
      write = true;
    }
    if (!write && j >= 2 && ((IsPunct(toks[j - 1], '+') && IsPunct(toks[j - 2], '+')) ||
                             (IsPunct(toks[j - 1], '-') && IsPunct(toks[j - 2], '-')))) {
      write = true;  // prefix ++field_
    }
    if (write) writes.emplace_back(t.line, t.text);
  }
  for (const auto& [line, field] : writes) st->Write(line, field);
  if (bump_seen) st->Bump();
}

void GenReportExits(const GenState& st, const std::string& path, const std::string& fn,
                    std::vector<Finding>* out) {
  if (!st.live) return;
  for (const auto& [line, field] : st.writes) {
    out->push_back({path, line, kRuleGenMissedBump,
                    "member '" + field + "' written in '" + fn +
                        "' on a path that never bumps the serialize-cache generation"});
  }
}

GenState GenWalk(const GenCtx& ctx, const std::vector<Stmt>& stmts, GenState st,
                 const std::string& path, const std::string& fn, std::vector<Finding>* out,
                 std::vector<GenState>* break_pool);

GenState GenWalkOne(const GenCtx& ctx, const Stmt& s, GenState st, const std::string& path,
                    const std::string& fn, std::vector<Finding>* out,
                    std::vector<GenState>* break_pool) {
  if (!st.live) return st;
  switch (s.kind) {
    case Stmt::Kind::kSimple:
      GenTransferRange(ctx, s.begin, s.end, &st);
      return st;
    case Stmt::Kind::kReturn:
      GenTransferRange(ctx, s.begin, s.end, &st);
      GenReportExits(st, path, fn, out);
      st.live = false;
      return st;
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kContinue:
      if (break_pool != nullptr) break_pool->push_back(st);
      st.live = false;
      return st;
    case Stmt::Kind::kBlock:
      return GenWalk(ctx, s.body, st, path, fn, out, break_pool);
    case Stmt::Kind::kIf: {
      GenTransferRange(ctx, s.begin, s.end, &st);
      GenState then_st = GenWalk(ctx, s.body, st, path, fn, out, break_pool);
      GenState else_st = GenWalk(ctx, s.else_body, st, path, fn, out, break_pool);
      return GenState::Merge(then_st, else_st);
    }
    case Stmt::Kind::kLoop:
    case Stmt::Kind::kSwitch: {
      GenTransferRange(ctx, s.begin, s.end, &st);
      std::vector<GenState> pool;
      GenState body_end = GenWalk(ctx, s.body, st, path, fn, out, &pool);
      // The body may not run (loop) or may fall through (switch): merge the
      // entry state, the body-end state, and every break/continue state.
      GenState m = GenState::Merge(st, body_end);
      for (const GenState& p : pool) m = GenState::Merge(m, p);
      return m;
    }
  }
  return st;
}

GenState GenWalk(const GenCtx& ctx, const std::vector<Stmt>& stmts, GenState st,
                 const std::string& path, const std::string& fn, std::vector<Finding>* out,
                 std::vector<GenState>* break_pool) {
  for (const Stmt& s : stmts) {
    st = GenWalkOne(ctx, s, st, path, fn, out, break_pool);
    if (!st.live) break;
  }
  return st;
}

}  // namespace

void CheckGeneration(const std::string& path, const std::vector<Token>& toks,
                     const std::vector<FunctionDef>& funcs, const Registry& reg,
                     std::vector<Finding>* out) {
  for (const FunctionDef& f : funcs) {
    if (f.cls.empty() || f.is_const || f.is_ctor_or_dtor || f.name == "operator") continue;
    if (!reg.IsGenClass(f.cls)) continue;
    GenCtx ctx;
    ctx.toks = &toks;
    ctx.fields = reg.AllFields(f.cls);
    ctx.exempt = reg.AllGenExempt(f.cls);
    ctx.gens = reg.AllGenFields(f.cls);
    ctx.bumps = reg.AllBumpMethods(f.cls);
    std::vector<Stmt> stmts = ParseStatements(toks, f.body_begin, f.body_end);
    // Several exit paths can carry the same unbumped write; report each
    // (line, field) once per function.
    std::vector<Finding> raw;
    GenState end = GenWalk(ctx, stmts, GenState{}, path, f.name, &raw, nullptr);
    GenReportExits(end, path, f.name, &raw);
    std::set<std::pair<int, std::string>> seen;
    for (Finding& fi : raw) {
      if (seen.insert({fi.line, fi.message}).second) out->push_back(std::move(fi));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule family: result (flow-sensitive unchecked Result<T> access)
// ---------------------------------------------------------------------------

namespace {

enum class RFact { kUnchecked, kOk, kBad };

struct RState {
  bool live = true;
  std::map<std::string, RFact> facts;  // tracked Result vars only

  static RState Merge(const RState& a, const RState& b) {
    if (!a.live) return b;
    if (!b.live) return a;
    RState m;
    for (const auto& [v, fa] : a.facts) {
      auto it = b.facts.find(v);
      if (it == b.facts.end()) continue;  // out of scope on one side
      m.facts[v] = (fa == it->second) ? fa : RFact::kUnchecked;
    }
    return m;
  }
};

struct RCtx {
  const std::vector<Token>* toks;
  const Registry* reg;
  const std::string* path;
  std::vector<Finding>* out;
};

// True when toks[j] is a standalone mention of a variable (not a member of
// some other object, not a qualified name).
bool Standalone(const std::vector<Token>& toks, size_t j, size_t b) {
  if (j <= b) return true;
  const Token& p = toks[j - 1];
  return !(IsPunct(p, '.') || IsPunct(p, '>') || IsPunct(p, ':'));
}

// Marks every `v.ok()` / `v.status()` mention in [b, e) as checked.
void RMarkChecks(const RCtx& ctx, size_t b, size_t e, RState* st) {
  const std::vector<Token>& toks = *ctx.toks;
  for (size_t j = b; j + 3 < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive || t.kind != Tk::kIdent || !st->facts.count(t.text)) continue;
    if (!Standalone(toks, j, b)) continue;
    if (IsPunct(toks[j + 1], '.') &&
        (IsIdent(toks[j + 2], "ok") || IsIdent(toks[j + 2], "status")) &&
        IsPunct(toks[j + 3], '(')) {
      st->facts[t.text] = RFact::kOk;
    }
  }
}

// Reports value accesses (`v.value()`, `v->`, `*v`) in [b, e) on vars whose
// fact is not kOk.
void RCheckAccesses(const RCtx& ctx, size_t b, size_t e, const RState& st) {
  const std::vector<Token>& toks = *ctx.toks;
  for (size_t j = b; j < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive || t.kind != Tk::kIdent) continue;
    auto it = st.facts.find(t.text);
    if (it == st.facts.end() || it->second == RFact::kOk) continue;
    if (!Standalone(toks, j, b)) continue;
    bool access = false;
    if (j + 3 < e && IsPunct(toks[j + 1], '.') && IsIdent(toks[j + 2], "value") &&
        IsPunct(toks[j + 3], '(')) {
      access = true;
    }
    if (j + 2 < e && IsPunct(toks[j + 1], '-') && IsPunct(toks[j + 2], '>')) access = true;
    if (j > b && IsPunct(toks[j - 1], '*')) {
      bool deref = true;
      if (j >= 2) {
        const Token& pp = toks[j - 2];
        if (pp.kind == Tk::kIdent || pp.kind == Tk::kNumber || IsPunct(pp, ')') ||
            IsPunct(pp, ']')) {
          deref = false;  // multiplication
        }
      }
      if (deref) access = true;
    }
    if (access) {
      ctx.out->push_back({*ctx.path, t.line, kRuleUncheckedValue,
                          "Result '" + t.text + "' accessed on a path where ok() was not "
                          "checked"});
    }
  }
}

// Tracks new declarations and resets reassigned vars in [b, e).
void RTrackDecls(const RCtx& ctx, size_t b, size_t e, RState* st) {
  const std::vector<Token>& toks = *ctx.toks;
  std::set<std::string> declared_here;
  for (size_t j = b; j < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive) continue;
    // `Result<T> v` declaration (not a function declaration `Result<T> f(`).
    if (IsIdent(t, "Result") && j + 1 < e && IsPunct(toks[j + 1], '<') && Standalone(toks, j, b)) {
      size_t after = SkipAngles(toks, j + 1);
      if (after > j + 1 && after < e && toks[after].kind == Tk::kIdent &&
          !(after + 1 < e && IsPunct(toks[after + 1], '('))) {
        st->facts[toks[after].text] = RFact::kUnchecked;
        declared_here.insert(toks[after].text);
      }
      continue;
    }
    // `auto v = f(...)` where f is known to return Result and the call is the
    // entire right-hand side.
    if (IsIdent(t, "auto") && Standalone(toks, j, b)) {
      size_t k = j + 1;
      while (k < e && (IsPunct(toks[k], '&') || IsPunct(toks[k], '*') ||
                       IsIdent(toks[k], "const"))) {
        k++;
      }
      if (k + 1 >= e || toks[k].kind != Tk::kIdent || !IsPunct(toks[k + 1], '=')) continue;
      std::string var = toks[k].text;
      std::string callee;
      size_t m = k + 2;
      bool simple = true;
      for (; m < e; m++) {
        const Token& u = toks[m];
        if (u.in_directive) continue;
        if (u.kind == Tk::kIdent) {
          callee = u.text;
          continue;
        }
        if (IsPunct(u, '(')) break;
        if (IsPunct(u, '.') || IsPunct(u, '-') || IsPunct(u, '>') || IsPunct(u, ':')) continue;
        simple = false;
        break;
      }
      if (!simple || m >= e || callee.empty()) continue;
      size_t close = MatchParen(toks, m, e);
      size_t tail = close + 1;
      while (tail < e && toks[tail].in_directive) tail++;
      if (tail < e && !IsPunct(toks[tail], ';')) continue;  // call is not the whole RHS
      if (ctx.reg->result_functions.count(callee)) {
        st->facts[var] = RFact::kUnchecked;
        declared_here.insert(var);
      }
      continue;
    }
    // Reassignment of a tracked var resets its fact.
    if (t.kind == Tk::kIdent && st->facts.count(t.text) && !declared_here.count(t.text) &&
        Standalone(toks, j, b) && j + 1 < e && IsPunct(toks[j + 1], '=') &&
        !(j + 2 < e && IsPunct(toks[j + 2], '=')) &&
        !(j > b && (IsPunct(toks[j - 1], '<') || IsPunct(toks[j - 1], '>') ||
                    IsPunct(toks[j - 1], '!') || IsPunct(toks[j - 1], '=')))) {
      st->facts[t.text] = RFact::kUnchecked;
    }
  }
}

// One full statement transfer: mark checks, report accesses, then process
// declarations/assignments.
void RTransfer(const RCtx& ctx, size_t b, size_t e, RState* st) {
  RMarkChecks(ctx, b, e, st);
  RCheckAccesses(ctx, b, e, *st);
  RTrackDecls(ctx, b, e, st);
}

// Noreturn-shaped statements end the path (gtest FAIL(), abort(), ...).
bool RIsTerminator(const std::vector<Token>& toks, size_t b, size_t e) {
  static const std::set<std::string> kNoReturn = {"FAIL", "GTEST_FAIL", "abort", "exit",
                                                  "_exit", "__builtin_trap",
                                                  "__builtin_unreachable"};
  size_t j = b;
  while (j < e && toks[j].in_directive) j++;
  if (j >= e || toks[j].kind != Tk::kIdent) return false;
  if (IsIdent(toks[j], "std") && j + 2 < e && IsPunct(toks[j + 1], ':') &&
      IsPunct(toks[j + 2], ':')) {
    j += 3;
  }
  return j < e && toks[j].kind == Tk::kIdent && kNoReturn.count(toks[j].text) > 0 &&
         j + 1 < e && IsPunct(toks[j + 1], '(');
}

struct Refinement {
  std::map<std::string, RFact> true_facts, false_facts;
};

// Splits [b, e) at top-level ';' tokens (for if/for initializers).
std::vector<std::pair<size_t, size_t>> SplitTopSemis(const std::vector<Token>& toks, size_t b,
                                                     size_t e) {
  std::vector<std::pair<size_t, size_t>> parts;
  int paren = 0, brace = 0, brack = 0;
  size_t start = b;
  for (size_t j = b; j < e; j++) {
    const Token& t = toks[j];
    if (t.in_directive) continue;
    if (IsPunct(t, '(')) paren++;
    if (IsPunct(t, ')')) paren--;
    if (IsPunct(t, '{')) brace++;
    if (IsPunct(t, '}')) brace--;
    if (IsPunct(t, '[')) brack++;
    if (IsPunct(t, ']')) brack--;
    if (IsPunct(t, ';') && paren == 0 && brace == 0 && brack == 0) {
      parts.emplace_back(start, j);
      start = j + 1;
    }
  }
  parts.emplace_back(start, e);
  return parts;
}

// Condition refinement: recursively split on top-level || then &&; atoms of
// the shape `v.ok()`, `!E`, a bare tracked var, a parenthesized condition, or
// a declaration-with-initializer contribute branch facts.
Refinement AnalyzeCond(const RCtx& ctx, size_t b, size_t e, const RState& st) {
  const std::vector<Token>& toks = *ctx.toks;
  Refinement r;
  while (b < e && toks[b].in_directive) b++;
  while (e > b && toks[e - 1].in_directive) e--;
  if (b >= e) return r;
  // Strip an outer paren that spans the whole range.
  if (IsPunct(toks[b], '(') && MatchParen(toks, b, e) == e - 1) {
    return AnalyzeCond(ctx, b + 1, e - 1, st);
  }
  // Top-level || / && (tokenized as two single-char puncts).
  int paren = 0;
  for (int pass = 0; pass < 2; pass++) {
    const char op = pass == 0 ? '|' : '&';
    paren = 0;
    for (size_t j = b; j + 1 < e; j++) {
      const Token& t = toks[j];
      if (t.in_directive) continue;
      if (IsPunct(t, '(') || IsPunct(t, '[') || IsPunct(t, '{')) paren++;
      if (IsPunct(t, ')') || IsPunct(t, ']') || IsPunct(t, '}')) paren--;
      if (paren == 0 && IsPunct(t, op) && IsPunct(toks[j + 1], op)) {
        Refinement lhs = AnalyzeCond(ctx, b, j, st);
        Refinement rhs = AnalyzeCond(ctx, j + 2, e, st);
        if (op == '|') {
          // (A || B) false => A false and B false. True side: unknown.
          r.false_facts = lhs.false_facts;
          for (const auto& [v, f] : rhs.false_facts) {
            auto it = r.false_facts.find(v);
            if (it != r.false_facts.end() && it->second != f) {
              r.false_facts.erase(it);
            } else {
              r.false_facts[v] = f;
            }
          }
        } else {
          // (A && B) true => A true and B true. False side: unknown.
          r.true_facts = lhs.true_facts;
          for (const auto& [v, f] : rhs.true_facts) {
            auto it = r.true_facts.find(v);
            if (it != r.true_facts.end() && it->second != f) {
              r.true_facts.erase(it);
            } else {
              r.true_facts[v] = f;
            }
          }
        }
        return r;
      }
    }
  }
  // `!E` negation.
  if (IsPunct(toks[b], '!') && !(b + 1 < e && IsPunct(toks[b + 1], '='))) {
    Refinement inner = AnalyzeCond(ctx, b + 1, e, st);
    r.true_facts = inner.false_facts;
    r.false_facts = inner.true_facts;
    return r;
  }
  // Atom: `v.ok()` exactly.
  if (e - b == 4 && toks[b].kind == Tk::kIdent && st.facts.count(toks[b].text) &&
      IsPunct(toks[b + 1], '.') && IsIdent(toks[b + 2], "ok") && IsPunct(toks[b + 3], '(')) {
    r.true_facts[toks[b].text] = RFact::kOk;
    r.false_facts[toks[b].text] = RFact::kBad;
    return r;
  }
  if (e - b == 5 && toks[b].kind == Tk::kIdent && st.facts.count(toks[b].text) &&
      IsPunct(toks[b + 1], '.') && IsIdent(toks[b + 2], "ok") && IsPunct(toks[b + 3], '(') &&
      IsPunct(toks[b + 4], ')')) {
    r.true_facts[toks[b].text] = RFact::kOk;
    r.false_facts[toks[b].text] = RFact::kBad;
    return r;
  }
  // Atom: bare tracked var (Result's explicit operator bool).
  if (e - b == 1 && toks[b].kind == Tk::kIdent && st.facts.count(toks[b].text)) {
    r.true_facts[toks[b].text] = RFact::kOk;
    r.false_facts[toks[b].text] = RFact::kBad;
    return r;
  }
  // Atom: declaration with initializer (`if (auto v = f())`): the implicit
  // operator bool tests the declared var.
  if ((IsIdent(toks[b], "auto") || IsIdent(toks[b], "Result"))) {
    for (size_t j = b; j + 1 < e; j++) {
      if (toks[j].kind == Tk::kIdent && IsPunct(toks[j + 1], '=') &&
          !(j + 2 < e && IsPunct(toks[j + 2], '='))) {
        r.true_facts[toks[j].text] = RFact::kOk;
        r.false_facts[toks[j].text] = RFact::kBad;
        return r;
      }
    }
  }
  return r;
}

void RApply(RState* st, const std::map<std::string, RFact>& facts) {
  for (const auto& [v, f] : facts) {
    if (st->facts.count(v)) st->facts[v] = f;
  }
}

RState RWalk(const RCtx& ctx, const std::vector<Stmt>& stmts, RState st,
             std::vector<RState>* break_pool);

RState RWalkOne(const RCtx& ctx, const Stmt& s, RState st, std::vector<RState>* break_pool) {
  const std::vector<Token>& toks = *ctx.toks;
  if (!st.live) return st;
  switch (s.kind) {
    case Stmt::Kind::kSimple:
      RTransfer(ctx, s.begin, s.end, &st);
      if (RIsTerminator(toks, s.begin, s.end)) st.live = false;
      return st;
    case Stmt::Kind::kReturn:
      RTransfer(ctx, s.begin, s.end, &st);
      st.live = false;
      return st;
    case Stmt::Kind::kBreak:
    case Stmt::Kind::kContinue:
      if (break_pool != nullptr) break_pool->push_back(st);
      st.live = false;
      return st;
    case Stmt::Kind::kBlock:
      return RWalk(ctx, s.body, st, break_pool);
    case Stmt::Kind::kIf: {
      auto parts = SplitTopSemis(toks, s.begin, s.end);
      for (size_t p = 0; p + 1 < parts.size(); p++) {
        RTransfer(ctx, parts[p].first, parts[p].second, &st);  // if-initializer
      }
      auto [cb, ce] = parts.back();
      Refinement ref = AnalyzeCond(ctx, cb, ce, st);
      RTransfer(ctx, cb, ce, &st);
      RState then_st = st, else_st = st;
      RApply(&then_st, ref.true_facts);
      RApply(&else_st, ref.false_facts);
      then_st = RWalk(ctx, s.body, then_st, break_pool);
      else_st = RWalk(ctx, s.else_body, else_st, break_pool);
      return RState::Merge(then_st, else_st);
    }
    case Stmt::Kind::kLoop: {
      auto parts = SplitTopSemis(toks, s.begin, s.end);
      size_t cond_idx = parts.size() >= 2 ? 1 : 0;
      if (parts.size() >= 2) RTransfer(ctx, parts[0].first, parts[0].second, &st);
      auto [cb, ce] = parts[cond_idx];
      Refinement ref = AnalyzeCond(ctx, cb, ce, st);
      RTransfer(ctx, cb, ce, &st);
      RState body_st = st;
      RApply(&body_st, ref.true_facts);
      std::vector<RState> pool;
      body_st = RWalk(ctx, s.body, body_st, &pool);
      if (parts.size() >= 3 && body_st.live) {
        RTransfer(ctx, parts[2].first, parts[2].second, &body_st);
      }
      RState skip = st, after_body = body_st;
      RApply(&skip, ref.false_facts);
      if (after_body.live) RApply(&after_body, ref.false_facts);
      RState m = RState::Merge(skip, after_body);
      for (const RState& p : pool) m = RState::Merge(m, p);
      return m;
    }
    case Stmt::Kind::kSwitch: {
      RTransfer(ctx, s.begin, s.end, &st);
      std::vector<RState> pool;
      RState body_st = RWalk(ctx, s.body, st, &pool);
      RState m = RState::Merge(st, body_st);
      for (const RState& p : pool) m = RState::Merge(m, p);
      return m;
    }
  }
  return st;
}

RState RWalk(const RCtx& ctx, const std::vector<Stmt>& stmts, RState st,
             std::vector<RState>* break_pool) {
  for (const Stmt& s : stmts) {
    st = RWalkOne(ctx, s, st, break_pool);
    if (!st.live) break;
  }
  return st;
}

}  // namespace

void CheckUncheckedResult(const std::string& path, const std::vector<Token>& toks,
                          const std::vector<FunctionDef>& funcs, const Registry& reg,
                          std::vector<Finding>* out) {
  for (const FunctionDef& f : funcs) {
    RCtx ctx{&toks, &reg, &path, out};
    std::vector<Stmt> stmts = ParseStatements(toks, f.body_begin, f.body_end);
    RState end = RWalk(ctx, stmts, RState{}, nullptr);
    (void)end;
  }
}

}  // namespace aurora::lint
