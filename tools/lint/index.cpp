#include "lint/index.hpp"

#include <cctype>
#include <regex>
#include <set>

namespace sjs::lint {

namespace {

struct Token {
  bool ident = false;  // identifier or number; false = single punct char
  std::string text;
  std::size_t line = 0;  // 1-based
  std::size_t col = 0;   // 1-based
};

std::vector<Token> tokenize(const std::vector<std::string>& code) {
  std::vector<Token> toks;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    std::size_t i = 0;
    while (i < line.size()) {
      const unsigned char c = static_cast<unsigned char>(line[i]);
      if (std::isspace(c)) {
        ++i;
        continue;
      }
      if (std::isalpha(c) || line[i] == '_') {
        std::size_t j = i + 1;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '_')) {
          ++j;
        }
        toks.push_back({true, line.substr(i, j - i), li + 1, i + 1});
        i = j;
        continue;
      }
      if (std::isdigit(c)) {
        std::size_t j = i + 1;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '\'' || line[j] == '.')) {
          ++j;
        }
        toks.push_back({true, line.substr(i, j - i), li + 1, i + 1});
        i = j;
        continue;
      }
      toks.push_back({false, std::string(1, line[i]), li + 1, i + 1});
      ++i;
    }
  }
  return toks;
}

const std::set<std::string>& call_keyword_blocklist() {
  static const std::set<std::string> kKeywords = {
      "if",       "else",    "for",       "while",    "do",      "switch",
      "case",     "return",  "sizeof",    "alignof",  "noexcept", "catch",
      "throw",    "new",     "delete",    "decltype", "typeid",  "and",
      "or",       "not",     "defined",   "alignas",  "static_assert",
      "requires", "co_await", "co_yield", "co_return"};
  return kKeywords;
}

bool is_alloc_call_name(const std::string& name) {
  return name == "make_unique" || name == "make_shared" ||
         name == "push_back" || name == "emplace_back" || name == "resize" ||
         name == "reserve" || name == "assign";
}

// Matches the wildcard `*_clock` of the banned-time rule.
bool is_clock_type_name(const std::string& name) {
  return name.size() > 6 &&
         name.compare(name.size() - 6, 6, "_clock") == 0;
}

// Scope kinds for the block-classification stack.
enum class BlockKind { kNamespace, kClass, kFunction, kOther };

struct Block {
  BlockKind kind;
  std::string name;  // namespace/class name ("" when anonymous)
};

// Joins the written `A :: B :: name` chain ending at token `last`
// (inclusive). Returns e.g. "Engine::step_event".
std::string qualifier_chain(const std::vector<Token>& toks, std::size_t last) {
  std::string chain = toks[last].text;
  std::size_t k = last;
  while (k >= 3 && !toks[k - 1].ident && toks[k - 1].text == ":" &&
         !toks[k - 2].ident && toks[k - 2].text == ":" && toks[k - 3].ident) {
    chain = toks[k - 3].text + "::" + chain;
    k -= 3;
  }
  return chain;
}

// Result of classifying the statement tokens preceding a `{`.
struct Classification {
  BlockKind kind = BlockKind::kOther;
  std::string name;       // block name (namespace/class) or function name
  std::string qual;       // written qualifier chain for functions
  std::size_t name_line = 0;
};

Classification classify(const std::vector<Token>& stmt) {
  Classification out;
  if (stmt.empty()) return out;
  // namespace A::B {  /  inline namespace {  — name is the joined chain.
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (stmt[i].ident && stmt[i].text == "namespace") {
      std::string name;
      for (std::size_t j = i + 1; j < stmt.size(); ++j) {
        if (stmt[j].ident) {
          name += stmt[j].text;
        } else if (stmt[j].text == ":") {
          name += ":";
        } else {
          break;
        }
      }
      out.kind = BlockKind::kNamespace;
      out.name = name;
      return out;
    }
  }
  // Function: first top-level `(` preceded by a non-keyword identifier (or
  // an `operator` token sequence), with no top-level `=` before it (which
  // would make this an initializer or lambda assignment).
  int paren = 0;
  bool saw_eq = false;
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (!t.ident) {
      if (t.text == "(") {
        if (paren == 0 && i > 0 && !saw_eq) {
          const Token& prev = stmt[i - 1];
          if (prev.ident && call_keyword_blocklist().count(prev.text) == 0) {
            // `operator` one back means this is `operator()`; name it so.
            out.kind = BlockKind::kFunction;
            out.qual = qualifier_chain(stmt, i - 1);
            out.name = prev.text;
            out.name_line = prev.line;
            return out;
          }
          if (!prev.ident) {
            // operator overloads: `bool operator==(...) {`
            for (std::size_t k = i; k-- > 0;) {
              if (stmt[k].ident) {
                if (stmt[k].text == "operator") {
                  out.kind = BlockKind::kFunction;
                  out.name = "operator";
                  out.qual = "operator";
                  out.name_line = stmt[k].line;
                  return out;
                }
                break;
              }
            }
          }
        }
        ++paren;
      } else if (t.text == ")") {
        if (paren > 0) --paren;
      } else if (t.text == "=" && paren == 0) {
        saw_eq = true;
      }
    }
  }
  // class / struct / union (enum → other).
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (!stmt[i].ident) continue;
    if (stmt[i].text == "enum") return out;  // enum / enum class → other
    if (stmt[i].text == "class" || stmt[i].text == "struct" ||
        stmt[i].text == "union") {
      out.kind = BlockKind::kClass;
      for (std::size_t j = i + 1; j < stmt.size(); ++j) {
        if (stmt[j].ident) {
          out.name = stmt[j].text;
          break;
        }
        if (stmt[j].text != "[" && stmt[j].text != "]") break;
      }
      return out;
    }
  }
  return out;
}

}  // namespace

FileIndex build_index(const SourceFile& file) {
  FileIndex idx;
  idx.rel = file.rel;
  idx.hash = file.hash;

  // Quoted includes (for the include graph; hygiene stays a line rule).
  static const std::regex quoted_re(R"(^\s*#\s*include\s*"([^"]+)\")");
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    std::smatch m;
    if (std::regex_search(file.raw[i], m, quoted_re)) {
      idx.includes.push_back({m[1], i + 1});
    }
  }

  // Hot-path root annotations: the marker attaches to the first function
  // declaration or definition on the marker line or the three lines below,
  // and marks that NAME (so annotating the base-class declaration of a
  // virtual hook marks every override).
  static const std::regex name_re(R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    if (file.raw[i].find("sjs-hot-path-root") == std::string::npos) continue;
    for (std::size_t j = i; j < file.raw.size() && j < i + 4; ++j) {
      std::smatch m;
      if (std::regex_search(file.code[j], m, name_re)) {
        idx.root_names.push_back(m[1]);
        break;
      }
    }
  }

  // TraceKind raw material for the (cross-file) trace-exhaustive rule.
  if (file.rel == "src/obs/trace_event.hpp") {
    bool in_enum = false;
    static const std::regex enum_open(R"(enum\s+class\s+TraceKind\b)");
    static const std::regex member_re(R"(^\s*(k[A-Za-z0-9_]+)\s*(?:=[^,]*)?,?)");
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& code = file.code[i];
      if (!in_enum) {
        if (std::regex_search(code, enum_open)) in_enum = true;
        continue;
      }
      if (code.find('}') != std::string::npos) break;
      std::smatch m;
      if (std::regex_search(code, m, member_re)) {
        idx.tracekind_decls.emplace_back(m[1], i + 1);
      }
    }
  }
  if (file.rel == "src/obs/exporters.cpp") {
    static const std::regex mention_re(R"(TraceKind\s*::\s*(k[A-Za-z0-9_]+))");
    for (const std::string& code : file.code) {
      for (auto it = std::sregex_iterator(code.begin(), code.end(), mention_re);
           it != std::sregex_iterator(); ++it) {
        idx.tracekind_mentions.push_back((*it)[1]);
      }
    }
  }

  // --- function definitions ----------------------------------------------
  const std::vector<Token> toks = tokenize(file.code);
  std::vector<Block> stack;
  std::vector<Token> stmt;
  bool in_function = false;
  std::size_t func_open_depth = 0;  // stack depth at which the body opened
  FunctionDef current;

  const auto scope_prefix = [&stack]() {
    std::string prefix;
    for (const Block& b : stack) {
      if ((b.kind == BlockKind::kNamespace || b.kind == BlockKind::kClass) &&
          !b.name.empty()) {
        prefix += b.name + "::";
      }
    }
    return prefix;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (in_function) {
      if (!t.ident && t.text == "{") {
        stack.push_back({BlockKind::kOther, ""});
        continue;
      }
      if (!t.ident && t.text == "}") {
        if (stack.size() == func_open_depth) {
          // Function body closed.
          current.body_end = t.line;
          idx.funcs.push_back(std::move(current));
          current = FunctionDef{};
          in_function = false;
          if (!stack.empty()) stack.pop_back();
        } else if (!stack.empty()) {
          stack.pop_back();
        }
        continue;
      }
      if (!t.ident) continue;
      // Body facts: calls, allocation ops, banned reads.
      const bool next_is_paren =
          i + 1 < toks.size() && !toks[i + 1].ident && toks[i + 1].text == "(";
      const bool next_is_langle =
          i + 1 < toks.size() && !toks[i + 1].ident && toks[i + 1].text == "<";
      const bool prev_is_operator =
          i > 0 && toks[i - 1].ident && toks[i - 1].text == "operator";
      if (t.text == "new" && !prev_is_operator) {
        current.allocs.push_back({"new", t.line, t.col});
        continue;
      }
      if (t.text == "random_device") {
        current.banned.push_back({"std::random_device", t.line, t.col});
        continue;
      }
      if (is_clock_type_name(t.text) && i + 3 < toks.size() &&
          toks[i + 1].text == ":" && toks[i + 2].text == ":" &&
          toks[i + 3].ident && toks[i + 3].text == "now") {
        current.banned.push_back(
            {"std::chrono::*_clock::now", t.line, t.col});
        continue;
      }
      if (next_is_paren && call_keyword_blocklist().count(t.text) == 0) {
        if (is_alloc_call_name(t.text)) {
          current.allocs.push_back({t.text, t.line, t.col});
        }
        if (t.text == "rand" || t.text == "srand") {
          current.banned.push_back({"std::" + t.text + "()", t.line, t.col});
        } else if (t.text == "gettimeofday" || t.text == "clock_gettime" ||
                   t.text == "timespec_get") {
          current.banned.push_back({t.text + "()", t.line, t.col});
        } else if (t.text == "clock" && i + 2 < toks.size() &&
                   !toks[i + 2].ident && toks[i + 2].text == ")") {
          current.banned.push_back({"clock()", t.line, t.col});
        } else if (t.text == "time" && i + 3 < toks.size() &&
                   toks[i + 2].ident &&
                   (toks[i + 2].text == "NULL" || toks[i + 2].text == "nullptr" ||
                    toks[i + 2].text == "0") &&
                   !toks[i + 3].ident && toks[i + 3].text == ")") {
          current.banned.push_back({"time(nullptr)", t.line, t.col});
        }
        CallSite call;
        call.name = t.text;
        const std::string chain = qualifier_chain(toks, i);
        if (chain != t.text) call.qual = chain;
        call.line = t.line;
        call.col = t.col;
        current.calls.push_back(std::move(call));
        continue;
      }
      if ((next_is_paren || next_is_langle) && is_alloc_call_name(t.text)) {
        current.allocs.push_back({t.text, t.line, t.col});
        // make_unique<T>(...) is also a call edge target by name.
        current.calls.push_back({t.text, "", t.line, t.col});
        continue;
      }
      if (t.text == "function" && next_is_langle && i >= 2 &&
          toks[i - 1].text == ":" && toks[i - 2].text == ":" &&
          i >= 3 && toks[i - 3].ident && toks[i - 3].text == "std") {
        current.allocs.push_back({"std::function", t.line, t.col});
        continue;
      }
      continue;
    }
    // Outside any function: build statements, classify blocks.
    if (!t.ident && t.text == "{") {
      Classification c = classify(stmt);
      stmt.clear();
      if (c.kind == BlockKind::kFunction) {
        current = FunctionDef{};
        current.name = c.name;
        current.qualified = scope_prefix() + c.qual;
        current.line = c.name_line;
        current.body_begin = t.line;
        stack.push_back({BlockKind::kFunction, c.name});
        in_function = true;
        func_open_depth = stack.size();
      } else {
        stack.push_back({c.kind, c.name});
      }
      continue;
    }
    if (!t.ident && t.text == "}") {
      if (!stack.empty()) stack.pop_back();
      stmt.clear();
      continue;
    }
    if (!t.ident && t.text == ";") {
      stmt.clear();
      continue;
    }
    stmt.push_back(t);
  }
  return idx;
}

}  // namespace sjs::lint
