#include "lint/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace sjs::lint {

namespace {

// Bump when the FileIndex shape or any phase-1 rule changes: a version
// mismatch discards the whole store, so stale rule output can never replay.
constexpr const char* kMagic = "sjs-lint-cache v3";

// Records are lines of \x1f-separated fields; the separator cannot appear
// in source-derived strings (it is a C0 control character the lexer would
// have to see in a source file first).
constexpr char kSep = '\x1f';

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t sep = line.find(kSep, start);
    if (sep == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, sep - start));
    start = sep + 1;
  }
}

std::size_t to_size(const std::string& s) {
  return static_cast<std::size_t>(std::strtoull(s.c_str(), nullptr, 10));
}

void write_fields(std::ostream& os, std::initializer_list<std::string> fields) {
  bool first = true;
  for (const std::string& f : fields) {
    if (!first) os << kSep;
    os << f;
    first = false;
  }
  os << '\n';
}

}  // namespace

void IndexCache::load(const fs::path& path) {
  entries_.clear();
  std::ifstream in(path);
  if (!in) return;
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return;

  CacheEntry entry;
  std::string rel;
  bool open = false;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = split_fields(line);
    if (f.empty()) continue;
    const std::string& tag = f[0];
    if (tag == "file" && f.size() >= 3) {
      if (open) entries_[rel] = std::move(entry);
      entry = CacheEntry{};
      rel = f[1];
      entry.hash = std::strtoull(f[2].c_str(), nullptr, 16);
      entry.index.rel = rel;
      entry.index.hash = entry.hash;
      open = true;
    } else if (!open) {
      continue;  // malformed leading record: skip until the next `file`
    } else if (tag == "fn" && f.size() >= 7) {
      FunctionDef fn;
      fn.name = f[1];
      fn.qualified = f[2];
      fn.line = to_size(f[3]);
      fn.body_begin = to_size(f[4]);
      fn.body_end = to_size(f[5]);
      fn.is_root = f[6] == "1";
      entry.index.funcs.push_back(std::move(fn));
    } else if (tag == "call" && f.size() >= 5 && !entry.index.funcs.empty()) {
      entry.index.funcs.back().calls.push_back(
          {f[1], f[2], to_size(f[3]), to_size(f[4])});
    } else if (tag == "alloc" && f.size() >= 4 && !entry.index.funcs.empty()) {
      entry.index.funcs.back().allocs.push_back(
          {f[1], to_size(f[2]), to_size(f[3])});
    } else if (tag == "banned" && f.size() >= 4 && !entry.index.funcs.empty()) {
      entry.index.funcs.back().banned.push_back(
          {f[1], to_size(f[2]), to_size(f[3])});
    } else if (tag == "inc" && f.size() >= 3) {
      entry.index.includes.push_back({f[1], to_size(f[2])});
    } else if (tag == "root" && f.size() >= 2) {
      entry.index.root_names.push_back(f[1]);
    } else if (tag == "tkd" && f.size() >= 3) {
      entry.index.tracekind_decls.emplace_back(f[1], to_size(f[2]));
    } else if (tag == "tkm" && f.size() >= 2) {
      entry.index.tracekind_mentions.push_back(f[1]);
    } else if (tag == "diag" && f.size() >= 5) {
      entry.diags.push_back({rel, to_size(f[1]), to_size(f[2]), f[3], f[4],
                             {}});
    }
  }
  if (open) entries_[rel] = std::move(entry);
}

const CacheEntry* IndexCache::lookup(const std::string& rel,
                                     std::uint64_t hash) const {
  const auto it = entries_.find(rel);
  if (it == entries_.end() || it->second.hash != hash) return nullptr;
  return &it->second;
}

void IndexCache::store(const std::string& rel, CacheEntry entry) {
  entries_[rel] = std::move(entry);
}

void IndexCache::save(const fs::path& path) const {
  std::ostringstream os;
  os << kMagic << '\n';
  for (const auto& [rel, entry] : entries_) {
    char hash_hex[17];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(entry.hash));
    write_fields(os, {"file", rel, hash_hex});
    for (const FunctionDef& fn : entry.index.funcs) {
      write_fields(os, {"fn", fn.name, fn.qualified, std::to_string(fn.line),
                        std::to_string(fn.body_begin),
                        std::to_string(fn.body_end), fn.is_root ? "1" : "0"});
      for (const CallSite& c : fn.calls) {
        write_fields(os, {"call", c.name, c.qual, std::to_string(c.line),
                          std::to_string(c.col)});
      }
      for (const OpSite& op : fn.allocs) {
        write_fields(os, {"alloc", op.what, std::to_string(op.line),
                          std::to_string(op.col)});
      }
      for (const OpSite& op : fn.banned) {
        write_fields(os, {"banned", op.what, std::to_string(op.line),
                          std::to_string(op.col)});
      }
    }
    for (const IncludeSite& inc : entry.index.includes) {
      write_fields(os, {"inc", inc.path, std::to_string(inc.line)});
    }
    for (const std::string& name : entry.index.root_names) {
      write_fields(os, {"root", name});
    }
    for (const auto& [name, line] : entry.index.tracekind_decls) {
      write_fields(os, {"tkd", name, std::to_string(line)});
    }
    for (const std::string& name : entry.index.tracekind_mentions) {
      write_fields(os, {"tkm", name});
    }
    for (const Diagnostic& d : entry.diags) {
      write_fields(os, {"diag", std::to_string(d.line), std::to_string(d.col),
                        d.rule, d.message});
    }
  }
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "sjs_lint: cannot write cache %s\n",
                 path.generic_string().c_str());
    return;
  }
  out << os.str();
}

}  // namespace sjs::lint
