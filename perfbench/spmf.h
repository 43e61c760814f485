// SPMF text reading and writing for the benchmark's generator and checker.
//
// Written apart from the library's own parser (src/disc/seq/parse.cc) so
// that the checker does not rely on the code it checks. Two formats:
//
//   database: one customer per line, items separated by spaces, -1 closes
//             an itemset, -2 closes the sequence   ("3 7 -1 2 -1 -2")
//   patterns: one pattern per line, -1 closes an itemset, then the support
//             ("3 7 -1 2 -1 #SUP: 12")
#ifndef PERFBENCH_SPMF_H_
#define PERFBENCH_SPMF_H_

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Itemset = std::vector<std::uint32_t>;
using Seq = std::vector<Itemset>;

struct Pattern {
  Seq seq;
  std::uint32_t support = 0;
};

inline bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return static_cast<bool>(in) || in.eof();
}

namespace internal {

// Parses the itemsets of one line up to `stop` (the "-2" or "#SUP:"
// token). Itemsets must be non-empty and strictly ascending; items >= 1.
inline bool ParseItemsets(const char*& p, const char* end, Seq* seq,
                          std::string* err) {
  Itemset cur;
  while (p < end) {
    while (p < end && *p == ' ') ++p;
    if (p >= end || *p == '#') break;
    char* next = nullptr;
    const long v = std::strtol(p, &next, 10);
    if (next == p) {
      *err = "bad token";
      return false;
    }
    p = next;
    if (v == -2) break;
    if (v == -1) {
      if (cur.empty()) {
        *err = "empty itemset";
        return false;
      }
      seq->push_back(std::move(cur));
      cur.clear();
      continue;
    }
    if (v < 1 || v > 0x7fffffffL) {
      *err = "item out of range";
      return false;
    }
    if (!cur.empty() && static_cast<std::uint32_t>(v) <= cur.back()) {
      *err = "itemset not strictly ascending";
      return false;
    }
    cur.push_back(static_cast<std::uint32_t>(v));
  }
  if (!cur.empty()) {
    *err = "itemset not closed by -1";
    return false;
  }
  return true;
}

// Calls `fn(line_begin, line_end, line_number)` for every non-empty line.
template <typename Fn>
bool ForEachLine(const std::string& text, Fn fn) {
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++line_no;
    if (eol > pos && !fn(text.data() + pos, text.data() + eol, line_no)) {
      return false;
    }
    pos = eol + 1;
  }
  return true;
}

}  // namespace internal

inline bool ParseDatabase(const std::string& text, std::vector<Seq>* out,
                          std::string* err) {
  return internal::ForEachLine(
      text, [&](const char* p, const char* end, std::size_t line) {
        Seq seq;
        if (!internal::ParseItemsets(p, end, &seq, err)) {
          *err = "database line " + std::to_string(line) + ": " + *err;
          return false;
        }
        out->push_back(std::move(seq));
        return true;
      });
}

inline bool ParsePatterns(const std::string& text, std::vector<Pattern>* out,
                          std::string* err) {
  return internal::ForEachLine(
      text, [&](const char* p, const char* end, std::size_t line) {
        Pattern pat;
        const std::string where = "pattern line " + std::to_string(line);
        if (!internal::ParseItemsets(p, end, &pat.seq, err)) {
          *err = where + ": " + *err;
          return false;
        }
        static constexpr char kSup[] = "#SUP:";
        const std::string rest(p, end);
        if (pat.seq.empty() || rest.rfind(kSup, 0) != 0) {
          *err = where + ": expected itemsets then #SUP:";
          return false;
        }
        char* next = nullptr;
        const long sup = std::strtol(rest.c_str() + 5, &next, 10);
        if (sup < 1 || *next != '\0') {
          *err = where + ": bad support";
          return false;
        }
        pat.support = static_cast<std::uint32_t>(sup);
        out->push_back(std::move(pat));
        return true;
      });
}

inline std::string FormatDatabase(const std::vector<Seq>& db) {
  std::string out;
  for (const Seq& seq : db) {
    for (const Itemset& set : seq) {
      for (std::uint32_t item : set) {
        out += std::to_string(item);
        out += ' ';
      }
      out += "-1 ";
    }
    out += "-2\n";
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPMF_H_
