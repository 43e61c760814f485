// perfbench_check — verifies a mined pattern file against the database it
// was mined from, with code of its own: it links nothing from the library,
// so a fault in the library's containment, counting or order cannot hide
// itself here.
//
//   perfbench_check --db=DB.spmf --patterns=OUT.spmf --delta=N [--seed=S]
//                   [--sample=200] [--extend=50]
//
// Checks, each of which fails the run (exit 1, reason on stderr):
//   format     every line parses, itemsets ascending, no pattern twice,
//              every support >= delta;
//   support    a seeded sample of --sample patterns: brute-force support
//              over the database equals #SUP;
//   downward   every pattern with >= 2 items has each of its one-item
//              deletions reported, with support >= its own;
//   short      the reported 1- and 2-item patterns equal the set counted
//              naively (first/last transaction of each item per customer);
//   complete   for a seeded sample of --extend patterns with >= 2 items
//              (1-item ones are covered by `short`), every one-item
//              extension whose one-item deletions are all reported, and
//              which is itself unreported, has brute-force support < delta.
// On success prints one JSON line: patterns, maximal and closed counts
// (recounted in O(n*k): a pattern is non-maximal iff it is a one-item
// deletion of a reported pattern, non-closed iff that pattern also has
// equal support), max_length and max_support.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "spmf.h"

namespace {

using perfbench::Itemset;
using perfbench::Pattern;
using perfbench::Seq;

// Hash key of a pattern: items in order, 0 closing each itemset.
std::string Key(const Seq& seq) {
  std::string key;
  for (const Itemset& set : seq) {
    for (std::uint32_t item : set) {
      key.append(reinterpret_cast<const char*>(&item), sizeof(item));
    }
    const std::uint32_t close = 0;
    key.append(reinterpret_cast<const char*>(&close), sizeof(close));
  }
  return key;
}

std::size_t NumItems(const Seq& seq) {
  std::size_t n = 0;
  for (const Itemset& set : seq) n += set.size();
  return n;
}

// Greedy earliest embedding: itemset j of the pattern must be a subset of
// a transaction strictly after the one that matched itemset j-1.
bool Contains(const Seq& customer, const Seq& pattern) {
  std::size_t j = 0;
  for (const Itemset& txn : customer) {
    if (j == pattern.size()) break;
    if (std::includes(txn.begin(), txn.end(), pattern[j].begin(),
                      pattern[j].end())) {
      ++j;
    }
  }
  return j == pattern.size();
}

// Customers holding each item, ascending: a customer without the
// pattern's rarest item cannot contain it, so only that item's customers
// are tested.
using Postings = std::vector<std::vector<std::uint32_t>>;

Postings BuildPostings(const std::vector<Seq>& db) {
  Postings post;
  for (std::uint32_t c = 0; c < db.size(); ++c) {
    for (const Itemset& txn : db[c]) {
      for (std::uint32_t item : txn) {
        if (item >= post.size()) post.resize(item + 1);
        if (post[item].empty() || post[item].back() != c) {
          post[item].push_back(c);
        }
      }
    }
  }
  return post;
}

std::uint32_t BruteSupport(const std::vector<Seq>& db, const Postings& post,
                           const Seq& pattern) {
  const std::vector<std::uint32_t>* rarest = nullptr;
  for (const Itemset& set : pattern) {
    for (std::uint32_t item : set) {
      if (item >= post.size()) return 0;
      if (rarest == nullptr || post[item].size() < rarest->size()) {
        rarest = &post[item];
      }
    }
  }
  std::uint32_t n = 0;
  for (std::uint32_t c : *rarest) n += Contains(db[c], pattern) ? 1 : 0;
  return n;
}

// All patterns obtained by deleting one item (an emptied itemset goes).
std::vector<Seq> OneItemDeletions(const Seq& seq) {
  std::vector<Seq> out;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    for (std::size_t k = 0; k < seq[i].size(); ++k) {
      Seq del = seq;
      del[i].erase(del[i].begin() + static_cast<std::ptrdiff_t>(k));
      if (del[i].empty()) del.erase(del.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(del));
    }
  }
  return out;
}

std::vector<std::size_t> Sample(std::size_t n, std::size_t k,
                                std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  if (k >= n) return idx;
  std::mt19937_64 rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_check: FAIL %s\n", what.c_str());
  return 1;
}

std::string Show(const Seq& seq) {
  std::string s = "<";
  for (const Itemset& set : seq) {
    s += "(";
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (i) s += ' ';
      s += std::to_string(set[i]);
    }
    s += ")";
  }
  return s + ">";
}

struct Args {
  std::string db, patterns;
  std::uint32_t delta = 0;
  std::uint64_t seed = 1;
  std::size_t sample = 200;
  std::size_t extend = 50;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string k = arg.substr(2, eq - 2);
    const std::string v = arg.substr(eq + 1);
    if (k == "db") a->db = v;
    else if (k == "patterns") a->patterns = v;
    else if (k == "delta") a->delta = static_cast<std::uint32_t>(std::stoul(v));
    else if (k == "seed") a->seed = std::stoull(v);
    else if (k == "sample") a->sample = std::stoul(v);
    else if (k == "extend") a->extend = std::stoul(v);
    else return false;
  }
  return !a->db.empty() && !a->patterns.empty() && a->delta >= 1;
}

// Naive 1- and 2-item sequence supports: <(a)>, <(a b)> with a < b, and
// <(a)(b)>, which a customer contains iff the first transaction holding a
// comes before the last transaction holding b.
struct ShortCounts {
  std::uint32_t max_item = 0;
  std::vector<std::uint32_t> single, together, after;
  std::size_t At(std::uint32_t a, std::uint32_t b) const {
    return static_cast<std::size_t>(a) * (max_item + 1) + b;
  }
};

bool CountShort(const std::vector<Seq>& db, ShortCounts* c) {
  for (const Seq& s : db) {
    for (const Itemset& t : s) {
      for (std::uint32_t x : t) c->max_item = std::max(c->max_item, x);
    }
  }
  // Dense tables: (max_item+1)^2 counters. Quest databases here have 1000
  // items; refuse anything that would make the tables unreasonably large.
  if (c->max_item > 4096) return false;
  const std::size_t m = c->max_item + 1;
  c->single.assign(m, 0);
  c->together.assign(m * m, 0);
  c->after.assign(m * m, 0);
  std::vector<std::uint32_t> seen_pair(m * m, 0);
  std::vector<std::int64_t> first(m, -1), last(m, -1);
  std::uint32_t stamp = 0;
  for (const Seq& s : db) {
    ++stamp;
    std::vector<std::uint32_t> items;
    for (std::size_t ti = 0; ti < s.size(); ++ti) {
      const Itemset& t = s[ti];
      for (std::size_t i = 0; i < t.size(); ++i) {
        const std::uint32_t a = t[i];
        if (first[a] < 0) {
          first[a] = static_cast<std::int64_t>(ti);
          items.push_back(a);
        }
        last[a] = static_cast<std::int64_t>(ti);
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          const std::size_t at = c->At(a, t[j]);
          if (seen_pair[at] != stamp) {
            seen_pair[at] = stamp;
            ++c->together[at];
          }
        }
      }
    }
    for (std::uint32_t a : items) {
      ++c->single[a];
      for (std::uint32_t b : items) {
        if (first[a] < last[b]) ++c->after[c->At(a, b)];
      }
    }
    for (std::uint32_t a : items) first[a] = last[a] = -1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_check --db=DB.spmf --patterns=OUT.spmf "
                 "--delta=N [--seed=S] [--sample=N] [--extend=N]\n");
    return 2;
  }
  std::string text, err;
  std::vector<Seq> db;
  if (!perfbench::ReadFile(args.db, &text) ||
      !perfbench::ParseDatabase(text, &db, &err)) {
    return Fail("database " + args.db + ": " + err);
  }
  std::vector<Pattern> pats;
  if (!perfbench::ReadFile(args.patterns, &text) ||
      !perfbench::ParsePatterns(text, &pats, &err)) {
    return Fail("patterns " + args.patterns + ": " + err);
  }

  // format
  std::unordered_map<std::string, std::uint32_t> support_of;
  support_of.reserve(pats.size() * 2);
  std::uint32_t max_len = 0, max_sup = 0;
  for (const Pattern& p : pats) {
    if (p.support < args.delta) {
      return Fail("support below delta: " + Show(p.seq));
    }
    if (!support_of.emplace(Key(p.seq), p.support).second) {
      return Fail("reported twice: " + Show(p.seq));
    }
    max_len = std::max<std::uint32_t>(max_len, NumItems(p.seq));
    max_sup = std::max(max_sup, p.support);
  }

  // support
  const Postings post = BuildPostings(db);
  for (std::size_t i : Sample(pats.size(), args.sample, args.seed)) {
    const std::uint32_t truth = BruteSupport(db, post, pats[i].seq);
    if (truth != pats[i].support) {
      return Fail("support of " + Show(pats[i].seq) + " is " +
                  std::to_string(truth) + ", reported " +
                  std::to_string(pats[i].support));
    }
  }

  // downward, plus the maximal/closed recount over the same deletions
  std::unordered_set<std::string> non_maximal, non_closed;
  for (const Pattern& p : pats) {
    if (NumItems(p.seq) < 2) continue;
    for (const Seq& d : OneItemDeletions(p.seq)) {
      const std::string key = Key(d);
      const auto it = support_of.find(key);
      if (it == support_of.end()) {
        return Fail("missing subpattern " + Show(d) + " of " + Show(p.seq));
      }
      if (it->second < p.support) {
        return Fail("subpattern " + Show(d) + " has lower support than " +
                    Show(p.seq));
      }
      non_maximal.insert(key);
      if (it->second == p.support) non_closed.insert(key);
    }
  }

  // short
  ShortCounts c;
  if (!CountShort(db, &c)) return Fail("more than 4096 distinct items");
  std::size_t expected_short = 0;
  for (std::uint32_t a = 1; a <= c.max_item; ++a) {
    if (c.single[a] >= args.delta) ++expected_short;
    for (std::uint32_t b = 1; b <= c.max_item; ++b) {
      if (c.after[c.At(a, b)] >= args.delta) ++expected_short;
      if (a < b && c.together[c.At(a, b)] >= args.delta) ++expected_short;
    }
  }
  std::size_t reported_short = 0;
  for (const Pattern& p : pats) {
    const std::size_t n = NumItems(p.seq);
    if (n > 2) continue;
    ++reported_short;
    std::uint32_t truth = 0;
    if (n == 1) {
      truth = c.single[p.seq[0][0]];
    } else if (p.seq.size() == 1) {
      truth = c.together[c.At(p.seq[0][0], p.seq[0][1])];
    } else {
      truth = c.after[c.At(p.seq[0][0], p.seq[1][0])];
    }
    if (truth != p.support) {
      return Fail("naive support of " + Show(p.seq) + " is " +
                  std::to_string(truth) + ", reported " +
                  std::to_string(p.support));
    }
  }
  if (reported_short != expected_short) {
    return Fail("reported " + std::to_string(reported_short) +
                " frequent 1-/2-item patterns, naive count finds " +
                std::to_string(expected_short));
  }

  // complete
  std::vector<std::uint32_t> frequent_items;
  for (std::uint32_t a = 1; a <= c.max_item; ++a) {
    if (c.single[a] >= args.delta) frequent_items.push_back(a);
  }
  // Extensions of 1-item patterns are the 2-item patterns checked above.
  std::vector<std::size_t> longer;
  for (std::size_t i = 0; i < pats.size(); ++i) {
    if (NumItems(pats[i].seq) >= 2) longer.push_back(i);
  }
  for (std::size_t j : Sample(longer.size(), args.extend, args.seed + 1)) {
    const Seq& p = pats[longer[j]].seq;
    // Candidate q = p plus item x: inside itemset s, or as a new itemset
    // before position s (s == p.size() appends).
    for (std::uint32_t x : frequent_items) {
      for (std::size_t s = 0; s <= p.size(); ++s) {
        for (int inside = 0; inside < 2; ++inside) {
          Seq q = p;
          if (inside) {
            if (s == p.size() ||
                std::binary_search(p[s].begin(), p[s].end(), x)) {
              continue;
            }
            q[s].insert(std::lower_bound(q[s].begin(), q[s].end(), x), x);
          } else {
            q.insert(q.begin() + static_cast<std::ptrdiff_t>(s), Itemset{x});
          }
          const std::string key = Key(q);
          if (support_of.count(key)) continue;
          bool all_reported = true;
          for (const Seq& d : OneItemDeletions(q)) {
            if (!support_of.count(Key(d))) {
              all_reported = false;
              break;
            }
          }
          if (!all_reported) continue;
          const std::uint32_t truth = BruteSupport(db, post, q);
          if (truth >= args.delta) {
            return Fail("frequent pattern " + Show(q) + " (support " +
                        std::to_string(truth) + ") not reported");
          }
        }
      }
    }
  }

  std::printf(
      "{\"patterns\": %zu, \"maximal\": %zu, \"closed\": %zu, "
      "\"max_length\": %u, \"max_support\": %u}\n",
      pats.size(), pats.size() - non_maximal.size(),
      pats.size() - non_closed.size(), max_len, max_sup);
  return 0;
}
