// Post-processing tests. The library computes maximal/closed sets with a
// linear pass over one-item deletions, valid on convex inputs (see
// postprocess.h); the quadratic containment definitions below are the
// oracle it is checked against, on every kind of convex set the library
// produces.
#include "disc/algo/postprocess.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disc/algo/miner.h"
#include "disc/algo/topk.h"
#include "disc/obs/metrics.h"
#include "disc/seq/containment.h"
#include "disc/seq/io.h"
#include "test_util.h"

namespace disc {
namespace {

using testutil::Seq;

// --- Oracle: the containment definitions, O(n^2) containment tests -------

// Buckets patterns (with their supports) by length, ascending, for
// superset probing.
using Bucketed = std::map<
    std::uint32_t, std::vector<std::pair<const Sequence*, std::uint32_t>>>;
Bucketed ByLength(const PatternSet& patterns) {
  Bucketed buckets;
  for (const auto& [p, sup] : patterns) {
    buckets[p.Length()].emplace_back(&p, sup);
  }
  return buckets;
}

// The patterns contained in no strictly longer pattern of the set; with
// `same_support`, only a superset of equal support disqualifies (closed).
PatternSet OracleFilter(const PatternSet& patterns, bool same_support) {
  PatternSet out;
  const Bucketed buckets = ByLength(patterns);
  for (const auto& [len, group] : buckets) {
    for (const auto& [p, sup] : group) {
      bool absorbed = false;
      // Only strictly longer patterns can strictly contain p.
      for (auto it = buckets.upper_bound(len);
           it != buckets.end() && !absorbed; ++it) {
        for (const auto& [super, super_sup] : it->second) {
          if ((!same_support || super_sup == sup) && Contains(*super, *p)) {
            absorbed = true;
            break;
          }
        }
      }
      if (!absorbed) out.Add(*p, sup);
    }
  }
  return out;
}

PatternSet OracleMaximal(const PatternSet& p) { return OracleFilter(p, false); }
PatternSet OracleClosed(const PatternSet& p) { return OracleFilter(p, true); }

// The oracle summary of `patterns`, given its oracle maximal/closed sets.
PatternSummary OracleSummary(const PatternSet& patterns,
                             const PatternSet& maximal,
                             const PatternSet& closed) {
  PatternSummary s;
  s.total = patterns.size();
  s.maximal = maximal.size();
  s.closed = closed.size();
  s.max_length = patterns.MaxLength();
  for (const auto& [p, sup] : patterns) {
    (void)p;
    s.max_support = std::max(s.max_support, sup);
  }
  return s;
}

PatternSummary OracleSummary(const PatternSet& patterns) {
  return OracleSummary(patterns, OracleMaximal(patterns),
                       OracleClosed(patterns));
}

void ExpectSameSummary(const PatternSummary& got, const PatternSummary& want,
                       const std::string& what) {
  EXPECT_EQ(got.total, want.total) << what;
  EXPECT_EQ(got.maximal, want.maximal) << what;
  EXPECT_EQ(got.closed, want.closed) << what;
  EXPECT_EQ(got.max_length, want.max_length) << what;
  EXPECT_EQ(got.max_support, want.max_support) << what;
}

// The linear pass against the oracle on a convex set: both filters, the
// summary, and the summary of each filtered subset as seqmine prints it
// (--maximal / --closed), which must equal the oracle's summary of that
// subset.
void ExpectMatchesOracle(const PatternSet& patterns, const std::string& what) {
  SCOPED_TRACE(what + " (" + std::to_string(patterns.size()) + " patterns)");
  const PatternSet maximal = OracleMaximal(patterns);
  const PatternSet closed = OracleClosed(patterns);
  EXPECT_EQ(MaximalPatterns(patterns), maximal)
      << MaximalPatterns(patterns).Diff(maximal);
  EXPECT_EQ(ClosedPatterns(patterns), closed)
      << ClosedPatterns(patterns).Diff(closed);
  ExpectSameSummary(Summarize(patterns),
                    OracleSummary(patterns, maximal, closed), "all");
  for (const auto& [kind, want] :
       {std::pair{PatternKind::kMaximal, &maximal},
        std::pair{PatternKind::kClosed, &closed}}) {
    PatternSet kept;
    const PatternSummary s = Summarize(patterns, kind, &kept);
    EXPECT_EQ(kept, *want);
    ExpectSameSummary(s, OracleSummary(*want),
                      kind == PatternKind::kMaximal ? "maximal" : "closed");
  }
}

std::string DataPath(const std::string& name) {
  return std::string(DISC_TEST_DATA_DIR) + "/" + name;
}

PatternSet MakeSet(
    const std::vector<std::pair<const char*, std::uint32_t>>& items) {
  PatternSet out;
  for (const auto& [text, sup] : items) out.Add(Seq(text), sup);
  return out;
}

TEST(Postprocess, MaximalHandExample) {
  const PatternSet all = MakeSet({
      {"(a)", 5},
      {"(b)", 4},
      {"(a)(b)", 3},
      {"(a,c)", 2},
      {"(c)", 2},
  });
  const PatternSet maximal = MaximalPatterns(all);
  EXPECT_EQ(maximal.size(), 2u);
  EXPECT_TRUE(maximal.Contains(Seq("(a)(b)")));
  EXPECT_TRUE(maximal.Contains(Seq("(a,c)")));
  EXPECT_FALSE(maximal.Contains(Seq("(a)")));
  EXPECT_FALSE(maximal.Contains(Seq("(c)")));
}

TEST(Postprocess, ClosedHandExample) {
  // (a) has the same support as its superset (a)(b): not closed.
  // (b) has higher support than any superset: closed.
  const PatternSet all = MakeSet({
      {"(a)", 3},
      {"(b)", 4},
      {"(a)(b)", 3},
  });
  const PatternSet closed = ClosedPatterns(all);
  EXPECT_EQ(closed.size(), 2u);
  EXPECT_FALSE(closed.Contains(Seq("(a)")));
  EXPECT_TRUE(closed.Contains(Seq("(b)")));
  EXPECT_TRUE(closed.Contains(Seq("(a)(b)")));
}

TEST(Postprocess, PropertiesOnMinedData) {
  const SequenceDatabase db = testutil::RandomDatabase(23);
  MineOptions options;
  options.min_support_count = 3;
  const PatternSet all = CreateMiner("disc-all")->Mine(db, options);
  const PatternSet maximal = MaximalPatterns(all);
  const PatternSet closed = ClosedPatterns(all);
  // maximal ⊆ closed ⊆ all.
  EXPECT_LE(maximal.size(), closed.size());
  EXPECT_LE(closed.size(), all.size());
  for (const auto& [p, sup] : maximal) {
    EXPECT_EQ(closed.SupportOf(p), sup) << p.ToString();
  }
  // Every maximal pattern is in no other frequent pattern.
  for (const auto& [p, sup] : maximal) {
    (void)sup;
    for (const auto& [q, qsup] : all) {
      (void)qsup;
      if (q.Length() > p.Length()) {
        EXPECT_FALSE(Contains(q, p) && !(q == p))
            << p.ToString() << " inside " << q.ToString();
      }
    }
  }
  // Every non-closed pattern has a same-support superpattern.
  for (const auto& [p, sup] : all) {
    if (closed.Contains(p)) continue;
    bool witnessed = false;
    for (const auto& [q, qsup] : all) {
      if (qsup == sup && q.Length() > p.Length() && Contains(q, p)) {
        witnessed = true;
        break;
      }
    }
    EXPECT_TRUE(witnessed) << p.ToString();
  }
  // Reconstruction: every frequent pattern is contained in some maximal.
  for (const auto& [p, sup] : all) {
    (void)sup;
    bool covered = false;
    for (const auto& [m, msup] : maximal) {
      (void)msup;
      if (Contains(m, p)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << p.ToString();
  }
}

TEST(Postprocess, Summary) {
  const PatternSet all = MakeSet({
      {"(a)", 5},
      {"(a)(b)", 5},
      {"(c)", 2},
  });
  const PatternSummary s = Summarize(all);
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.maximal, 2u);  // (a)(b), (c)
  EXPECT_EQ(s.closed, 2u);   // (a) absorbed by (a)(b) at equal support
  EXPECT_EQ(s.max_length, 2u);
  EXPECT_EQ(s.max_support, 5u);
}

TEST(Postprocess, EmptyInput) {
  EXPECT_TRUE(MaximalPatterns(PatternSet()).empty());
  EXPECT_TRUE(ClosedPatterns(PatternSet()).empty());
  EXPECT_EQ(Summarize(PatternSet()).total, 0u);
}

// Patterns where several one-item deletions coincide or nest: (a)(a) has
// two deletions equal to (a); (a,b)(a,b) and (a,b)(a) reach the same
// 2-sequences along several paths. Mined at delta 1 the set holds every
// subsequence of the database, at supports 1..3.
TEST(Postprocess, CoincidingDeletionsMatchOracle) {
  SequenceDatabase db;
  db.Add(Seq("(a,b)(a,b)"));
  db.Add(Seq("(a,b)(a)"));
  db.Add(Seq("(a)(a)"));
  MineOptions options;
  options.min_support_count = 1;
  const PatternSet all = CreateMiner("disc-all")->Mine(db, options);
  ASSERT_TRUE(all.Contains(Seq("(a,b)(a,b)")));
  ExpectMatchesOracle(all, "mined");
  ExpectMatchesOracle(MakeSet({{"(a)", 2}, {"(a)(a)", 2}}), "(a)(a) equal");
  ExpectMatchesOracle(MakeSet({{"(a)", 3}, {"(a)(a)", 2}}), "(a)(a) less");
  ExpectMatchesOracle(
      MakeSet({{"(a)", 2}, {"(b)", 2}, {"(a,b)", 2}, {"(a)(a)", 2},
               {"(a)(b)", 2}, {"(b)(a)", 2}, {"(a,b)(a)", 2}}),
      "(a,b)(a) equal");
}

// The golden corpus mined by both paper families (DISC and projection),
// plus every convex subset the library produces from such a result.
TEST(Postprocess, LinearPassMatchesOracleOnGoldenCorpus) {
  struct Corpus {
    const char* db;
    std::uint32_t delta;
  };
  for (const Corpus& corpus : {Corpus{"quest_tiny.spmf", 4},
                               Corpus{"quest_mid.spmf", 6},
                               Corpus{"quest_dense.spmf", 8}}) {
    SCOPED_TRACE(corpus.db);
    const SequenceDatabase db = LoadSpmf(DataPath(corpus.db));
    MineOptions options;
    options.min_support_count = corpus.delta;
    const PatternSet all = CreateMiner("disc-all")->Mine(db, options);
    ASSERT_EQ(CreateMiner("pseudo")->Mine(db, options), all);
    ExpectMatchesOracle(all, "mined");
    ExpectMatchesOracle(MaximalPatterns(all), "MaximalPatterns output");

    for (const std::uint32_t cap : {2u, 3u}) {
      MineOptions capped = options;
      capped.max_length = cap;
      for (const char* algo : {"disc-all", "pseudo"}) {
        ExpectMatchesOracle(CreateMiner(algo)->Mine(db, capped),
                            std::string(algo) + " max_length " +
                                std::to_string(cap));
      }
    }

    std::vector<Item> first_items;
    for (const auto& [p, sup] : all) {
      (void)sup;
      if (first_items.empty() || first_items.back() != p.ItemAt(0)) {
        first_items.push_back(p.ItemAt(0));
      }
    }
    for (const std::size_t quarter : {1u, 2u, 3u}) {
      const Item cutoff = first_items[first_items.size() * quarter / 4];
      PatternSet prefix = all;
      prefix.EraseFromFirstItem(cutoff);
      ExpectMatchesOracle(prefix,
                          "EraseFromFirstItem " + std::to_string(cutoff));
    }

    for (const std::uint32_t factor : {2u, 4u}) {
      PatternSet floor;
      for (const auto& [p, sup] : all) {
        if (sup >= factor * corpus.delta) floor.Add(p, sup);
      }
      ExpectMatchesOracle(floor, "support floor x" + std::to_string(factor));
    }

    for (const std::uint32_t min_length : {2u, 3u}) {
      TopKOptions topk;
      topk.k = 40;
      topk.min_length = min_length;
      ExpectMatchesOracle(MineTopK(db, topk),
                          "top-k min_length " + std::to_string(min_length));
    }
  }
}

#if DISC_OBS_ENABLED
// Sum of |q| over the patterns of length >= 2: the probe count of one
// deletion pass.
std::uint64_t DeletionProbes(const PatternSet& patterns) {
  std::uint64_t sum = 0;
  for (const auto& [p, sup] : patterns) {
    (void)sup;
    if (p.Length() >= 2) sum += p.Length();
  }
  return sum;
}

// No hidden quadratic step: one pass makes exactly one probe per item of
// every pattern of length >= 2.
TEST(Postprocess, ProbeCountIsLinear) {
  obs::Counter* probes =
      obs::MetricsRegistry::Global().counter("algo.postprocess.probes");
  const PatternSet hand = MakeSet({
      {"(a)", 5},
      {"(b)", 4},
      {"(a)(b)", 3},
      {"(a,c)", 2},
      {"(c)", 2},
      {"(c)(b)", 2},
      {"(a,c)(b)", 2},
  });
  std::uint64_t before = probes->value();
  Summarize(hand);
  EXPECT_EQ(probes->value() - before, 2u + 2u + 2u + 3u);
  EXPECT_EQ(DeletionProbes(hand), 9u);

  const SequenceDatabase db = LoadSpmf(DataPath("quest_mid.spmf"));
  MineOptions options;
  options.min_support_count = 6;
  const PatternSet all = CreateMiner("disc-all")->Mine(db, options);
  before = probes->value();
  Summarize(all);
  EXPECT_LE(probes->value() - before, DeletionProbes(all));
  EXPECT_GT(probes->value() - before, 0u);
}
#endif  // DISC_OBS_ENABLED

}  // namespace
}  // namespace disc
