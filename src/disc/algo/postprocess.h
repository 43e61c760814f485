// Post-processing of mined pattern sets: maximal and closed pattern
// filtering, and pattern-set summaries. The paper reports "the length of
// the maximal frequent sequences is at least 14" for its densest run
// (§4.1); these helpers compute such summaries from any miner's output.
//
// Cost: one pass over one-item deletions. Each pattern q of length k >= 2
// has its k one-item deletions looked up in the set (an emptied itemset
// is dropped), so a pass makes sum(|q|) = O(n·k) probes of O(log n)
// comparisons each (counted by "algo.postprocess.probes"), keeps a flag
// byte, a view and a support per pattern, and never copies the set. p is
// non-maximal iff some probe hits it, and non-closed iff some hit comes
// from a q of equal support (docs/ALGORITHM.md, "Maximal/closed in
// O(n·k)").
//
// Precondition — a *convex* input: whenever p ⊂ q are both in the set,
// some supersequence of p one item longer and contained in q is in the
// set too. Every miner output is convex, and so are a max_length-capped
// output, an EraseFromFirstItem prefix, a support-floor subset, a top-k
// result, a sharded merge, and the antichain MaximalPatterns returns. A
// ClosedPatterns output is NOT convex: never filter or summarise it again;
// take both from the mined set (Summarize with PatternKind::kClosed).
#ifndef DISC_ALGO_POSTPROCESS_H_
#define DISC_ALGO_POSTPROCESS_H_

#include "disc/algo/pattern_set.h"

namespace disc {

/// The maximal patterns: frequent sequences contained in no other frequent
/// sequence. Convex input only (see file comment).
PatternSet MaximalPatterns(const PatternSet& patterns);

/// The closed patterns: frequent sequences with no frequent supersequence
/// of the *same support*. Convex input only (see file comment).
PatternSet ClosedPatterns(const PatternSet& patterns);

/// Summary statistics of a result set.
struct PatternSummary {
  std::size_t total = 0;
  std::size_t maximal = 0;
  std::size_t closed = 0;
  std::uint32_t max_length = 0;
  std::uint32_t max_support = 0;
};

/// Which patterns of a (convex) set a summary describes.
enum class PatternKind { kAll, kMaximal, kClosed };

/// Summary of the `kind` patterns of a convex set, from one deletion pass
/// over the whole set; when `kept` is non-null it receives those patterns.
/// The counts are those of the kept set itself: maximal(closed(S)) =
/// maximal(S) and every pattern of maximal(S) or closed(S) is closed in it,
/// so Summarize(S, kClosed) equals the summary of ClosedPatterns(S) without
/// a second pass over a non-convex set.
PatternSummary Summarize(const PatternSet& patterns,
                         PatternKind kind = PatternKind::kAll,
                         PatternSet* kept = nullptr);

}  // namespace disc

#endif  // DISC_ALGO_POSTPROCESS_H_
