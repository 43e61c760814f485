#include "disc/algo/postprocess.h"

#include <algorithm>
#include <vector>

#include "disc/obs/metrics.h"
#include "disc/order/compare.h"

namespace disc {

DISC_OBS_COUNTER(g_probes, "algo.postprocess.probes");

constexpr std::uint8_t kNonMaximal = 1;
constexpr std::uint8_t kNonClosed = 2;

PatternSummary Summarize(const PatternSet& patterns, PatternKind kind,
                         PatternSet* kept) {
  // The deletion pass (see header). Iteration order is the comparative
  // order, so a probe is a binary search over `sorted`; flags[i] belongs to
  // the i-th pattern. Each deletion's CSR is rebuilt in `items`/`offsets`.
  std::vector<SequenceView> sorted;
  std::vector<std::uint32_t> supports;
  for (const auto& [p, sup] : patterns) {
    sorted.emplace_back(p);
    supports.push_back(sup);
  }
  std::vector<std::uint8_t> flags(sorted.size(), 0);
  std::vector<Item> items;
  std::vector<std::uint32_t> offsets;
  for (const auto& [q, sup] : patterns) {
    if (q.Length() < 2) continue;
    DISC_OBS_ADD(g_probes, q.Length());
    for (std::uint32_t pos = 0; pos < q.Length(); ++pos) {
      items = q.items();
      items.erase(items.begin() + pos);
      offsets = q.offsets();
      const std::uint32_t txn = q.TxnOf(pos);
      for (std::size_t t = txn + 1; t < offsets.size(); ++t) --offsets[t];
      if (q.TxnSize(txn) == 1) offsets.erase(offsets.begin() + txn);
      const SequenceView deletion(
          items.data(), offsets.data(),
          static_cast<std::uint32_t>(offsets.size() - 1));
      const auto hit = std::lower_bound(sorted.begin(), sorted.end(),
                                        deletion, SequenceLess());
      if (hit == sorted.end() || *hit != deletion) continue;
      const auto i = static_cast<std::size_t>(hit - sorted.begin());
      flags[i] |= supports[i] == sup ? kNonMaximal | kNonClosed : kNonMaximal;
    }
  }

  const std::uint8_t drop = kind == PatternKind::kMaximal  ? kNonMaximal
                            : kind == PatternKind::kClosed ? kNonClosed
                                                           : 0;
  PatternSummary s;
  std::size_t i = 0;
  for (const auto& [p, sup] : patterns) {
    const std::uint8_t f = flags[i++];
    // Counted over the whole set: maximal(closed(S)) = maximal(S).
    if (!(f & kNonMaximal)) ++s.maximal;
    if (f & drop) continue;
    ++s.total;
    if (!(f & kNonClosed)) ++s.closed;
    s.max_length = std::max(s.max_length, p.Length());
    s.max_support = std::max(s.max_support, sup);
    if (kept != nullptr) kept->Add(p, sup);
  }
  return s;
}

PatternSet MaximalPatterns(const PatternSet& patterns) {
  PatternSet out;
  Summarize(patterns, PatternKind::kMaximal, &out);
  return out;
}

PatternSet ClosedPatterns(const PatternSet& patterns) {
  PatternSet out;
  Summarize(patterns, PatternKind::kClosed, &out);
  return out;
}

}  // namespace disc
