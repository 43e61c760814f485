// perfbench_layers — the benchmark's in-process driver. Two subcommands:
//
//   perfbench_layers gen --shape=fig9|fig8 --ncust=N --seed=S --out=DB.spmf
//
//     Generates the workload database with the library's Quest generator
//     (fixed base seed 42, the paper's Table 11 parameters for the shape as
//     disc::Fig9Params / disc::Fig8Params give them),
//     then renames the items by a random permutation and shuffles the
//     customers, both drawn from --seed. Every seed therefore gives an
//     isomorphic mining problem: the same pattern count and lengths, with a
//     different comparative order, partition layout and input bytes. The
//     isomorphism keeps run-to-run spread down to timing noise; plain Quest
//     seeds move the dense pattern count by +-20%.
//
//   perfbench_layers layers --spmf=DB.spmf --dsa=DB.dsa --deltas=D1,D2,..
//                           --threads=T --trace-pairs=P --trace-out=TRACE.json
//
//     Times calls into each module's public functions on the workload's
//     inputs, each inside a span of its own, and prints one JSON object of
//     per-layer seconds and byte counts. Also runs the workload's mines
//     once with the library tracer on and writes that trace, with the
//     summed MineStats counters, for the runs that have no traced CLI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "disc/benchlib/workload.h"
#include "disc/disc.h"
#include "disc/common/flags.h"
#include "spmf.h"

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The driver's own spans: one per timed call, printed with the metrics.
struct Span {
  std::string name;
  double start_s = 0, dur_s = 0;
};
std::vector<Span> g_spans;
const Clock::time_point g_epoch = Clock::now();

template <typename Fn>
double Timed(const std::string& name, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const double dur = Since(t0);
  g_spans.push_back(
      {name, std::chrono::duration<double>(t0 - g_epoch).count(), dur});
  return dur;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// Median of `reps` timed calls (for the sub-second layers).
template <typename Fn>
double TimedMedian(const std::string& name, int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(Timed(name, fn));
  return Median(std::move(t));
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_layers: %s\n", what.c_str());
  std::exit(1);
}

int Gen(const disc::Flags& flags) {
  const std::string shape = flags.GetString("shape", "");
  const auto ncust = static_cast<std::uint32_t>(flags.GetInt("ncust", 0));
  disc::QuestParams params;
  if (shape == "fig9") {  // paper Fig 9: dense, long transactions
    params = disc::Fig9Params(ncust);
  } else if (shape == "fig8") {  // paper Fig 8: sparse
    params = disc::Fig8Params(ncust);
  } else {
    Die("--shape must be fig9 or fig8");
  }
  params.seed = 42;
  const std::string out = flags.GetString("out", "");
  if (params.ncust < 1 || out.empty()) Die("gen needs --ncust and --out");

  std::vector<perfbench::Seq> db;
  std::string err;
  if (!perfbench::ParseDatabase(
          disc::ToSpmfString(disc::GenerateQuestDatabase(params)), &db,
          &err)) {
    Die("generated database: " + err);
  }
  std::mt19937_64 rng(static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  std::vector<std::uint32_t> rename(params.nitems + 1);
  for (std::uint32_t i = 0; i <= params.nitems; ++i) rename[i] = i;
  std::shuffle(rename.begin() + 1, rename.end(), rng);
  for (perfbench::Seq& seq : db) {
    for (perfbench::Itemset& set : seq) {
      for (std::uint32_t& item : set) {
        if (item > params.nitems) Die("item outside 1..nitems");
        item = rename[item];
      }
      std::sort(set.begin(), set.end());
    }
  }
  std::shuffle(db.begin(), db.end(), rng);
  const std::string text = perfbench::FormatDatabase(db);
  std::FILE* f = std::fopen(out.c_str(), "wb");
  if (f == nullptr || std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
      std::fclose(f) != 0) {
    Die("cannot write " + out);
  }
  std::printf("{\"sequences\": %zu, \"bytes\": %zu}\n", db.size(),
              text.size());
  return 0;
}

std::vector<std::uint32_t> ParseDeltas(const std::string& s) {
  std::vector<std::uint32_t> out;
  std::stringstream in(s);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
  }
  if (out.empty()) Die("--deltas is empty");
  return out;
}

// Largest pattern set given to the quadratic post-processing layer.
constexpr std::size_t kPostCap = 10000;

// The result's patterns with support >= floor, for the quadratic
// post-processing layer: the floor doubles from delta until at most
// kPostCap patterns remain, so large results are measured on their most
// frequent part instead of running for minutes.
disc::PatternSet Capped(const disc::PatternSet& all, std::uint32_t delta) {
  if (all.size() <= kPostCap) return all;
  for (std::uint32_t floor = 2 * delta;; floor *= 2) {
    disc::PatternSet out;
    for (const auto& [seq, sup] : all) {
      if (sup >= floor) out.Add(seq, sup);
    }
    if (out.size() <= kPostCap) return out;
  }
}

// CPU seconds of this process (every thread), for the tracer comparison:
// CPU time is not stretched by the waits that make wall time noisy.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int Layers(const disc::Flags& flags) {
  const std::string spmf = flags.GetString("spmf", "");
  const std::string dsa = flags.GetString("dsa", "");
  const std::vector<std::uint32_t> deltas =
      ParseDeltas(flags.GetString("deltas", ""));
  const auto threads = static_cast<std::uint32_t>(flags.GetInt("threads", 1));
  const int trace_pairs = static_cast<int>(flags.GetInt("trace-pairs", 0));
  const std::string trace_out = flags.GetString("trace-out", "");
  if (spmf.empty() || dsa.empty() || trace_out.empty()) {
    Die("layers needs --spmf, --dsa and --trace-out");
  }

  std::vector<std::pair<std::string, double>> m;
  std::shared_ptr<disc::SequenceDatabase> db;
  m.emplace_back("seq.parse_s", TimedMedian("seq.parse", 3, [&] {
                   auto loaded = disc::TryLoadSpmf(spmf);
                   if (!loaded.ok()) Die(loaded.status().ToString());
                   db = std::make_shared<disc::SequenceDatabase>(
                       std::move(*loaded));
                 }));
  m.emplace_back("seq.dsa_load_s", TimedMedian("seq.dsa_load", 3, [&] {
                   if (!disc::TryLoadDsa(dsa).ok()) Die("cannot load " + dsa);
                 }));
  m.emplace_back("core.first_level_s",
                 TimedMedian("core.first_level", 3, [&] {
                   if (!disc::BuildFirstLevelState(*db)) Die("first level");
                 }));

  double disc_s = 0, pseudo_s = 0, ser_s = 0, max_s = 0, closed_s = 0;
  std::size_t bytes = 0;
  for (std::uint32_t delta : deltas) {
    disc::MineOptions opt;
    opt.min_support_count = delta;
    opt.threads = threads;
    disc::MineResult mined;
    disc_s += Timed("mine.disc-all", [&] {
      mined = disc::CreateMiner("disc-all")->TryMine(*db, opt);
    });
    disc::MineResult base;
    opt.threads = 1;
    pseudo_s += Timed("mine.pseudo", [&] {
      base = disc::CreateMiner("pseudo")->TryMine(*db, opt);
    });
    if (!mined.status.ok() || !base.status.ok()) Die("mine failed");
    if (mined.patterns != base.patterns) Die("disc-all and pseudo differ");
    std::string text;
    ser_s += Timed("algo.serialize", [&] {
      text = disc::ToSpmfPatternString(mined.patterns);
    });
    bytes += text.size();
    const disc::PatternSet post = Capped(mined.patterns, delta);
    max_s += Timed("algo.maximal", [&] { disc::MaximalPatterns(post); });
    closed_s += Timed("algo.closed", [&] { disc::ClosedPatterns(post); });
  }
  m.emplace_back("mine.disc-all_s", disc_s);
  m.emplace_back("mine.pseudo_s", pseudo_s);
  m.emplace_back("algo.serialize_s", ser_s);
  m.emplace_back("algo.result_bytes", static_cast<double>(bytes));
  m.emplace_back("algo.maximal_s", max_s);
  m.emplace_back("algo.closed_s", closed_s);

  // Engine: after one untimed sweep (page-in, allocator warm-up), each
  // threshold is mined alternately cold (cache dropped first) and warm on
  // the first-level state the cold query just built, kEngineReps times;
  // each figure is the sum over thresholds of the median per threshold.
  constexpr int kEngineReps = 5;
  disc::engine::Engine::Config config;
  config.session_threads = 1;
  disc::engine::Engine engine(config);
  if (!engine.LoadPath(dsa).ok()) Die("engine cannot load " + dsa);
  const auto query = [&](const std::string& span, std::uint32_t delta) {
    disc::engine::MineRequest req;
    req.options.min_support_count = delta;
    req.options.threads = threads;
    return Timed(span, [&] {
      if (!engine.Mine(req).status.ok()) Die("engine mine failed");
    });
  };
  for (std::uint32_t delta : deltas) query("engine.warm_up", delta);
  double miss_s = 0, hit_s = 0;
  for (std::uint32_t delta : deltas) {
    std::vector<double> miss, hit;
    for (int i = 0; i < kEngineReps; ++i) {
      engine.InvalidateCache();
      miss.push_back(query("engine.query_miss", delta));
      hit.push_back(query("engine.query_hit", delta));
    }
    miss_s += Median(miss);
    hit_s += Median(hit);
  }
  m.emplace_back("engine.query_miss_s", miss_s);
  m.emplace_back("engine.query_hit_s", hit_s);

  // Warm sweeps alternately untraced and traced (the order flips every
  // pair); the median of the per-pair CPU-time differences is the tracer's
  // cost on this workload.
  if (trace_pairs > 0) {
    disc::obs::Tracer& tracer = disc::obs::Tracer::Global();
    const auto sweep_cpu = [&](bool traced) {
      tracer.set_enabled(traced);
      const double cpu0 = ProcessCpuSeconds();
      for (std::uint32_t delta : deltas) {
        query(traced ? "obs.traced_query" : "obs.untraced_query", delta);
      }
      const double cpu = ProcessCpuSeconds() - cpu0;
      tracer.set_enabled(false);
      tracer.Clear();
      return cpu;
    };
    std::vector<double> diff;
    for (int i = 0; i < trace_pairs; ++i) {
      const bool traced_first = i % 2 == 1;
      const double a = sweep_cpu(traced_first);
      const double b = sweep_cpu(!traced_first);
      diff.push_back(traced_first ? a - b : b - a);
    }
    m.emplace_back("obs.trace_overhead_s", Median(diff));
  }

  // One traced mine per threshold: the library's own spans and counters.
  disc::obs::Tracer& tracer = disc::obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  for (std::uint32_t delta : deltas) {
    disc::MineOptions opt;
    opt.min_support_count = delta;
    opt.threads = threads;
    auto miner = disc::CreateMiner("disc-all");
    if (!miner->TryMine(*db, opt).status.ok()) Die("traced mine failed");
    for (const auto& [name, value] : miner->last_stats().counters) {
      auto it = std::find_if(counters.begin(), counters.end(),
                             [&](const auto& c) { return c.first == name; });
      if (it == counters.end()) {
        counters.emplace_back(name, value);
      } else {
        it->second += value;
      }
    }
  }
  tracer.set_enabled(false);
  std::string error;
  if (!tracer.WriteChromeTrace(trace_out, &error)) Die(error);

  std::printf("{\"metrics\": {");
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": %.9g", i ? ", " : "", m[i].first.c_str(),
                m[i].second);
  }
  std::printf("}, \"counters\": {");
  for (std::size_t i = 0; i < counters.size(); ++i) {
    std::printf("%s\"%s\": %llu", i ? ", " : "", counters[i].first.c_str(),
                static_cast<unsigned long long>(counters[i].second));
  }
  std::printf("}, \"spans\": [");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"start_s\": %.6f, \"dur_s\": %.6f}",
                i ? ", " : "", g_spans[i].name.c_str(), g_spans[i].start_s,
                g_spans[i].dur_s);
  }
  std::printf("]}\n");
  return 0;
}


}  // namespace

int main(int argc, char** argv) {
  const disc::Flags flags = disc::Flags::Parse(argc, argv);
  const std::string cmd =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (cmd == "gen") return Gen(flags);
  if (cmd == "layers") return Layers(flags);
  std::fprintf(stderr, "usage: perfbench_layers gen|layers [flags]\n");
  return 2;
}
