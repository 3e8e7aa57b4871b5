// perfbench — the repository benchmark: three of the paper's workloads run
// as closed loops from one process, every op checked against an independent
// sequential oracle.
//
//   perfbench --workload <mincut_cycle|mst_gnm|pa_apex> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--corrupt]
//             [--out-dir <dir>] [--commit <id>] [--source-digest <hex>]
//
// One op is one call into the library's public entry point:
//   mincut_cycle  apps::approx_min_cut(eps = 0.5) on gen::cycle(64), a fresh
//                 solver seed per op: ~33k rounds but only ~8 messages per
//                 round, so per-round fixed cost and the per-trial inner
//                 Engine construction dominate.
//   mst_gnm       apps::boruvka_mst on a weighted random_connected(2048,
//                 6144), a fresh graph per op: ~450 messages per round, so
//                 the data plane and algorithm code dominate; core is used
//                 build-heavy (two set_partition per two aggregate).
//   pa_apex       a PaSolver on apex_grid(32, 128): per op input one
//                 set_partition on a fresh random_bfs_partition (n/24 parts,
//                 a build op) then 16 aggregate(sum) queries on fresh values
//                 (the ops): core used query-heavy.
// pa_apex is not in BENCHMARK.json: on a shared 4-core host its 2T query
// tail and 2T build times spread 0.4-0.5x and 0.25x of their medians from run
// to run, so it runs by hand only.
//
// Every op input runs at 1 and at 2 engine threads, alternating which goes
// first. Each op input also makes one timed build (set_partition of a fresh
// PaSolver on the op's graph); on pa_apex that build is the group's own.
//
// Inputs derive from --seed, except the first counted_inputs() of every run:
// those come from a fixed reference seed, so the count metrics they feed
// (sim_rounds_per_op, sim_msgs_per_op and the per-layer counts) repeat
// exactly across runs and seeds.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: with --trace 0 the end-to-end metrics, with --trace 1 the
// per-layer ones, which come from spans recorded around each call into a
// layer plus the sim probes (see probe()). Provenance and the tail
// percentiles are printed on the lines before it and written, with the
// metrics, to <out-dir>/result-<workload>-<seed>-trace<t>.json; a traced run
// also writes the spans to <out-dir>/trace-<workload>-<seed>.json.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workloads.hpp"
#include "src/apps/mincut.hpp"
#include "src/apps/mst.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/shortcut/shortcut.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace pg = pw::graph;
namespace sim = pw::sim;
using pg::Graph;
using pg::Partition;
using pw::Rng;
using pw::core::PaSolver;
using pw::core::PaSolverConfig;

// Side s of an op pair runs on an engine with kThreads[s] threads.
constexpr std::array<int, 2> kThreads = {1, 2};
const char* const kSide[2] = {"1t", "2t"};
constexpr std::uint64_t kReferenceSeed = 0x5eed;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;     // self-test sizes
  bool corrupt = false;  // self-test: falsify one answer before its check
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// splitmix64 of (seed, i).
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) /
                             static_cast<double>(v.size());
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t count_above(const std::vector<double>& v, double x) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [x](double y) { return y > x; }));
}

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-6; }

bool same(const sim::PhaseStats& a, const sim::PhaseStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages;
}

Partition bfs_partition(const Graph& g, Rng& rng) {
  Partition p = pg::random_bfs_partition(g, std::max(2, g.n() / 24), rng);
  if (!p.has_leaders()) p.elect_min_id_leaders();
  return p;
}

// What the tree/shortcut/core layers report after one build.
constexpr std::array<const char*, 9> kBuildCountNames = {
    "tree.rounds",          "tree.messages",
    "shortcut.division_rounds", "shortcut.division_messages",
    "core.shortcut_rounds", "core.shortcut_messages",
    "shortcut.final_guess", "shortcut.congestion",
    "shortcut.block_parameter"};
using BuildCounts = std::array<double, kBuildCountNames.size()>;

BuildCounts build_counts(const PaSolver& s, const Graph& g) {
  const auto& st = s.structures();
  return {static_cast<double>(st.tree_stats.rounds),
          static_cast<double>(st.tree_stats.messages),
          static_cast<double>(st.division_stats.rounds),
          static_cast<double>(st.division_stats.messages),
          static_cast<double>(st.shortcut_stats.rounds),
          static_cast<double>(st.shortcut_stats.messages),
          static_cast<double>(st.final_guess),
          static_cast<double>(pw::shortcut::congestion(st.sc)),
          static_cast<double>(
              pw::shortcut::block_parameter(g, st.t, s.partition(), st.sc))};
}

// Everything one run accumulates. Nothing is recorded while `recording` is
// off (the warm-up input); times and counts come from untraced passes only.
struct Ledger {
  bool recording = true;
  std::array<std::vector<double>, 2> op_ms, build_ms;
  std::array<std::vector<double>, 2> traced_op_ms;  // traced passes
  std::vector<double> op_rounds, op_messages;       // counted inputs, 1T
  std::vector<BuildCounts> builds;                  // counted inputs, 1T
  std::vector<double> mst_phases, mst_select_rounds, mst_select_messages;
  std::vector<double> mincut_trials, mincut_ratio;
  std::uint64_t attempted = 0, failed = 0;

  // Accounts `ops` ops that passed (ok) or failed their checks.
  void check(bool ok, int ops, const std::string& what) {
    if (!recording) return;
    attempted += static_cast<std::uint64_t>(ops);
    if (ok) return;
    failed += static_cast<std::uint64_t>(ops);
    if (failed <= 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
};

using EnginePair = std::array<std::unique_ptr<sim::Engine>, 2>;

class Workload {
 public:
  Workload(const Options& opt, Tracer& tr, Ledger& led)
      : opt_(opt), tr_(tr), led_(led) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds this run's inputs (graphs, weights, partitions, engines), timed
  // as setup_s. Called several times; each call replaces the last.
  virtual void setup() = 0;
  // Oracle answers for the current inputs; not part of setup_s.
  virtual void prepare_oracles() {}
  // Runs op input i at 1T and 2T (2T first when two_first), then checks.
  virtual void run_input(std::int64_t i, bool two_first) = 0;
  // The graph the sim probes run on: the op's own graph.
  virtual const Graph& probe_graph() const = 0;
  // Percentile of the op tail (op_tail_ms_1t; the 2T tail goes to the
  // samples line), and the inputs an untraced run makes at least so that 10
  // or more op samples per side lie beyond it.
  virtual double tail_pct() const = 0;
  virtual int min_inputs() const = 0;

  // The first inputs of every run: they feed the count metrics.
  int counted_inputs() const { return opt_.tiny ? 1 : 16; }

 protected:
  static std::array<std::size_t, 2> order(bool two_first) {
    return two_first ? std::array<std::size_t, 2>{1, 0}
                     : std::array<std::size_t, 2>{0, 1};
  }

  // Seed of input (or pool entry) i: fixed for the counted inputs.
  std::uint64_t input_seed(std::int64_t i) const {
    return mix(i < counted_inputs() ? kReferenceSeed : opt_.seed,
               static_cast<std::uint64_t>(i));
  }

  bool counted(std::int64_t i) const {
    return led_.recording && !tr_.on() && i < counted_inputs();
  }

  bool corrupt_now(std::int64_t i) const { return opt_.corrupt && i == 0; }

  // Times f() as one op on side s under a span named `call`.
  template <class F>
  auto op(std::size_t s, const char* call, F&& f) {
    tr_.set_threads(kThreads[s]);
    Span span(tr_, call);
    const std::int64_t t0 = now_ns();
    auto r = f();
    const double ms = ms_since(t0);
    if (led_.recording) (tr_.on() ? led_.traced_op_ms : led_.op_ms)[s].push_back(ms);
    return r;
  }

  // One timed build per side: a fresh PaSolver on each engine installs
  // partition p. The sides must agree on every structure count.
  void build_pair(std::int64_t i, bool two_first, const EnginePair& eng,
                  const Partition& p, std::array<std::optional<PaSolver>, 2>& solver) {
    PaSolverConfig cfg;
    cfg.seed = input_seed(i) ^ 0xb17dULL;
    std::array<BuildCounts, 2> c{};
    for (const std::size_t s : order(two_first)) {
      tr_.set_threads(kThreads[s]);
      solver[s].emplace(*eng[s], cfg);
      Partition copy = p;
      double ms = 0;
      {
        Span span(tr_, "core.set_partition");
        const std::int64_t t0 = now_ns();
        solver[s]->set_partition(std::move(copy));
        ms = ms_since(t0);
      }
      if (led_.recording && !tr_.on()) led_.build_ms[s].push_back(ms);
      c[s] = build_counts(*solver[s], eng[s]->graph());
    }
    led_.check(c[0] == c[1], 2, "build " + std::to_string(i) + ": 1T/2T structures differ");
    if (counted(i)) led_.builds.push_back(c[0]);
  }

  void count_op(std::int64_t i, const sim::PhaseStats& st) {
    if (!counted(i)) return;
    led_.op_rounds.push_back(static_cast<double>(st.rounds));
    led_.op_messages.push_back(static_cast<double>(st.messages));
  }

  // Side s of an op pair passes when it passed its oracle and both sides
  // agree; each failing side counts as one failed op.
  void check_pair(std::int64_t i, const std::array<bool, 2>& oracle_ok,
                  bool identical) {
    for (std::size_t s = 0; s < 2; ++s)
      led_.check(oracle_ok[s] && identical, 1,
                 opt_.workload + " input " + std::to_string(i) + " " + kSide[s] +
                     (oracle_ok[s] ? ": 1T/2T mismatch" : ": oracle mismatch"));
  }

  void make_engines(const Graph& g, EnginePair& eng) {
    for (std::size_t s = 0; s < 2; ++s) {
      tr_.set_threads(kThreads[s]);
      Span span(tr_, "sim.Engine");
      eng[s] = std::make_unique<sim::Engine>(g, sim::ExecutionPolicy{kThreads[s]});
    }
    tr_.set_threads(0);
  }

  std::vector<Partition> make_partitions(const Graph& g, int count) {
    std::vector<Partition> out;
    for (int k = 0; k < count; ++k) {
      Rng rng(input_seed(k) ^ 0xa11ceULL);
      Span span(tr_, "graph.partition");
      out.push_back(bfs_partition(g, rng));
    }
    return out;
  }

  const Options& opt_;
  Tracer& tr_;
  Ledger& led_;
};

// ---------------------------------------------------------------------------
class MinCutCycle final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    eng_ = {};  // engines point at g_: drop them before replacing it
    {
      Span span(tr_, "graph.generate");
      g_ = pg::gen::cycle(opt_.tiny ? 16 : 64);
    }
    parts_ = make_partitions(g_, opt_.tiny ? 2 : 64);
    make_engines(g_, eng_);
  }

  void prepare_oracles() override { exact_ = pw::apps::stoer_wagner_min_cut(g_); }

  void run_input(std::int64_t i, bool two_first) override {
    PaSolverConfig cfg;
    cfg.seed = input_seed(i);
    std::array<pw::apps::MinCutResult, 2> r;
    for (const std::size_t s : order(two_first))
      r[s] = op(s, "apps.approx_min_cut",
                [&] { return pw::apps::approx_min_cut(*eng_[s], kEps, cfg); });
    if (corrupt_now(i)) r[1].cut_value -= 1;

    std::array<bool, 2> ok{};
    for (std::size_t s = 0; s < 2; ++s) {
      Span span(tr_, "oracle.min_cut");
      const auto inside = std::count(r[s].side.begin(), r[s].side.end(), char{1});
      ok[s] = r[s].cut_value >= exact_ &&
              static_cast<double>(r[s].cut_value) <=
                  (1 + kEps) * static_cast<double>(exact_) &&
              static_cast<int>(r[s].side.size()) == g_.n() && inside > 0 &&
              inside < g_.n() && pw::apps::cut_weight(g_, r[s].side) == r[s].cut_value;
    }
    check_pair(i, ok,
               r[0].cut_value == r[1].cut_value && r[0].side == r[1].side &&
                   r[0].trials == r[1].trials && same(r[0].stats, r[1].stats));
    count_op(i, r[0].stats);
    if (counted(i)) {
      led_.mincut_trials.push_back(r[0].trials);
      led_.mincut_ratio.push_back(static_cast<double>(r[0].cut_value) /
                                  static_cast<double>(exact_));
    }

    std::array<std::optional<PaSolver>, 2> solver;
    build_pair(i, two_first, eng_, parts_[static_cast<std::size_t>(i) % parts_.size()],
               solver);
  }

  const Graph& probe_graph() const override { return g_; }
  double tail_pct() const override { return 85; }
  int min_inputs() const override { return opt_.tiny ? 1 : 67; }

 private:
  static constexpr double kEps = 0.5;
  Graph g_;
  std::vector<Partition> parts_;
  EnginePair eng_;
  std::int64_t exact_ = 0;
};

// ---------------------------------------------------------------------------
class MstGnm final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    in_.clear();
    const int n = opt_.tiny ? 128 : 2048;
    for (int k = 0; k < (opt_.tiny ? 2 : 32); ++k) {
      auto x = std::make_unique<Input>();
      Rng rng(input_seed(k) ^ 0x6e6dULL);
      {
        Span span(tr_, "graph.generate");
        x->g = pg::gen::with_random_weights(pg::gen::random_connected(n, 3 * n, rng),
                                            kMaxWeight, rng);
      }
      {
        Span span(tr_, "graph.partition");
        x->p = bfs_partition(x->g, rng);
      }
      make_engines(x->g, x->eng);
      in_.push_back(std::move(x));
    }
  }

  void prepare_oracles() override {
    for (auto& x : in_) x->mst_weight = pw::apps::kruskal_mst_weight(x->g);
  }

  void run_input(std::int64_t i, bool two_first) override {
    Input& x = *in_[static_cast<std::size_t>(i) % in_.size()];
    PaSolverConfig cfg;
    cfg.seed = input_seed(i);
    std::array<pw::apps::MstResult, 2> r;
    for (const std::size_t s : order(two_first))
      r[s] = op(s, "apps.boruvka_mst",
                [&] { return pw::apps::boruvka_mst(*x.eng[s], cfg); });
    if (corrupt_now(i)) r[1].total_weight += 1;

    std::array<bool, 2> ok{};
    for (std::size_t s = 0; s < 2; ++s) {
      Span span(tr_, "oracle.mst");
      ok[s] = r[s].total_weight == x.mst_weight &&
              is_spanning_tree(x.g, r[s].in_mst, r[s].total_weight);
    }
    check_pair(i, ok,
               r[0].in_mst == r[1].in_mst && r[0].total_weight == r[1].total_weight &&
                   r[0].phases == r[1].phases && same(r[0].stats, r[1].stats) &&
                   same(r[0].select_stats, r[1].select_stats));
    count_op(i, r[0].stats);
    if (counted(i)) {
      led_.mst_phases.push_back(r[0].phases);
      led_.mst_select_rounds.push_back(static_cast<double>(r[0].select_stats.rounds));
      led_.mst_select_messages.push_back(
          static_cast<double>(r[0].select_stats.messages));
    }

    std::array<std::optional<PaSolver>, 2> solver;
    build_pair(i, two_first, x.eng, x.p, solver);
  }

  const Graph& probe_graph() const override { return in_.front()->g; }
  double tail_pct() const override { return 70; }
  int min_inputs() const override { return opt_.tiny ? 1 : 34; }

 private:
  static constexpr pg::Weight kMaxWeight = 1 << 20;

  struct Input {
    Graph g;
    Partition p;
    EnginePair eng;  // declared after g: destroyed before it
    std::int64_t mst_weight = 0;
  };

  // n-1 edges that join n-1 distinct components, weighing `weight`.
  static bool is_spanning_tree(const Graph& g, const std::vector<char>& in,
                               std::int64_t weight) {
    if (static_cast<int>(in.size()) != g.m()) return false;
    std::vector<int> up(static_cast<std::size_t>(g.n()));
    std::iota(up.begin(), up.end(), 0);
    auto find = [&up](int v) {
      while (up[static_cast<std::size_t>(v)] != v)
        v = up[static_cast<std::size_t>(v)] =
            up[static_cast<std::size_t>(up[static_cast<std::size_t>(v)])];
      return v;
    };
    int joined = 0;
    std::int64_t w = 0;
    for (int e = 0; e < g.m(); ++e) {
      if (!in[static_cast<std::size_t>(e)]) continue;
      const int a = find(g.edge(e).u), b = find(g.edge(e).v);
      if (a == b) return false;
      up[static_cast<std::size_t>(a)] = b;
      ++joined;
      w += g.edge(e).w;
    }
    return joined == g.n() - 1 && w == weight;
  }

  std::vector<std::unique_ptr<Input>> in_;
};

// ---------------------------------------------------------------------------
class PaApex final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    eng_ = {};  // engines point at g_: drop them before replacing it
    {
      Span span(tr_, "graph.generate");
      g_ = opt_.tiny ? pg::gen::apex_grid(4, 16) : pg::gen::apex_grid(32, 128);
    }
    parts_ = make_partitions(g_, opt_.tiny ? 2 : 128);
    make_engines(g_, eng_);
  }

  void run_input(std::int64_t i, bool two_first) override {
    const Partition& p = parts_[static_cast<std::size_t>(i) % parts_.size()];
    const std::size_t queries = opt_.tiny ? 2 : 16;
    const auto n = static_cast<std::size_t>(g_.n());
    // Fresh values per query, and their per-part sums folded directly.
    Rng rng(input_seed(i) ^ 0x9a9aULL);
    std::vector<std::vector<std::uint64_t>> values(queries), expect(queries);
    for (std::size_t q = 0; q < queries; ++q) {
      values[q].resize(n);
      expect[q].assign(static_cast<std::size_t>(p.num_parts), 0);
      for (std::size_t v = 0; v < n; ++v) {
        values[q][v] = rng.next_below(1u << 20);
        expect[q][static_cast<std::size_t>(p.part_of[v])] += values[q][v];
      }
    }

    std::array<std::optional<PaSolver>, 2> solver;
    build_pair(i, two_first, eng_, p, solver);

    std::array<std::vector<pw::core::PaRunResult>, 2> r;
    for (const std::size_t s : order(two_first))
      for (std::size_t q = 0; q < queries; ++q)
        r[s].push_back(op(s, "core.aggregate", [&] {
          return solver[s]->aggregate(pw::agg::sum(), values[q]);
        }));
    if (corrupt_now(i)) r[1][0].part_value[0] ^= 1;

    for (std::size_t q = 0; q < queries; ++q) {
      std::array<bool, 2> ok{};
      for (std::size_t s = 0; s < 2; ++s) {
        Span span(tr_, "oracle.part_fold");
        const auto& x = r[s][q];
        ok[s] = x.part_value == expect[q] && x.node_value.size() == n;
        for (std::size_t v = 0; ok[s] && v < n; ++v)
          ok[s] = x.node_value[v] == expect[q][static_cast<std::size_t>(p.part_of[v])];
      }
      check_pair(i, ok,
                 r[0][q].part_value == r[1][q].part_value &&
                     r[0][q].node_value == r[1][q].node_value &&
                     same(r[0][q].stats, r[1][q].stats));
      count_op(i, r[0][q].stats);
    }
  }

  const Graph& probe_graph() const override { return g_; }
  // p90, not the highest percentile with 10 samples beyond (p99): the 2T
  // p99 is set by rare host descheduling and varied 0.6x across runs.
  double tail_pct() const override { return 90; }
  int min_inputs() const override { return opt_.tiny ? 1 : 16; }

 private:
  Graph g_;
  std::vector<Partition> parts_;
  EnginePair eng_;
};

// ---------------------------------------------------------------------------
// sim probes on the op's graph at one thread count (traced runs only).
struct Probe {
  double engine_ctor_ms = 0;
  double idle_round_ns = 0;         // one node re-waking itself through run()
  double flood_msg_ns = 0;          // flood_workload, idle-round cost subtracted
  double send_ns_per_msg = 0;       // manual round loop: the send() sweep
  double end_round_ns_per_msg = 0;  // manual round loop: end_round()
};

Probe probe(Tracer& tr, const Graph& g, int threads) {
  const sim::ExecutionPolicy pol{threads};
  tr.set_threads(threads);
  Probe out;
  std::vector<double> xs;

  for (int rep = 0; rep < 7; ++rep) {
    Span span(tr, "sim.probe.engine_ctor");
    const std::int64_t t0 = now_ns();
    auto e = std::make_unique<sim::Engine>(g, pol);
    xs.push_back(ms_since(t0));
  }
  out.engine_ctor_ms = median(xs);

  sim::Engine e(g, pol);
  xs.clear();
  const std::uint64_t idle_rounds = threads == 1 ? 100000 : 2000;
  for (int rep = 0; rep < 5; ++rep) {
    Span span(tr, "sim.probe.idle_round");
    e.wake(0);
    const std::int64_t t0 = now_ns();
    e.run([&e](int v) { e.wake(v); }, idle_rounds);
    xs.push_back(ms_since(t0) * 1e6 / static_cast<double>(idle_rounds));
    e.drain();
  }
  out.idle_round_ns = median(xs);

  // Floods per rep: ~4e5 messages, at most ~2e4 rounds.
  std::vector<char> seen(static_cast<std::size_t>(g.n()));
  const auto s0 = e.snap();
  pw::bench::flood_workload(e, seen);
  const auto one = e.since(s0);
  const auto floods = std::max<std::uint64_t>(
      1, std::min(400000 / std::max<std::uint64_t>(1, one.messages),
                  20000 / std::max<std::uint64_t>(1, one.rounds)));
  xs.clear();
  for (int rep = 0; rep < 3; ++rep) {
    Span span(tr, "sim.probe.flood");
    const auto snap = e.snap();
    const std::int64_t t0 = now_ns();
    for (std::uint64_t f = 0; f < floods; ++f) pw::bench::flood_workload(e, seen);
    const double ns = ms_since(t0) * 1e6;
    const auto st = e.since(snap);
    xs.push_back((ns - static_cast<double>(st.rounds) * out.idle_round_ns) /
                 static_cast<double>(std::max<std::uint64_t>(1, st.messages)));
  }
  out.flood_msg_ns = median(xs);

  // Manual round loop: every node sends on every port, each round.
  const auto per_round = static_cast<std::uint64_t>(g.num_arcs());
  const std::uint64_t rounds = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(20000, 400000 / std::max<std::uint64_t>(1, per_round)));
  std::vector<double> sends, closes;
  for (int rep = 0; rep < 3; ++rep) {
    Span span(tr, "sim.probe.end_round");
    std::int64_t send_ns = 0, close_ns = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      e.begin_round();
      const std::int64_t t0 = now_ns();
      for (int v = 0; v < g.n(); ++v)
        for (int p = 0; p < g.degree(v); ++p) e.send(v, p, sim::Msg{});
      const std::int64_t t1 = now_ns();
      e.end_round();
      send_ns += t1 - t0;
      close_ns += now_ns() - t1;
    }
    e.drain();
    const auto msgs = static_cast<double>(rounds * per_round);
    sends.push_back(static_cast<double>(send_ns) / msgs);
    closes.push_back(static_cast<double>(close_ns) / msgs);
  }
  out.send_ns_per_msg = median(sends);
  out.end_round_ns_per_msg = median(closes);
  tr.set_threads(0);
  return out;
}

// ---------------------------------------------------------------------------
// Provenance.
std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it would
// report a larger parent's peak (such as the Python launcher's).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name, unit;
  double value;
};

std::string array_json(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t k = 0; k < xs.size(); ++k) out += (k ? ", " : "") + num(xs[k]);
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t k = 0; k < ms.size(); ++k)
    out += (k ? ", " : "") + json_str(ms[k].name) + ": {\"value\": " +
           num(ms[k].value) + ", \"unit\": " + json_str(ms[k].unit) + "}";
  return out + "}";
}

std::unique_ptr<Workload> make_workload(const Options& opt, Tracer& tr, Ledger& led) {
  if (opt.workload == "mincut_cycle") return std::make_unique<MinCutCycle>(opt, tr, led);
  if (opt.workload == "mst_gnm") return std::make_unique<MstGnm>(opt, tr, led);
  if (opt.workload == "pa_apex") return std::make_unique<PaApex>(opt, tr, led);
  return nullptr;
}

// ---------------------------------------------------------------------------
int run(const Options& opt) {
  Tracer tr;
  Ledger led;
  const std::unique_ptr<Workload> w = make_workload(opt, tr, led);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::string load_start = read_first_line("/proc/loadavg");

  // Set-up. The first one builds the inputs; a traced run sets up 8 more
  // times so that the graph.* spans have samples. setup_s comes from an
  // untraced run's closed loop instead, which sets up again before every
  // second input: those set-ups sample the host over the whole run, as the
  // op times do, where set-ups made back to back at the start see only its
  // first moments (their median spread up to 2x from run to run on
  // mincut_cycle). Every set-up rebuilds the same inputs from the same
  // seeds; the oracles are recomputed after each, untimed.
  tr.set_on(opt.trace);
  for (int k = 0; k < (opt.trace ? 9 : 1); ++k) w->setup();
  tr.set_on(false);
  w->prepare_oracles();
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const std::int64_t t0 = now_ns();
    w->setup();
    setup_s.push_back(ms_since(t0) * 1e-3);
    w->prepare_oracles();
  };

  // Warm-up input: run and discarded.
  led.recording = false;
  w->run_input(0, false);
  led.recording = true;

  // Closed loop. A traced run makes every input twice, traced and untraced,
  // alternating which goes first, so the tracing overhead is measured on the
  // same inputs; it reports no tail, so it needs no minimum input count.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  const std::int64_t min_inputs =
      opt.trace ? w->counted_inputs() : std::max(w->counted_inputs(), w->min_inputs());
  std::int64_t inputs = 0;
  for (std::int64_t i = 0; i < min_inputs || now_ns() < deadline; ++i) {
    if (!opt.trace && i % 2 == 0) timed_setup();
    tr.set_op(i);
    for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
      tr.set_on(opt.trace && (pass == 0) == (i % 2 == 0));
      Span span(tr, "input");
      w->run_input(i, i % 2 == 1);
    }
    inputs = i + 1;
  }
  tr.set_on(false);
  tr.set_op(-1);

  std::array<Probe, 2> pr{};
  if (opt.trace) {
    tr.set_on(true);
    for (std::size_t s = 0; s < 2; ++s) pr[s] = probe(tr, w->probe_graph(), kThreads[s]);
    tr.set_on(false);
  }

  const double rounds = mean(led.op_rounds), msgs = mean(led.op_messages);
  std::array<double, 2> p50{}, tail{}, build_p50{};
  for (std::size_t s = 0; s < 2; ++s) {
    p50[s] = median(led.op_ms[s]);
    tail[s] = percentile(led.op_ms[s], w->tail_pct());
    build_p50[s] = median(led.build_ms[s]);
  }

  std::vector<Metric> ms;
  if (!opt.trace) {
    // The end-to-end times are the 1T ones. Every 2T latency is printed
    // on the samples line and as a per-layer metric, but not gated: under
    // other tenants' load on a shared host the 2T op and build medians
    // spread up to 0.3x of their median from run to run (the tail up to
    // 0.37x), so they measure the host's scheduler more than the program.
    ms.push_back({"setup_s", "s", median(setup_s)});
    ms.push_back({"op_p50_ms_1t", "ms", p50[0]});
    ms.push_back({"op_tail_ms_1t", "ms", tail[0]});
    ms.push_back({"build_p50_ms_1t", "ms", build_p50[0]});
    ms.push_back({"sim_rounds_per_op", "count", rounds});
    ms.push_back({"sim_msgs_per_op", "count", msgs});
    ms.push_back({"pass_frac", "frac",
                  1.0 - static_cast<double>(led.failed) /
                            static_cast<double>(std::max<std::uint64_t>(1, led.attempted))});
    ms.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  } else {
    ms.push_back({"graph.generate_ms", "ms", median(tr.durations_ms("graph.generate"))});
    ms.push_back({"graph.partition_ms", "ms", median(tr.durations_ms("graph.partition"))});
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string sfx = std::string("_") + kSide[s];
      ms.push_back({"sim.engine_ctor_ms" + sfx, "ms", pr[s].engine_ctor_ms});
      ms.push_back({"sim.idle_round_ns" + sfx, "ns", pr[s].idle_round_ns});
      ms.push_back({"sim.flood_msg_ns" + sfx, "ns", pr[s].flood_msg_ns});
      ms.push_back({"sim.send_ns_per_msg" + sfx, "ns", pr[s].send_ns_per_msg});
      ms.push_back({"sim.end_round_ns_per_msg" + sfx, "ns", pr[s].end_round_ns_per_msg});
      // An estimate: the engine's share of an op, from the probe costs.
      ms.push_back({"sim.engine_share" + sfx, "frac",
                    (rounds * pr[s].idle_round_ns + msgs * pr[s].flood_msg_ns) /
                        (p50[s] * 1e6)});
    }
    // The 2T latencies, which the sim executor's per-round cost moves most.
    ms.push_back({"sim.op_p50_ms_2t", "ms", p50[1]});
    ms.push_back({"sim.build_p50_ms_2t", "ms", build_p50[1]});
    // The same model's prediction of the 1T -> 2T gap, and its error.
    const double gap = p50[1] - p50[0];
    const double predicted =
        (rounds * (pr[1].idle_round_ns - pr[0].idle_round_ns) +
         msgs * (pr[1].flood_msg_ns - pr[0].flood_msg_ns)) * 1e-6;
    ms.push_back({"sim.gap_measured_ms", "ms", gap});
    ms.push_back({"sim.gap_predicted_ms", "ms", predicted});
    ms.push_back({"sim.gap_residual_ms", "ms", gap - predicted});
    for (std::size_t k = 0; k < kBuildCountNames.size(); ++k) {
      std::vector<double> xs;
      for (const auto& b : led.builds) xs.push_back(b[k]);
      ms.push_back({kBuildCountNames[k], "count", mean(xs)});
    }
    // The apps counters read 0 on a workload that makes no such call.
    ms.push_back({"apps.mst_phases", "count", mean(led.mst_phases)});
    ms.push_back({"apps.mst_select_rounds", "count", mean(led.mst_select_rounds)});
    ms.push_back({"apps.mst_select_messages", "count", mean(led.mst_select_messages)});
    ms.push_back({"apps.mincut_trials", "count", mean(led.mincut_trials)});
    ms.push_back({"apps.mincut_ratio", "ratio", mean(led.mincut_ratio)});
    ms.push_back({"trace.overhead_frac", "frac", median(led.traced_op_ms[0]) / p50[0] - 1.0});
  }

  // Provenance and the tail details, one line each, then the result file.
  const std::string load_end = read_first_line("/proc/loadavg");
  std::ostringstream prov;
  prov << "{\"workload\": " << json_str(opt.workload) << ", \"seed\": " << opt.seed
       << ", \"seconds\": " << num(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"tiny\": " << (opt.tiny ? 1 : 0)
       << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"affinity_cpus\": " << affinity_cpus()
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << json_str(cpu_model())
       << ", \"loadavg_start\": " << json_str(load_start)
       << ", \"loadavg_end\": " << json_str(load_end)
       << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
       << ", \"git_commit\": " << json_str(opt.commit)
       << ", \"source_sha256\": " << json_str(opt.source_digest) << "}";
  std::ostringstream samples;
  samples << "{\"inputs\": " << inputs << ", \"setups\": " << setup_s.size()
          << ", \"op_p50_ms_2t\": " << num(p50[1])
          << ", \"build_p50_ms_2t\": " << num(build_p50[1]);
  for (std::size_t s = 0; s < 2; ++s)
    samples << ", \"op_tail_ms_" << kSide[s] << "\": {\"value\": " << num(tail[s])
            << ", \"percentile\": " << num(w->tail_pct())
            << ", \"samples\": " << led.op_ms[s].size()
            << ", \"beyond\": " << count_above(led.op_ms[s], tail[s]) << "}";
  samples << "}";
  // Every timing sample, for offline analysis; kept out of stdout.
  std::ostringstream raw;
  raw << "{\"setup_s\": " << array_json(setup_s);
  for (std::size_t s = 0; s < 2; ++s)
    raw << ", \"op_ms_" << kSide[s] << "\": " << array_json(led.op_ms[s])
        << ", \"build_ms_" << kSide[s] << "\": " << array_json(led.build_ms[s]);
  raw << "}";

  std::ostringstream result;
  result << "{\"correct\": " << (led.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << led.attempted << ", \"failed\": " << led.failed
         << ", \"metrics\": " << metrics_json(ms) << "}";

  const std::string stem = opt.workload + "-" + std::to_string(opt.seed);
  {
    std::ofstream f(opt.out_dir + "/result-" + stem + "-trace" +
                    (opt.trace ? "1" : "0") + ".json");
    f << "{\"provenance\": " << prov.str() << ", \"samples\": " << samples.str()
      << ", \"result\": " << result.str() << ", \"raw\": " << raw.str() << "}\n";
    if (!f) std::fprintf(stderr, "perfbench: could not write the result file\n");
  }
  if (opt.trace && !tr.write_chrome(opt.out_dir + "/trace-" + stem + ".json"))
    std::fprintf(stderr, "perfbench: could not write the trace file\n");

  for (const auto& m : ms)
    std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("provenance %s\n", prov.str().c_str());
  std::printf("samples %s\n", samples.str().c_str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}

bool parse(int argc, char** argv, Options& o) {
  for (int k = 1; k < argc; ++k) {
    const std::string a = argv[k];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (a == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (k + 1 >= argc) return false;
    const char* v = argv[++k];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::string(v) == "1";
    else if (a == "--out-dir") o.out_dir = v;
    else if (a == "--commit") o.commit = v;
    else if (a == "--source-digest") o.source_digest = v;
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <mincut_cycle|mst_gnm|pa_apex> "
                 "--seed <n> --seconds <s> --trace <0|1> [--tiny] [--corrupt] "
                 "[--out-dir <dir>] [--commit <id>] [--source-digest <hex>]\n");
    return 2;
  }
  return perfbench::run(opt);
}
