// Quickstart: solve a Part-Wise Aggregation instance end to end.
//
// Build a graph, choose a partition into connected parts, hand both to
// PaSolver, and ask for aggregates. The solver runs the paper's full
// pipeline on a simulated CONGEST network — leader election, BFS tree,
// sub-part division, shortcut construction with the doubling trick, then
// Algorithm 1 — and reports exactly what a real deployment would care
// about: rounds and messages.
//
//   $ ./quickstart
#include <cstdio>

#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"

int main() {
  using namespace pw;

  // A 12 x 40 grid; each row is one part (a "chain of sensors" per row).
  const int rows = 12, cols = 40;
  graph::Graph g = graph::gen::grid(rows, cols);
  graph::Partition parts = graph::grid_row_partition(rows, cols);
  parts.elect_min_id_leaders();

  // One engine per simulated network; every message the algorithms send
  // flows through it.
  // Sequential (the default policy): results and accounting are identical
  // at any thread count (DESIGN.md §7); only the wall clock moves.
  sim::Engine engine(g, sim::ExecutionPolicy{});
  core::PaSolver solver(engine, {});
  solver.set_partition(parts);

  // Each node contributes a value; ask each part for its minimum and total.
  std::vector<std::uint64_t> readings(g.n());
  for (int v = 0; v < g.n(); ++v) readings[v] = 100 + (v * 37) % 900;

  const auto mins = solver.aggregate(agg::min(), readings);
  const auto sums = solver.aggregate(agg::sum(), readings);

  std::printf("Part-wise aggregation over %d nodes, %d parts\n", g.n(),
              parts.num_parts);
  for (int i = 0; i < std::min(4, parts.num_parts); ++i)
    std::printf("  part %2d: min reading = %4llu, total = %6llu\n", i,
                static_cast<unsigned long long>(mins.part_value[i]),
                static_cast<unsigned long long>(sums.part_value[i]));
  std::printf("  ...\n");
  std::printf("one PA query cost: %llu rounds, %llu messages (m = %d)\n",
              static_cast<unsigned long long>(sums.stats.rounds),
              static_cast<unsigned long long>(sums.stats.messages), g.m());
  std::printf("shortcut found: congestion %d at doubling guess %d\n",
              shortcut::congestion(solver.structures().sc),
              solver.structures().final_guess);
  return 0;
}
