// Building a minimum spanning tree of a WAN, two ways.
//
// The MST is the classic "which links should the overlay keep" question.
// This demo runs Borůvka-over-PA (Corollary 1.3) and the GHS-style
// fragment-tree baseline on the same topology and prints the trade-off the
// paper closes: the baseline is frugal with messages but pays the fragment
// diameter in rounds; ours pays Õ(D + sqrt(n)) rounds at Õ(m) messages.
//
//   $ ./mst_demo
#include <cstdio>

#include "src/apps/mst.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

int main() {
  using namespace pw;
  Rng rng(7);

  // A WAN-ish topology: long light backbone chain + heavy crosslinks to a
  // small core, so MST fragments grow long while the diameter stays small.
  const int chain = 1200, spoke = 24;
  std::vector<graph::Edge> edges;
  for (int i = 0; i + 1 < chain; ++i)
    edges.push_back({i, i + 1, 1 + static_cast<graph::Weight>(rng.next_below(8))});
  for (int i = 0; i < chain; i += spoke)
    edges.push_back({chain, i, 100000 + static_cast<graph::Weight>(rng.next_below(1000))});
  graph::Graph wan = graph::Graph::from_edges(chain + 1, std::move(edges));

  std::printf("WAN: %d routers, %d links, diameter %d\n", wan.n(), wan.m(),
              graph::diameter_estimate(wan));

  // Sequential (the default policy; DESIGN.md §7: policy never moves
  // results).
  const sim::ExecutionPolicy policy{};
  sim::Engine ours_eng(wan, policy);
  const auto ours = apps::boruvka_mst(ours_eng, {});
  sim::Engine ghs_eng(wan, policy);
  const auto ghs = apps::ghs_style_mst(ghs_eng);

  apps::validate_spanning_tree(wan, ours.in_mst);
  std::printf("MST weight: %lld (reference: %lld)\n",
              static_cast<long long>(ours.total_weight),
              static_cast<long long>(apps::kruskal_mst_weight(wan)));
  std::printf("%-22s %10s %12s\n", "algorithm", "rounds", "messages");
  std::printf("%-22s %10llu %12llu\n", "Boruvka-over-PA (ours)",
              static_cast<unsigned long long>(ours.stats.rounds),
              static_cast<unsigned long long>(ours.stats.messages));
  std::printf("%-22s %10llu %12llu\n", "GHS-style baseline",
              static_cast<unsigned long long>(ghs.stats.rounds),
              static_cast<unsigned long long>(ghs.stats.messages));
  std::printf(
      "the paper's point: the baseline's rounds grow with fragment "
      "diameter (Theta(n) here), ours stay near the network diameter.\n");
  return 0;
}
