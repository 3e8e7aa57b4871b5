// Auditing a claimed backbone: distributed verification (Corollary A.1).
//
// An operator claims a set of links forms a spanning tree of the network
// (a broadcast backbone). No single node can check that locally; the
// verification algorithms let the NETWORK check it in Õ(D + sqrt(n))
// rounds, every router learning the verdict. The demo also audits a
// firewall plan: does removing the marked links actually disconnect the
// untrusted segment (is it a cut)?
//
//   $ ./backbone_audit
#include <cstdio>

#include "src/apps/verification.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

int main() {
  using namespace pw;
  Rng rng(11);
  graph::Graph net = graph::gen::random_connected(600, 1800, rng);
  // Sequential (the default policy; DESIGN.md §7: policy never moves
  // results).
  const sim::ExecutionPolicy policy{};

  // Claimed backbone: a BFS tree... with one "fat finger" edge swapped in.
  const auto dist = graph::bfs_distances(net, 0);
  std::vector<char> backbone(net.m(), 0);
  std::vector<char> has_parent(net.n(), 0);
  for (int e = 0; e < net.m(); ++e) {
    const auto& ed = net.edge(e);
    int child = -1;
    if (dist[ed.u] == dist[ed.v] + 1) child = ed.u;
    if (dist[ed.v] == dist[ed.u] + 1) child = ed.v;
    if (child >= 0 && !has_parent[child]) {
      has_parent[child] = 1;
      backbone[e] = 1;
    }
  }

  {
    sim::Engine eng(net, policy);
    const auto v = apps::verify_spanning_tree(eng, backbone, {});
    std::printf("claimed backbone is a spanning tree: %s  (%llu rounds, %llu msgs)\n",
                v.ok ? "VERIFIED" : "REJECTED",
                static_cast<unsigned long long>(v.stats.rounds),
                static_cast<unsigned long long>(v.stats.messages));
  }

  // Sabotage: drop one backbone link.
  for (int e = 0; e < net.m(); ++e)
    if (backbone[e]) {
      backbone[e] = 0;
      break;
    }
  {
    sim::Engine eng(net, policy);
    const auto v = apps::verify_spanning_tree(eng, backbone, {});
    std::printf("after dropping one link:          %s\n",
                v.ok ? "VERIFIED" : "REJECTED");
  }

  // Firewall audit on a two-segment network with a known chokepoint.
  {
    auto seg1 = graph::gen::random_connected(250, 700, rng);
    auto seg2 = graph::gen::random_connected(250, 700, rng);
    std::vector<graph::Edge> edges = seg1.edges();
    for (const auto& e : seg2.edges()) edges.push_back({e.u + 250, e.v + 250, 1});
    edges.push_back({3, 253, 1});
    edges.push_back({7, 257, 1});
    graph::Graph two = graph::Graph::from_edges(500, std::move(edges));

    std::vector<char> firewall(two.m(), 0);
    firewall[two.m() - 1] = 1;
    firewall[two.m() - 2] = 1;  // both chokepoint links
    sim::Engine eng(two, policy);
    const auto v = apps::verify_cut(eng, firewall, {});
    std::printf("firewall plan severs the segments: %s\n",
                v.ok ? "VERIFIED (it is a cut)" : "REJECTED (traffic leaks)");

    sim::Engine eng2(two, policy);
    const auto st = apps::verify_s_t_connectivity(eng2, firewall, 3, 253, {});
    std::printf("chokepoint links alone connect 3 and 253: %s\n",
                st.ok ? "yes" : "no");
  }
  return 0;
}
