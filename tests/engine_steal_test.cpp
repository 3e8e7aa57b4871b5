// Lowest-index merge claims (DESIGN.md §8): a free thread scans the stage-2
// publish states for the first published task and CASes it to claimed —
// ready_state_'s CAS is the exactly-once arbiter. These tests drive the
// Executor directly: exactly-once stage-2 execution under repeated
// dispatches where every claimer races for the same lowest entry, surplus
// threads that only claim, the empty-scan park/retry path (one slow
// publisher forces every other thread to park until its seals land), and the
// degenerate inline dispatch. The TSan CI job runs this file (name matches
// its -R filter) — the claim CAS and the park handshake are exactly what it
// exists to check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/sim/executor.hpp"

namespace pw::sim {
namespace {

// All-to-all dependency graph over `t` tasks: every stage-1 task feeds every
// stage-2 task, so nothing publishes before the last seal and the claim
// traffic all lands at once — the worst case for the claim CAS.
struct AllToAll {
  explicit AllToAll(int t) : out_beg(static_cast<std::size_t>(t) + 1) {
    for (int s = 0; s <= t; ++s)
      out_beg[static_cast<std::size_t>(s)] = s * t;
    for (int s = 0; s < t; ++s)
      for (int d = 0; d < t; ++d) out.push_back(d);
    dep_count.assign(static_cast<std::size_t>(t), t);
  }
  Executor::PipelineDeps deps() const {
    return {out_beg.data(), out.data(), dep_count.data()};
  }
  std::vector<int> out_beg, out, dep_count;
};

// Identity graph: task s feeds only stage-2 task s, so publishes trickle in
// one at a time and fast threads repeatedly find nothing to claim and park.
struct Identity {
  explicit Identity(int t) : out_beg(static_cast<std::size_t>(t) + 1) {
    for (int s = 0; s <= t; ++s) out_beg[static_cast<std::size_t>(s)] = s;
    for (int s = 0; s < t; ++s) out.push_back(s);
    dep_count.assign(static_cast<std::size_t>(t), 1);
  }
  Executor::PipelineDeps deps() const {
    return {out_beg.data(), out.data(), dep_count.data()};
  }
  std::vector<int> out_beg, out, dep_count;
};

struct ClaimCtx {
  std::vector<std::atomic<int>> runs;  // per stage-2 task
  int slow_task = -1;                  // stage-1 task that busy-waits
  explicit ClaimCtx(int t) : runs(static_cast<std::size_t>(t)) {}
  void reset() {
    for (auto& r : runs) r.store(0, std::memory_order_relaxed);
  }
};

void stage1(void* ctx, int task) {
  auto* c = static_cast<ClaimCtx*>(ctx);
  if (task == c->slow_task) {
    // Long enough that on real cores the siblings run out of claimable work
    // and park before this thread's seals publish anything new.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
}

void stage2(void* ctx, int task) {
  static_cast<ClaimCtx*>(ctx)
      ->runs[static_cast<std::size_t>(task)]
      .fetch_add(1, std::memory_order_relaxed);
}

// Every claim is contended: the all-to-all graph publishes all tasks from
// whichever thread seals last, so every thread's scan lands on the same
// lowest entry at once. Repeats shake the interleavings; each dispatch
// must run each stage-2 task exactly once (a double claim would
// double-count, a lost task would hang the dispatch).
TEST(MergeClaims, ExactlyOnceUnderRepeatedContendedDispatches) {
  const int kThreads = 4;
  Executor ex(kThreads);
  AllToAll graph(kThreads);
  ClaimCtx ctx(kThreads);
  for (int rep = 0; rep < 300; ++rep) {
    ctx.reset();
    ex.two_stage(kThreads, stage1, stage2, graph.deps(), &ctx);
    for (int d = 0; d < kThreads; ++d)
      ASSERT_EQ(ctx.runs[static_cast<std::size_t>(d)].load(), 1)
          << "rep " << rep << " task " << d;
  }
}

// Fewer tasks than threads: the surplus threads skip stage 1 entirely and
// live in the claim loop, racing the publishers for every task.
TEST(MergeClaims, SurplusThreadsOnlyClaim) {
  const int kThreads = 4;
  const int kTasks = 2;
  Executor ex(kThreads);
  AllToAll graph(kTasks);
  ClaimCtx ctx(kTasks);
  for (int rep = 0; rep < 300; ++rep) {
    ctx.reset();
    ex.two_stage(kTasks, stage1, stage2, graph.deps(), &ctx);
    for (int d = 0; d < kTasks; ++d)
      ASSERT_EQ(ctx.runs[static_cast<std::size_t>(d)].load(), 1)
          << "rep " << rep << " task " << d;
  }
}

// One slow stage-1 task under the identity graph: the fast threads run their
// own stage-2 task immediately, find nothing else published, and park; the
// slow thread's eventual publish must wake a parked claimer, and
// the final claim's broadcast must release the rest. A missed wake here is a
// hang, which the armed watchdog converts into a loud failure.
TEST(MergeClaims, EmptyScanParksUntilSlowPublisherSeals) {
  const int kThreads = 4;
  Executor ex(kThreads);
  Identity graph(kThreads);
  ClaimCtx ctx(kThreads);
  ctx.slow_task = kThreads - 1;
  for (int rep = 0; rep < 50; ++rep) {
    ctx.reset();
    ex.two_stage(kThreads, stage1, stage2, graph.deps(), &ctx);
    for (int d = 0; d < kThreads; ++d)
      ASSERT_EQ(ctx.runs[static_cast<std::size_t>(d)].load(), 1)
          << "rep " << rep << " task " << d;
  }
}

// The single-thread executor and the single-task dispatch both take the
// inline path: no claims, no workers, stage 2 right after stage 1.
TEST(MergeClaims, DegenerateDispatchesRunInline) {
  Executor ex1(1);
  AllToAll graph(1);
  ClaimCtx ctx(1);
  ex1.two_stage(1, stage1, stage2, graph.deps(), &ctx);
  EXPECT_EQ(ctx.runs[0].load(), 1);

  Executor ex4(4);
  ctx.reset();
  ex4.two_stage(1, stage1, stage2, graph.deps(), &ctx);
  EXPECT_EQ(ctx.runs[0].load(), 1);
}

}  // namespace
}  // namespace pw::sim
