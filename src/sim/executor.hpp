// Persistent worker pool for the sharded CONGEST data plane (DESIGN.md §7, §8).
//
// The engine runs two kinds of shard-parallel work per round: the user's
// per-node callbacks (Engine::run) and the deterministic end-of-round merge.
// Every round close fuses them into one dependency-driven two-stage dispatch
// that overlaps them (two_stage(), DESIGN.md §8); a manual round loop's
// end_round() runs the same dispatch with an empty stage 1. Workers are
// spawned once at engine construction and parked on a futex between
// dispatches — no per-round thread creation, no steady-state heap
// allocation, and a plain function pointer + context void* instead of
// std::function (whose assignment may allocate).
//
// Stage-1 task t always executes on thread t (the calling thread runs task
// 0), so a task owns the same shard every round — shard-local state needs no
// synchronization beyond the dispatch itself. Stage-2 tasks are instead
// claimed dynamically: a free thread scans the publish states for the
// lowest-index published task and CASes it to claimed. The CAS is the
// exactly-once arbiter: each task runs once, on whichever thread wins it.
//
// Sealing is shard-granular (DESIGN.md §8): when a stage-1 task's function
// returns, the executor seals every out-edge of that task at once, and the
// thread that seals a stage-2 task's last feeder publishes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace pw::sim {

// How Engine executes rounds. num_threads == 1 (the default) is the fully
// sequential engine: no worker threads are spawned and every dispatch runs
// inline. num_threads > 1 shards the data plane; Engine::run then closes
// every round with the shard-sealed pipelined close of DESIGN.md §8 (a
// worker that finishes its callback shard immediately starts merging any
// destination shard whose incoming traffic is complete). Accounting and
// delivery stay bit-identical to the sequential engine (DESIGN.md §7).
// Construct with designated initializers ({.num_threads = 4}).
struct ExecutionPolicy {
  int num_threads = 1;
};

class Executor {
 public:
  using TaskFn = void (*)(void* ctx, int task);

  // Static dependency graph of a two_stage() dispatch, owned by the caller
  // (the data plane builds it once at construction). Stage-1 task s feeds the
  // stage-2 tasks out[out_beg[s] .. out_beg[s+1]); dep_count[d] is the number
  // of distinct stage-1 tasks feeding stage-2 task d and must match the edge
  // lists exactly (every stage-2 task needs dep_count >= 1, so it cannot
  // start before the dispatch does).
  struct PipelineDeps {
    const int* out_beg = nullptr;    // size num_tasks + 1
    const int* out = nullptr;        // concatenated stage-2 out-lists
    const int* dep_count = nullptr;  // size num_tasks, each >= 1
  };

  // Spawns num_threads - 1 workers (thread 0 is the caller) and arms the
  // no-progress watchdog (§9) on the executor's blocking waits: if a wait
  // (the dispatch barrier or a merge-claim park) sees no executor-wide
  // progress for a full window, the run aborts with a diagnostic dump
  // instead of hanging. The window is kWatchdogMs (60 s) unless the
  // PW_WATCHDOG_MS environment variable overrides it for the whole process:
  // a non-negative decimal of milliseconds, 0 = off; anything else aborts.
  explicit Executor(int num_threads);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int num_threads() const { return num_threads_; }

  // Two-stage dependency-driven dispatch (DESIGN.md §8), the executor's only
  // dispatch: runs stage1(ctx, t) for every t in [0, num_tasks), task t on
  // thread t; the moment a thread finishes its stage-1 task it SEALS it —
  // decrementing the dependency counters of the stage-2 tasks it feeds
  // (deps.out) — and the thread that drops a counter to zero PUBLISHES that
  // stage-2 task. Free threads claim published stage-2 tasks lowest index
  // first (any thread, each task exactly once) until all num_tasks of them
  // have run, so stage-2 work for one task overlaps stage-1 work of tasks it
  // does not depend on. Returns when both stages finished everywhere (a full
  // barrier: every task's writes are visible to the caller); there is no
  // barrier BETWEEN the stages. num_tasks must not exceed num_threads(). The
  // dispatch ends with every dependency counter at zero (checked: a missed
  // seal would deadlock a merge, a double seal could run one twice). Not
  // reentrant, and this_task() inside a stage-2 task reports the stage-2
  // task id.
  void two_stage(int num_tasks, TaskFn stage1, TaskFn stage2,
                 const PipelineDeps& deps, void* ctx);

  // True when no dispatch is in flight (all workers have finished their
  // tasks and reported). Between dispatches this is the executor's resting
  // state; Engine::drain() checks it before discarding round state.
  bool quiescent() const {
    // PAIR(dispatch-barrier): acquire the workers' final task writes
    return outstanding_.load(std::memory_order_acquire) == 0;
  }

  // Task index of the calling thread inside a dispatch, -1 outside. During
  // stage 1 this is the shard the thread owns; the data plane uses it to pin
  // shard ownership violations.
  static int this_task();

  // --- watchdog (§9) --------------------------------------------------------

  // Progress heartbeat for long stage-1 sweeps: Engine::run ticks once per
  // callback so a legitimately slow round (one shard grinding through a huge
  // sweep while every other thread is parked on it) never reads as a hang.
  // Seals, stage completions, and dispatch exits beat implicitly. Callable
  // only from inside a stage-1 task (per-thread slot, relaxed, owned line).
  void tick();

  // Registers the owner's state dump, appended to the executor's own when
  // the watchdog fires (the data plane prints per-bucket fill states there).
  void set_watchdog_dump(void (*fn)(void*), void* ctx) {
    dump_fn_ = fn;
    dump_ctx_ = ctx;
  }

  // TEST HOOK (§9): the next seal by stage-1 task `task` of its edge into
  // stage-2 task `dest` is swallowed — the missed-seal deadlock class, on
  // demand. dest's dependency counter never reaches zero, some claim wait
  // never returns, and the watchdog must convert the hang into a diagnostic
  // abort.
  void debug_withhold_seal(int task, int dest) {
    withhold_task_.store(task, std::memory_order_relaxed);
    withhold_dest_.store(dest, std::memory_order_relaxed);
  }

 private:
  // Per-thread watchdog state, one cache line each: a monotone tick counter
  // (summed into the progress signature) and the phase/task pair the dump
  // prints for "where is every thread stuck".
  struct alignas(64) ThreadState {
    std::atomic<std::uint64_t> ticks{0};
    std::atomic<int> phase{0};  // kPhase*
    std::atomic<int> task{-1};
  };
  enum : int {
    kPhaseIdle = 0,
    kPhaseStage1,
    kPhaseBarrier,
    kPhaseClaim,
    kPhaseStage2,
  };
  // ready_state_ publish protocol values.
  enum : int {
    kReadyUnpublished = 0,
    kReadyPublished,
    kReadyClaimed,
  };

  void worker_loop(int idx);
  void two_stage_thread(int idx);
  void wait_barrier();
  // Seals stage-1 task tl_task's edge into stage-2 task d (see executor.cpp).
  void seal(int d);
  void publish(int d);

  // Blocks until a.load(acquire) != expected and returns the observed value,
  // parking on a timed futex when the watchdog is armed: a full window with
  // no change in the executor-wide progress signature fires the §9 dump +
  // abort. `phase`/`task` describe the wait for the dump.
  int wait_watched(const std::atomic<int>& a, int expected, int phase,
                   int task);
  std::uint64_t progress_signature() const;
  [[noreturn]] void watchdog_fire(int phase, int task);

  TaskFn fn_ = nullptr;
  void* ctx_ = nullptr;
  TaskFn stage2_ = nullptr;
  PipelineDeps deps_{};
  int num_tasks_ = 0;
  bool stop_ = false;
  // Dispatch protocol: fn_/ctx_/stage2_/deps_/num_tasks_/stop_ and the
  // pipeline counters below are written by the caller, then published by the
  // generation bump (release); workers acquire-load the generation, run their
  // work, and decrement outstanding_ (release). The caller's acquire-load of
  // outstanding_ == 0 closes the barrier.
  // SHARED-LINE(two writes per dispatch — padding these off the dispatch
  // fields they publish would buy nothing)
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> outstanding_{0};
  // Pipeline state, sized to num_threads_ once at construction.
  // ready_state_[d] carries stage-2 task d's publish state (kReadyUnpublished
  // → kReadyPublished → kReadyClaimed); claiming is a CAS from
  // kReadyPublished, so each task runs exactly once even when several
  // threads pick the same lowest entry. published_seq_ counts publishes
  // (plus the final claim) and is the single futex claimers park on;
  // claimed_ counts claims so threads know when the dispatch is drained.
  // claim_waiters_ counts threads parked on published_seq_ (seq_cst
  // handshake against the publish bump), so a publish skips the wake syscall
  // when nobody sleeps and wakes one claimer — not the herd — when somebody
  // does. A claim is an O(S) scan of ready_state_ for the first published
  // task: S is the thread count, so the scan is a handful of loads.
  // SHARED-LINE(vector headers, cold after construction — the contended
  // elements live in the heap blocks, spaced by the §8 claim protocol)
  std::vector<std::atomic<int>> deps_left_;
  std::vector<std::atomic<int>> ready_state_;
  // SHARED-LINE(the three claim counters move together in every claim
  // handshake — separating them would triple the misses)
  std::atomic<int> published_seq_{0};
  std::atomic<int> claimed_{0};
  std::atomic<int> claim_waiters_{0};

  static constexpr int kWatchdogMs = 60000;

  // Watchdog state (§9). progress_ is bumped (relaxed) by every seal, stage
  // completion, and dispatch exit; together with the per-thread tick counters
  // it forms the progress signature a blocked wait compares across timeout
  // windows. Zero watchdog_ns_ = disabled (plain untimed parks).
  std::int64_t watchdog_ns_ = 0;
  // SHARED-LINE(watchdog-rate traffic — relaxed signature bumps plus a
  // once-per-process fired flag; never on the claim/seal hot path)
  std::atomic<std::uint64_t> progress_{0};
  std::vector<ThreadState> threads_state_;
  std::atomic<int> fired_{0};  // first firing thread wins; others park
  void (*dump_fn_)(void*) = nullptr;
  void* dump_ctx_ = nullptr;
  // debug_withhold_seal arming, -1 = off. Atomic (relaxed): the matching
  // thread clears the arming mid-dispatch while siblings' seals still read.
  // SHARED-LINE(test hook — written only by debug_withhold_seal, read once
  // per seal on the chaos-test path)
  std::atomic<int> withhold_task_{-1};
  std::atomic<int> withhold_dest_{-1};

  std::vector<std::thread> workers_;
  int num_threads_ = 1;
};

}  // namespace pw::sim
