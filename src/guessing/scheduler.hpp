// Multi-scenario attack scheduler: many AttackSessions over one shared
// matcher and one global pool budget.
//
// The paper's evaluation sweeps attack configurations — sampler sigma,
// static vs dynamic, masking, per-model baselines — against the same test
// set. AttackScheduler turns that sweep from N serial runs into one fleet:
// register N scenarios (each its own GuessGenerator + SessionConfig, all
// borrowing one MatcherRef and one ThreadPool), and the scheduler drives
// them in chunk-granularity slices under a weighted-fair policy.
//
//   auto matcher = std::make_shared<const HashSetMatcher>(test_set);
//   SchedulerConfig fleet;
//   fleet.pool = &pool;                       // the global worker budget
//   AttackScheduler scheduler(fleet);
//   for (auto& sampler : samplers) {
//     scheduler.add_scenario(*sampler, matcher, options_for(sampler));
//   }
//   scheduler.run();                          // or step() one slice at a time
//   for (const auto& snap : scheduler.scenarios()) report(snap);
//
// Scheduling policy: virtual-time weighted fairness. Every scenario
// advances a virtual clock by chunks_driven / weight; the next slice goes
// to the runnable scenario with the smallest virtual time (ties to the
// lowest id). Equal weights degenerate to round-robin. The policy is a
// pure function of (weights, slice sizes, completion pattern), so a
// step()-driven schedule is deterministic — and because each session's
// chunk schedule and generate() order are its own serial ones regardless
// of interleaving, per-scenario metrics are bitwise identical to running
// that scenario alone.
//
// Concurrency: step() drives one slice on the calling thread (fully
// deterministic, zero extra threads). run() spawns up to max_concurrent
// driver threads that pull slices under the same fair policy; sessions
// never run two slices concurrently, and all inner parallelism (bulk
// matching, tracker folds, pipelined producers) lands on the one shared
// pool, whose helping waits keep nested use deadlock-free. Scenarios can
// be added, paused, resumed and removed mid-run from any thread.
//
// Fleet-wide unique counts: aggregate() quiesces the fleet for a moment
// and merges every session's distinct-guess state into one
// CardinalitySketch (register-max for sketch trackers, key re-insertion
// for exact ones — same hash64 family, so the union composes exactly).
//
// Freeze/thaw: save_state() quiesces the fleet through the same gate
// aggregate() uses and serializes the whole scheduler — every scenario's
// session stream (via AttackSession::save_state), the fair-share virtual
// clocks, rate-cap token-bucket levels, and deadlines re-anchored as
// *remaining* seconds (absolute instants are wall-clock from registration
// and must not survive a process boundary). load_state() rebuilds the
// fleet in a fresh scheduler: a resolver callback binds each saved
// scenario back to a live generator and matcher (those hold references
// and cannot be serialized), and each session thaws from its own stream,
// so a thawed fleet finishes with per-scenario metrics bitwise equal to a
// never-interrupted run. Pair with util::CheckpointStore for crash-safe
// on-disk publication.
//
// QoS: on top of the fair-share base policy, every scenario can carry a
// soft deadline and a guess-rate cap. A scenario past its deadline
// advances its virtual clock at weight * deadline_boost — effective-weight
// escalation, so late work drains faster without starving anyone outright.
// A rate-capped scenario draws slices from a token bucket refilled at
// `rate_cap` guesses/second; a scenario whose bucket is empty is skipped
// by pick_next_locked() without burning a slice, and drivers with nothing
// eligible park on the cv (timed to the earliest bucket refill) instead of
// spinning — SchedulerStats::parked_drivers counts them. QoS knobs change
// only *when* a scenario is driven, never *what* it computes, so the
// per-scenario bitwise-metrics invariant holds with any mix of deadlines
// and caps.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "guessing/session.hpp"
#include "util/annotated_sync.hpp"
#include "util/cardinality_sketch.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace passflow::guessing {

struct SchedulerConfig {
  // Shared worker pool handed to every registered session (their
  // SessionConfig::pool is overridden): the fleet's global budget. May be
  // null — sessions then run their serial matching/tracking paths.
  util::ThreadPool* pool = nullptr;

  // Chunks per scheduling slice. Smaller slices interleave more fairly,
  // larger ones amortize scheduling overhead.
  std::size_t slice_chunks = 4;

  // Driver threads run() may use. 0 = one per registered scenario at
  // launch, capped at hardware concurrency.
  std::size_t max_concurrent = 0;

  // Precision of the fleet-wide union sketch built by aggregate().
  // Sketch-mode sessions must use the same precision to contribute.
  unsigned unique_union_precision_bits = 14;

  // Effective-weight multiplier for a scenario past its soft deadline: its
  // virtual clock advances as if its weight were weight * deadline_boost,
  // so it takes roughly deadline_boost slices for every one an equal-weight
  // on-time peer gets. Must be >= 1 (1 disables escalation).
  double deadline_boost = 4.0;

  // Token-bucket capacity for rate-capped scenarios, in seconds of cap
  // (capacity = rate_cap * rate_cap_burst_seconds guesses). Buckets start
  // empty and never accumulate more than this, so a scenario idle behind
  // its cap can burst at most this far ahead afterwards. Must be > 0.
  double rate_cap_burst_seconds = 0.25;
};

enum class ScenarioStatus {
  kRunning,   // eligible for slices
  kPaused,    // registered but not eligible until resumed
  kFinished,  // budget exhausted; results remain queryable
};

const char* scenario_status_name(ScenarioStatus status);

struct ScenarioOptions {
  std::string name;           // label in snapshots/logs; "" = "scenario-<id>"
  double weight = 1.0;        // fair-share weight (> 0)
  bool start_paused = false;  // register without becoming runnable
  SessionConfig session;      // per-scenario engine config (pool overridden)

  // Soft deadline in wall-clock seconds from registration; 0 = none. A
  // scenario past its deadline gets effective-weight escalation (see
  // SchedulerConfig::deadline_boost) and counts toward
  // SchedulerStats::deadline_missed.
  double deadline_seconds = 0.0;

  // Guess-rate cap in guesses/second; 0 = uncapped. Enforced by a per-
  // scenario token bucket consulted at slice-pick time: an empty bucket
  // skips the scenario without burning a slice, and the actually produced
  // guesses of each slice are debited afterwards (the bucket may run one
  // slice negative, so the long-run achieved rate converges on the cap).
  double rate_cap = 0.0;
};

// Half-open shard interval [begin, end) of a MappedMatcher's on-disk
// shards.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// Balanced contiguous split of [0, shard_count) into min(parts,
// shard_count) non-empty ranges — the unit of work the distributed
// coordinator hands to workers when one scenario's matcher is divided
// across processes. Earlier ranges take the remainder shards, so sizes
// differ by at most one. Throws std::invalid_argument when either count
// is zero.
std::vector<ShardRange> split_shard_ranges(std::size_t shard_count,
                                           std::size_t parts);

// Point-in-time copy of one scenario's public state; safe to hold after
// the scheduler moves on (nothing refers back into the scheduler).
struct ScenarioSnapshot {
  std::size_t id = 0;
  std::string name;
  double weight = 1.0;
  ScenarioStatus status = ScenarioStatus::kRunning;
  std::size_t chunks_driven = 0;
  SessionStats stats;

  // QoS view. `past_deadline` is latched at finish time (a scenario that
  // finished on time stays on time even after its deadline passes);
  // `achieved_guesses_per_second` is wall-clock — first slice dispatch to
  // last slice completion — which is what a rate cap constrains (the
  // session's own guesses_per_second counts only active driving time).
  double deadline_seconds = 0.0;  // 0 = none
  bool past_deadline = false;
  double rate_cap = 0.0;  // 0 = uncapped
  double achieved_guesses_per_second = 0.0;
};

// Fleet-level aggregate. `unique_union` is the merged-sketch estimate of
// distinct guesses across every scenario (valid only when every scenario
// could contribute, i.e. none track kOff and sketch precisions agree).
struct SchedulerStats {
  std::size_t scenarios = 0;
  std::size_t running = 0;
  std::size_t paused = 0;
  std::size_t finished = 0;
  std::size_t produced = 0;
  std::size_t matched = 0;
  double seconds = 0.0;  // wall time since the first slice
  double guesses_per_second = 0.0;
  std::size_t unique_union = 0;
  bool unique_union_valid = false;
  // run() driver threads currently parked on the cv waiting for eligible
  // work (fewer runnable scenarios than drivers, every runnable scenario
  // rate-capped out, or an aggregate() quiesce in progress).
  std::size_t parked_drivers = 0;
  // Scenarios past their soft deadline: finished scenarios that finished
  // late (latched) plus live scenarios currently past it.
  std::size_t deadline_missed = 0;
};

class AttackScheduler {
 public:
  explicit AttackScheduler(SchedulerConfig config = {});
  ~AttackScheduler();

  AttackScheduler(const AttackScheduler&) = delete;
  AttackScheduler& operator=(const AttackScheduler&) = delete;

  // Registers a scenario and returns its id (stable for the scheduler's
  // lifetime). The generator must outlive the scenario; the matcher
  // follows MatcherRef semantics (borrowed or shared). Thread-safe,
  // callable mid-run — a live run() picks the newcomer up on the next
  // slice decision.
  std::size_t add_scenario(GuessGenerator& generator, MatcherRef matcher,
                           ScenarioOptions options = {}) PF_EXCLUDES(mu_);

  // Pauses/resumes slice eligibility. Pausing never interrupts an
  // in-flight slice; it just stops new ones. Unknown ids throw
  // std::out_of_range (as does every id-taking method).
  void pause_scenario(std::size_t id) PF_EXCLUDES(mu_);
  void resume_scenario(std::size_t id) PF_EXCLUDES(mu_);

  // Deregisters a scenario after its in-flight slice (if any) lands, and
  // returns its results up to that point. The caller may destroy the
  // generator afterwards.
  RunResult remove_scenario(std::size_t id) PF_EXCLUDES(mu_);

  // Drives one slice of the next runnable scenario on the calling thread.
  // Returns false (doing nothing) when nothing is runnable — every active
  // scenario finished or paused. When every runnable scenario is merely
  // rate-capped out, step() sleeps until the earliest bucket refill and
  // then drives — the fleet is not drained, just throttled.
  bool step() PF_EXCLUDES(mu_);

  // Drives slices on up to max_concurrent driver threads until nothing is
  // runnable. Returns with paused scenarios still paused. Must not be
  // called concurrently with itself or step().
  void run() PF_EXCLUDES(mu_);

  // True when no registered scenario is eligible for another slice.
  bool finished() const PF_EXCLUDES(mu_);

  std::size_t scenario_count() const PF_EXCLUDES(mu_);
  ScenarioSnapshot scenario(std::size_t id) const PF_EXCLUDES(mu_);
  std::vector<ScenarioSnapshot> scenarios() const PF_EXCLUDES(mu_);  // registration order

  // Results of one scenario (waits for its in-flight slice to land, then
  // reserves the scenario so no new slice dispatches while the result is
  // copied — outside the scheduler lock). Callable any number of times;
  // on a finished scenario every call returns the same values.
  RunResult result(std::size_t id) const PF_EXCLUDES(mu_);

  // Everything load_state knows about one saved scenario before asking the
  // resolver to bind it to live objects. `session` is the saved per-
  // scenario engine config (the pool is already overridden to the
  // scheduler's); `index` is the scenario's position in the save, which is
  // registration order.
  struct ScenarioThawInfo {
    std::size_t index = 0;
    std::size_t id = 0;
    std::string name;
    SessionConfig session;
  };

  // Live bindings for one thawed scenario: the generator that will drive
  // it (must outlive the scenario; its stream state thaws from the saved
  // session, and AttackSession::load_state rejects a generator whose
  // name() differs from the saved one) and the matcher to probe.
  struct ScenarioBinding {
    GuessGenerator& generator;
    MatcherRef matcher;
  };
  using ScenarioResolver =
      std::function<ScenarioBinding(const ScenarioThawInfo&)>;

  // Freezes the whole fleet: quiesces slice dispatch (in-flight slices
  // land first — drivers stay parked for the duration), then serializes
  // scheduler bookkeeping plus every scenario's full state. Requires every
  // scenario's generator to support state serialization. Thread-safe;
  // callable mid-run() — drivers resume when the save completes. On error
  // the stream contents are unspecified and must be discarded (a
  // CheckpointStore save does this automatically by never publishing).
  void save_state(std::ostream& out) PF_EXCLUDES(mu_);

  // Thaws a save_state() stream into a freshly constructed scheduler (no
  // scenarios registered, never driven — throws std::logic_error
  // otherwise). Calls `resolver` once per saved scenario, in registration
  // order, to obtain its generator and matcher. Scenario ids, weights,
  // statuses (running/paused/finished), virtual clocks, QoS ledgers and
  // latched deadline outcomes are restored; deadlines re-anchor so the
  // remaining time at save is the remaining time now (a scenario saved
  // past its deadline is past it on thaw, with escalation active
  // immediately). On failure the scheduler is left unchanged and usable.
  void load_state(std::istream& in, const ScenarioResolver& resolver)
      PF_EXCLUDES(mu_);

  // Fleet aggregate; briefly quiesces slice dispatch so every session can
  // be read at a chunk boundary. Concurrent aggregate() calls compose (the
  // quiesce gate is a counter, so slices stay parked until the last one
  // finishes). If a slice or merge error is pending — including one raised
  // after the fleet finished, which no driver would ever rethrow — it is
  // rethrown here once the quiesce gate has been released, so errors are
  // never silently swallowed.
  SchedulerStats aggregate() const PF_EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Scenario {
    std::size_t id = 0;
    std::string name;
    double weight = 1.0;
    ScenarioStatus status = ScenarioStatus::kRunning;
    bool removing = false;
    bool in_flight = false;
    std::size_t chunks_driven = 0;
    double virtual_time = 0.0;
    std::unique_ptr<AttackSession> session;
    SessionStats snapshot;  // refreshed after every slice, under mu_

    // ---- QoS state (all under mu_) ----
    double deadline_seconds = 0.0;  // as registered; 0 = none
    bool has_deadline = false;
    bool missed_deadline = false;  // latched when the scenario finishes late
    Clock::time_point deadline_at{};
    double rate_cap = 0.0;        // guesses/s; 0 = uncapped
    double tokens = 0.0;          // bucket level; a slice may run it negative
    double token_capacity = 0.0;  // rate_cap * rate_cap_burst_seconds
    Clock::time_point last_refill{};
    bool started = false;  // first slice dispatched
    Clock::time_point first_slice_at{};
    Clock::time_point last_slice_at{};
  };

  // Every *_locked helper carries PF_REQUIRES(mu_): the annotation is the
  // machine-checked contract, the suffix keeps call sites readable.
  // Waiting with a scenario pointer across a cv wait requires the
  // shared_ptr form: a concurrent remove_scenario may erase the vector
  // entry, and only the shared_ptr keeps the object alive for the waiter's
  // re-check.
  std::shared_ptr<Scenario> find_scenario_locked(std::size_t id) const
      PF_REQUIRES(mu_);
  // Fair pick over eligible scenarios; refills rate-cap buckets as a side
  // effect. When nothing is eligible but some runnable scenario is only
  // rate-capped out, *next_eligible is lowered to its projected refill
  // time (callers use it for a timed park); untouched otherwise.
  Scenario* pick_next_locked(Clock::time_point now,
                             Clock::time_point* next_eligible)
      PF_REQUIRES(mu_);
  bool any_runnable_locked() const PF_REQUIRES(mu_);
  // min virtual_time over kRunning
  double virtual_now_locked() const PF_REQUIRES(mu_);
  double effective_weight_locked(const Scenario& scenario) const
      PF_REQUIRES(mu_);
  bool past_deadline_locked(const Scenario& scenario) const PF_REQUIRES(mu_);
  void dispatch_locked(Scenario& scenario) PF_REQUIRES(mu_);
  // const: touches only the scenario (latching its deadline outcome), so
  // aggregate() can park a broken session it trips over.
  void mark_finished_locked(Scenario& scenario) const PF_REQUIRES(mu_);
  ScenarioSnapshot snapshot_locked(const Scenario& scenario) const
      PF_REQUIRES(mu_);
  // True once the fleet is quiet enough to freeze: no active slices and no
  // result()-copy reservation in flight. save_state parks on this.
  bool quiesced_for_save_locked() const PF_REQUIRES(mu_);
  void run_slice(Scenario& scenario) PF_EXCLUDES(mu_);
  void driver_loop() PF_EXCLUDES(mu_);
  void note_driving_started_locked() PF_REQUIRES(mu_);

  SchedulerConfig config_;

  mutable util::Mutex mu_;
  mutable util::CondVar cv_;
  // Registration order. The vector and every Scenario field are guarded by
  // mu_, with one protocol exception the analysis cannot express: the
  // driver that set `in_flight` owns `session` (and only `session`) for
  // the duration of its slice and touches it outside the lock — see
  // run_slice / result / remove_scenario.
  std::vector<std::shared_ptr<Scenario>> scenarios_ PF_GUARDED_BY(mu_);
  std::size_t next_id_ PF_GUARDED_BY(mu_) = 0;
  std::size_t active_slices_ PF_GUARDED_BY(mu_) = 0;
  // run() drivers waiting on cv_.
  std::size_t parked_drivers_ PF_GUARDED_BY(mu_) = 0;
  // aggregate() gate: no new slices while > 0. A counter, not a flag, so
  // concurrent aggregate() calls compose — the gate only lifts when the
  // last one finishes.
  mutable std::size_t quiesce_count_ PF_GUARDED_BY(mu_) = 0;
  // First slice/merge failure; rethrown by step()/run()/aggregate().
  // Mutable because aggregate() (const) parks a broken session it trips
  // over and rethrows pending errors a finished fleet would otherwise
  // swallow.
  mutable std::exception_ptr first_error_ PF_GUARDED_BY(mu_);

  util::Timer timer_ PF_GUARDED_BY(mu_);
  bool timer_started_ PF_GUARDED_BY(mu_) = false;
  // Fleet driving seconds carried across save/thaw: stats().seconds =
  // saved_seconds_ + time since this process's first slice.
  double saved_seconds_ PF_GUARDED_BY(mu_) = 0.0;
};

}  // namespace passflow::guessing
