// Streaming attack engine: the one entry point for running a guessing
// attack (Algorithm 1's generate -> match -> feedback -> checkpoint loop).
//
// An AttackSession owns the bookkeeping of one guessing attack: it drives a
// GuessGenerator against a Matcher in chunk-sized steps, tracks matches /
// distinct guesses / non-matched samples, snapshots metrics at the
// configured checkpoints, and can freeze itself to a stream (save_state)
// and thaw in another process (load_state) so a 10^8-guess attack survives
// a restart.
//
//   HashSetMatcher matcher(test_set);
//   SessionConfig config;
//   config.budget = 100000000;
//   config.pipeline_depth = 4;
//   AttackSession session(sampler, matcher, config);
//   while (session.step()) {
//     if (want_progress) log(session.stats());
//     if (want_checkpoint) { std::ofstream out(path); session.save_state(out); }
//   }
//   RunResult result = session.result();
//
// Pipelining: with pipeline_depth >= 1 and a generator that ignores match
// feedback (uses_match_feedback() == false), a persistent producer thread
// keeps up to `pipeline_depth` chunks in flight through a bounded queue —
// generating each chunk and pre-matching it against the Matcher. With a
// pool configured, a tracker stage (at most one ThreadPool::submit() drain
// task at a time) folds consumed chunks into the UniqueTracker behind the
// consumer; without one, the consumer folds each chunk inline. Chunk sizes
// and generate() call order are exactly the serial schedule, match/sample
// bookkeeping is applied in stream order on the consuming thread, and
// set-union unique counting is order-independent, so every reported metric
// is bitwise identical to a serial run at any depth.
// Feedback-driven generators (Algorithm 1) must see each chunk's matches
// before producing the next, so for them the session silently stays serial
// and delivers on_match() exactly like the seed loop.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <future>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guessing/generator.hpp"
#include "guessing/matcher.hpp"
#include "guessing/metrics.hpp"
#include "guessing/unique_tracker.hpp"
#include "util/annotated_sync.hpp"
#include "util/flat_string_set.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace passflow::guessing {

struct SessionConfig {
  std::size_t budget = 100000;           // total guesses to generate
  std::vector<std::size_t> checkpoints;  // empty => powers of ten
  std::size_t chunk_size = 16384;        // guesses per generate() call
  std::size_t non_matched_samples = 40;  // reservoir for Table IV

  // Distinct-guess accounting: exact (seed behavior), HLL sketch (bounded
  // memory for huge runs), or off. See unique_tracker.hpp.
  UniqueTracking unique_tracking = UniqueTracking::kExact;
  unsigned sketch_precision_bits = 14;  // sketch resolution (16 KiB at 14)

  // Chunks allowed in flight ahead of consumption. 0 = fully serial
  // inside step(); 1 reproduces the old one-chunk-ahead overlap; deeper
  // queues smooth stage imbalance (bursty generators, tracker growth
  // spikes). Only engages for generators that ignore match feedback.
  std::size_t pipeline_depth = 0;

  // Non-owning worker pool for bulk matching, shard-parallel tracker
  // inserts and, when pipelined, the tracker stage's drain task.
  util::ThreadPool* pool = nullptr;

  bool log_progress = false;
};

// The one binary codec for a SessionConfig, shared by the scheduler's
// state file and the dist wire's Assign message: every field except
// `pool`, a process-local pointer the reader binds itself (the decoded
// config has pool = nullptr). read_session_config throws
// std::runtime_error on a truncated stream or an unknown tracking mode.
void write_session_config(std::ostream& out, const SessionConfig& config);
SessionConfig read_session_config(std::istream& in);

// Monotone snapshot of a session's progress, refreshed on every step().
struct SessionStats {
  std::size_t produced = 0;   // guesses generated and consumed so far
  std::size_t matched = 0;    // distinct test-set passwords matched
  std::size_t unique = 0;     // distinct guesses (estimate in sketch mode)
  std::size_t checkpoints_emitted = 0;
  double seconds = 0.0;       // active run time (excludes frozen time)
  double guesses_per_second = 0.0;
  bool finished = false;
};

// Handle to the matcher a session probes: either borrowed (construct from
// a reference the caller keeps alive) or shared (several concurrent
// sessions attacking one big test set hold joint ownership).
class MatcherRef {
 public:
  MatcherRef(const Matcher& matcher) : matcher_(&matcher) {}  // NOLINT
  MatcherRef(std::shared_ptr<const Matcher> matcher)          // NOLINT
      : matcher_(matcher.get()), owned_(std::move(matcher)) {}

  const Matcher& operator*() const { return *matcher_; }
  const Matcher* operator->() const { return matcher_; }
  const Matcher* get() const { return matcher_; }

 private:
  const Matcher* matcher_;
  std::shared_ptr<const Matcher> owned_;
};

class AttackSession {
 public:
  AttackSession(GuessGenerator& generator, MatcherRef matcher,
                SessionConfig config);
  ~AttackSession();

  AttackSession(const AttackSession&) = delete;
  AttackSession& operator=(const AttackSession&) = delete;

  // Processes the next chunk of the schedule (generate -> match -> record,
  // or consume the next pipelined chunk). Returns true while the budget is
  // not exhausted; returns false (doing nothing) once it is.
  bool step();

  // Steps until at least `guess_target` total guesses have been produced
  // (clamped to the budget). Returns the refreshed stats snapshot.
  const SessionStats& run_until(std::size_t guess_target);

  // Runs to completion.
  const SessionStats& run();

  bool finished() const { return next_chunk_ >= schedule_.size(); }
  const SessionStats& stats() const { return stats_; }
  const SessionConfig& config() const { return config_; }

  // Metrics in the seed RunResult shape; callable mid-run (appends the
  // implicit final checkpoint for the guesses produced so far, exactly
  // like the seed loop did at the end of a run). In pipelined mode the
  // unique count of a mid-run snapshot is the tracker's value as of the
  // last checkpoint sync; at completion it is exact.
  RunResult result() const;

  // Freezes the session: pauses the pipeline (chunks already generated but
  // not yet consumed are serialized as part of the state, so no guesses
  // are lost or repeated), then writes bookkeeping, tracker and generator
  // stream state. Requires generator->supports_state_serialization().
  // The session stays usable afterwards; the pipeline restarts on the
  // next step().
  void save_state(std::ostream& out);

  // Restores a save_state() stream into a freshly constructed session.
  // Must be called before the first step(); throws if the saved run shape
  // (budget / chunk size / checkpoints / tracking mode) does not match
  // this session's config. pipeline_depth and pool may differ — they do
  // not affect metrics. A load that throws mid-stream (truncated or
  // corrupt state) leaves the session POISONED: every subsequent
  // step()/save_state()/result() throws std::logic_error, so a
  // half-thawed attack can never run and report silently-wrong metrics.
  void load_state(std::istream& in);

  // Folds this session's distinct-guess state into `out`, the fleet-wide
  // union accumulator (see UniqueTracker::merge_into): waits for any
  // background tracker work to drain first, so the contribution covers
  // every consumed chunk. Returns false when tracking is off. Must not be
  // called concurrently with step() — the scheduler quiesces its slices
  // before aggregating.
  bool merge_unique_sketch(util::CardinalitySketch& out);

 private:
  struct Chunk {
    std::vector<std::string> batch;
    std::vector<char> membership;
    bool has_membership = false;
  };

  void plan_schedule();
  void load_state_impl(std::istream& in);
  // Throws if a failed load_state left the session half-thawed.
  void check_usable() const;
  void serial_step();
  void pipelined_step();
  // Stream-order bookkeeping for one chunk; always runs on the consuming
  // thread. `deliver_feedback` routes on_match() (serial mode only).
  void consume_chunk(const std::vector<std::string>& batch,
                     const std::vector<char>& membership,
                     bool deliver_feedback);
  void emit_due_checkpoints();
  // Parks until the tracker stage has folded every consumed chunk and
  // rethrows a stored pipeline error (no-op while not pipelining).
  void wait_tracker_synced();
  std::size_t synced_unique_count();
  void refresh_stats();
  Checkpoint make_checkpoint(std::size_t guesses, std::size_t unique) const;

  void start_pipeline();
  void pause_pipeline();
  void producer_loop();
  void tracker_drain();
  void schedule_tracker_chunk(std::shared_ptr<Chunk> chunk);

  GuessGenerator* generator_;
  MatcherRef matcher_;
  SessionConfig config_;
  bool pipelined_ = false;      // config requests it and the generator allows it
  bool tracker_stage_ = false;  // pipelined, tracking on, and a pool is set

  std::vector<std::size_t> schedule_;  // chunk sizes; fixed up front
  std::size_t next_chunk_ = 0;         // consumer cursor into schedule_
  std::size_t produced_ = 0;
  std::size_t checkpoint_index_ = 0;

  std::unique_ptr<UniqueTracker> tracker_;
  // Consumer-thread-only: refreshed at checkpoint syncs and pipeline
  // teardown, both of which run on the consuming thread after the stage
  // threads have drained — mu_ never guards it.
  std::size_t last_synced_unique_ = 0;
  util::FlatStringSet matched_set_;
  util::FlatStringSet non_matched_seen_;
  RunResult result_;
  SessionStats stats_;
  std::string generator_name_;  // captured before any background generate()

  util::Timer timer_;
  bool timer_started_ = false;  // armed on the first step()
  double seconds_accum_ = 0.0;  // run time carried across save/resume
  bool load_failed_ = false;    // poisoned by a throwing load_state

  // Serial-mode scratch.
  std::vector<std::string> batch_;
  std::vector<char> membership_;

  // ---- pipeline state (guarded by mu_ unless noted) ----
  util::Mutex mu_;
  util::CondVar cv_;
  // producer -> consumer
  std::deque<std::shared_ptr<Chunk>> ready_ PF_GUARDED_BY(mu_);
  // consumer -> tracker
  std::deque<std::shared_ptr<Chunk>> tracking_ PF_GUARDED_BY(mu_);
  // thawed / paused chunks
  std::deque<std::shared_ptr<Chunk>> pending_ PF_GUARDED_BY(mu_);
  // producer cursor into schedule_
  std::size_t generated_chunks_ PF_GUARDED_BY(mu_) = 0;
  // Checkpoint syncs barrier on `tracking_.empty() && tracked_chunks_ ==
  // consumed_chunks_`. Both counters are re-seeded from next_chunk_ on
  // every pipeline (re)start; an error teardown can leave consumed-but-
  // unfolded chunks in `tracking_` (the erroring chunk is requeued, never
  // dropped), so the restart seeds tracked_chunks_ short by that backlog
  // and re-spawns the drain — otherwise the barrier could never close.
  std::size_t consumed_chunks_ PF_GUARDED_BY(mu_) = 0;
  std::size_t tracked_chunks_ PF_GUARDED_BY(mu_) = 0;
  std::size_t published_unique_ PF_GUARDED_BY(mu_) = 0;
  bool producer_stop_ PF_GUARDED_BY(mu_) = false;
  // Consumer-thread-only: flipped by start_pipeline/pause_pipeline, which
  // only run on the consuming thread while no stage thread exists — a
  // protocol mu_ cannot express, so it stays unannotated (see
  // annotated_sync.hpp usage rules).
  bool pipeline_running_ = false;
  // The tracker stage runs as at most one in-flight submit() task draining
  // `tracking_` FIFO (a serial executor on shared workers).
  bool tracker_task_active_ PF_GUARDED_BY(mu_) = false;
  std::exception_ptr pipeline_error_ PF_GUARDED_BY(mu_);
  std::thread producer_thread_;
  // Latest pool drain task. Consumer-thread-only: written while
  // tracker_task_active_ hands off drain ownership (see
  // schedule_tracker_chunk), read only by pause_pipeline.
  std::future<void> tracker_future_;
};

}  // namespace passflow::guessing
