#include "guessing/session.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/serial_io.hpp"

namespace passflow::guessing {

namespace {

constexpr char kMagic[] = "PFSESS1\n";
constexpr char kEndMagic[] = "PFSESSE\n";

namespace io = util::io;

}  // namespace

using util::MutexLock;
using util::ReleasableMutexLock;

void write_session_config(std::ostream& out, const SessionConfig& config) {
  io::write_u64(out, config.budget);
  io::write_u64(out, config.chunk_size);
  io::write_u64(out, config.non_matched_samples);
  io::write_u64(out, static_cast<std::uint64_t>(config.unique_tracking));
  io::write_u64(out, config.sketch_precision_bits);
  io::write_u64(out, config.pipeline_depth);
  io::write_u64(out, config.log_progress ? 1 : 0);
  io::write_u64(out, config.checkpoints.size());
  for (const std::size_t cp : config.checkpoints) io::write_u64(out, cp);
}

SessionConfig read_session_config(std::istream& in) {
  SessionConfig config;
  config.budget = io::read_u64(in);
  config.chunk_size = io::read_u64(in);
  config.non_matched_samples = io::read_u64(in);
  const std::uint64_t tracking = io::read_u64(in);
  if (tracking > static_cast<std::uint64_t>(UniqueTracking::kSketch)) {
    throw std::runtime_error("session config: invalid unique-tracking mode " +
                             std::to_string(tracking));
  }
  config.unique_tracking = static_cast<UniqueTracking>(tracking);
  config.sketch_precision_bits = static_cast<unsigned>(io::read_u64(in));
  config.pipeline_depth = io::read_u64(in);
  config.log_progress = io::read_u64(in) != 0;
  const std::uint64_t checkpoint_count =
      io::read_length(in, "session checkpoint schedule");
  config.checkpoints.reserve(checkpoint_count);
  for (std::uint64_t i = 0; i < checkpoint_count; ++i) {
    config.checkpoints.push_back(io::read_u64(in));
  }
  return config;
}

AttackSession::AttackSession(GuessGenerator& generator, MatcherRef matcher,
                             SessionConfig config)
    : generator_(&generator),
      matcher_(std::move(matcher)),
      config_(std::move(config)) {
  if (config_.chunk_size == 0) {
    throw std::invalid_argument("SessionConfig::chunk_size must be > 0");
  }
  // Feedback-driven generators (Algorithm 1) must see each chunk's matches
  // before producing the next chunk, so generation cannot run ahead.
  pipelined_ =
      config_.pipeline_depth > 0 && !generator_->uses_match_feedback();
  tracker_ = make_unique_tracker(config_.unique_tracking,
                                 config_.sketch_precision_bits);
  // The tracker stage is a serial drain task on the pool; without a pool
  // the consumer folds each chunk inline instead.
  tracker_stage_ = pipelined_ &&
                   config_.unique_tracking != UniqueTracking::kOff &&
                   config_.pool != nullptr;
  // name() is not covered by the uses_match_feedback() contract, so it is
  // captured before any background generate() could race with it.
  generator_name_ = config_.log_progress ? generator_->name() : "";
  plan_schedule();
  refresh_stats();
}

AttackSession::~AttackSession() {
  try {
    pause_pipeline();
  } catch (...) {
    // Destructor must not throw; a pipeline error on teardown is dropped.
  }
}

void AttackSession::plan_schedule() {
  if (config_.checkpoints.empty()) {
    config_.checkpoints = power_of_ten_checkpoints(config_.budget);
  }
  std::sort(config_.checkpoints.begin(), config_.checkpoints.end());

  // Chunk request sizes are a pure function of budget/checkpoints/
  // chunk_size (generate() appends exactly n), so the whole schedule is
  // fixed up front: chunks never cross a checkpoint, and the pipelined
  // producer issues exactly the serial generate() call sequence.
  std::size_t planned = 0;
  std::size_t ci = 0;
  while (planned < config_.budget) {
    const std::size_t next_stop = ci < config_.checkpoints.size()
                                      ? config_.checkpoints[ci]
                                      : config_.budget;
    const std::size_t chunk =
        std::min(config_.chunk_size, next_stop - planned);
    schedule_.push_back(chunk);
    planned += chunk;
    while (ci < config_.checkpoints.size() &&
           planned >= config_.checkpoints[ci]) {
      ++ci;
    }
  }
}

void AttackSession::check_usable() const {
  if (load_failed_) {
    throw std::logic_error(
        "AttackSession is unusable: a previous load_state failed partway, "
        "so its state is incomplete");
  }
}

bool AttackSession::step() {
  check_usable();
  if (finished()) {
    refresh_stats();
    return false;
  }
  if (!timer_started_) {
    timer_.reset();
    timer_started_ = true;
  }
  if (pipelined_) {
    if (!pipeline_running_) start_pipeline();
    pipelined_step();
  } else {
    serial_step();
  }
  if (finished() && pipeline_running_) {
    // Natural end of the run: join the stage threads and sync the tracker
    // so result() reports the exact final unique count.
    pause_pipeline();
  }
  refresh_stats();
  return true;
}

const SessionStats& AttackSession::run_until(std::size_t guess_target) {
  const std::size_t target = std::min(guess_target, config_.budget);
  while (produced_ < target && step()) {
  }
  return stats_;
}

const SessionStats& AttackSession::run() { return run_until(config_.budget); }

void AttackSession::serial_step() {
  std::shared_ptr<Chunk> chunk;
  {
    // Serial mode has no stage threads, so the lock is uncontended; taken
    // so pending_ accesses stay inside the annotated protocol.
    MutexLock lock(mu_);
    if (!pending_.empty()) chunk = pending_.front();
  }
  if (chunk != nullptr) {
    // Chunk thawed from a saved pipelined run: the generator's stream is
    // already past it, and feedback delivery was waived when it was
    // produced. It leaves pending_ only once matched and folded, so a
    // throwing matcher or fold leaves it owed to the next step().
    if (!chunk->has_membership) {
      matcher_->contains_batch(chunk->batch, config_.pool,
                               chunk->membership);
    }
    tracker_->add_batch(chunk->batch, config_.pool);
    {
      MutexLock lock(mu_);
      pending_.pop_front();
    }
    consume_chunk(chunk->batch, chunk->membership,
                  /*deliver_feedback=*/false);
  } else {
    batch_.clear();
    generator_->generate(schedule_[next_chunk_], batch_);
    matcher_->contains_batch(batch_, config_.pool, membership_);
    tracker_->add_batch(batch_, config_.pool);
    consume_chunk(batch_, membership_, /*deliver_feedback=*/true);
  }
  ++next_chunk_;
  emit_due_checkpoints();
}

void AttackSession::pipelined_step() {
  // A pipeline error can abort the previous step between consuming a chunk
  // and emitting its checkpoint. Emit anything due *before* consuming the
  // next chunk, so the retried checkpoint still reads the tracker at its
  // own boundary (the restarted drain re-folds the backlog first).
  emit_due_checkpoints();
  std::shared_ptr<Chunk> chunk;
  {
    ReleasableMutexLock lock(mu_);
    while (!pipeline_error_ && ready_.empty()) cv_.wait(lock);
    if (pipeline_error_) {
      lock.unlock();
      pause_pipeline();  // joins threads and rethrows the stored error
      return;            // not reached
    }
    chunk = std::move(ready_.front());
    ready_.pop_front();
    ++consumed_chunks_;  // frees a producer slot while we consume
  }
  cv_.notify_all();

  // Until the chunk counts as consumed, a throw from its match or its
  // inline fold puts it back at the head of the ready queue, still owed to
  // the tracker and the bookkeeping: the next step() redoes both (folds
  // are set unions, so a partial one is harmless) and consumes it.
  try {
    if (!chunk->has_membership) {
      // Thawed chunks are stored without membership; the matcher is
      // identical, so recomputing preserves every metric.
      matcher_->contains_batch(chunk->batch, config_.pool,
                               chunk->membership);
      chunk->has_membership = true;
    }
    // Without a tracker stage (no pool) the consumer folds inline.
    if (!tracker_stage_) tracker_->add_batch(chunk->batch, config_.pool);
  } catch (...) {
    MutexLock lock(mu_);
    ready_.push_front(std::move(chunk));
    --consumed_chunks_;
    throw;
  }
  consume_chunk(chunk->batch, chunk->membership, /*deliver_feedback=*/false);
  ++next_chunk_;

  if (tracker_stage_) schedule_tracker_chunk(std::move(chunk));
  emit_due_checkpoints();
}

void AttackSession::schedule_tracker_chunk(std::shared_ptr<Chunk> chunk) {
  bool spawn_drain = false;
  {
    MutexLock lock(mu_);
    tracking_.push_back(std::move(chunk));
    if (!tracker_task_active_) {
      tracker_task_active_ = true;
      spawn_drain = true;
    }
  }
  cv_.notify_all();
  if (spawn_drain) {
    // Serial executor on the shared pool: at most one drain task in
    // flight, so chunks fold in consumption order without a dedicated
    // thread. Overwriting the previous (completed) drain's future is safe
    // — a new drain only spawns after the old one flipped
    // tracker_task_active_ off in its final locked section, and only
    // pause_pipeline's wait needs the latest one.
    tracker_future_ = config_.pool->submit([this] { tracker_drain(); });
  }
}

void AttackSession::tracker_drain() {
  for (;;) {
    std::shared_ptr<Chunk> chunk;
    {
      MutexLock lock(mu_);
      if (tracking_.empty() || pipeline_error_) {
        // Final touch of session state: after this unlock the only thing
        // left is returning, which readies the future pause_pipeline
        // waits on. No cv notify here — nothing waits on idleness.
        tracker_task_active_ = false;
        return;
      }
      chunk = std::move(tracking_.front());
      tracking_.pop_front();
    }
    try {
      tracker_->add_batch(chunk->batch, config_.pool);
    } catch (...) {
      // Notify while still holding the lock: once it is released a
      // successor drain can be spawned and pause_pipeline can wait on
      // *that* future, so nothing may touch session state afterwards —
      // including this cv. (Waking a consumer parked on a checkpoint
      // sync is why the notify exists at all.)
      MutexLock lock(mu_);
      // Requeue at the front: the chunk was consumed, so its guesses are
      // owed to the tracker — a restarted pipeline re-folds it (folds are
      // set unions, so order does not matter) instead of losing it.
      tracking_.push_front(std::move(chunk));
      pipeline_error_ = std::current_exception();
      tracker_task_active_ = false;
      cv_.notify_all();
      return;
    }
    {
      MutexLock lock(mu_);
      ++tracked_chunks_;
      published_unique_ = tracker_->count();
    }
    cv_.notify_all();
  }
}

void AttackSession::consume_chunk(const std::vector<std::string>& batch,
                                  const std::vector<char>& membership,
                                  bool deliver_feedback) {
  // A "match" is counted once per distinct test-set password (re-guessing
  // an already matched password does not count again), mirroring |P| in
  // Algorithm 1.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string& guess = batch[i];
    if (membership[i] != 0) {
      if (matched_set_.insert(guess)) {
        result_.matched_passwords.push_back(guess);
        // In pipelined mode the generator may be producing a later chunk
        // on the producer thread right now; it declared feedback unused,
        // so the callback is skipped rather than raced.
        if (deliver_feedback) generator_->on_match(i, guess);
      }
    } else if (result_.sample_non_matched.size() <
                   config_.non_matched_samples &&
               !guess.empty() && non_matched_seen_.insert(guess)) {
      result_.sample_non_matched.push_back(guess);
    }
  }
  produced_ += batch.size();
}

Checkpoint AttackSession::make_checkpoint(std::size_t guesses,
                                          std::size_t unique) const {
  Checkpoint cp;
  cp.guesses = guesses;
  cp.unique = unique;
  cp.matched = matched_set_.size();
  cp.matched_percent =
      matcher_->test_set_size() > 0
          ? 100.0 * static_cast<double>(cp.matched) /
                static_cast<double>(matcher_->test_set_size())
          : 0.0;
  return cp;
}

void AttackSession::emit_due_checkpoints() {
  while (checkpoint_index_ < config_.checkpoints.size() &&
         produced_ >= config_.checkpoints[checkpoint_index_]) {
    const Checkpoint cp = make_checkpoint(
        config_.checkpoints[checkpoint_index_], synced_unique_count());
    result_.checkpoints.push_back(cp);
    ++checkpoint_index_;
    if (config_.log_progress) {
      PF_LOG_INFO << generator_name_ << ": " << cp.guesses << " guesses, "
                  << cp.matched << " matched (" << cp.matched_percent
                  << "%), " << cp.unique << " unique";
    }
  }
}

void AttackSession::wait_tracker_synced() {
  if (!pipeline_running_) return;
  // The tracker stage is fed by the consumer, so it can never be ahead:
  // park until it has folded every chunk consumed so far. (Inline folds
  // are always synced.) A stored pipeline error surfaces here either way,
  // so a session nobody steps any more still reports it.
  ReleasableMutexLock lock(mu_);
  while (tracker_stage_ && !pipeline_error_ &&
         !(tracking_.empty() && tracked_chunks_ == consumed_chunks_)) {
    cv_.wait(lock);
  }
  if (pipeline_error_) {
    lock.unlock();
    pause_pipeline();  // joins the stages and rethrows the stored error
  }
}

std::size_t AttackSession::synced_unique_count() {
  // Checkpoints report the unique count at an exact chunk boundary.
  wait_tracker_synced();
  last_synced_unique_ = tracker_->count();
  return last_synced_unique_;
}

void AttackSession::refresh_stats() {
  stats_.produced = produced_;
  stats_.matched = matched_set_.size();
  if (pipeline_running_ && tracker_stage_) {
    MutexLock lock(mu_);
    stats_.unique = std::max(published_unique_, last_synced_unique_);
  } else {
    stats_.unique = tracker_->count();
  }
  stats_.checkpoints_emitted = result_.checkpoints.size();
  stats_.seconds =
      seconds_accum_ + (timer_started_ ? timer_.elapsed_seconds() : 0.0);
  stats_.guesses_per_second =
      stats_.seconds > 0.0
          ? static_cast<double>(produced_) / stats_.seconds
          : 0.0;
  stats_.finished = finished();
}

RunResult AttackSession::result() const {
  check_usable();
  RunResult out = result_;
  if (out.checkpoints.empty() || out.checkpoints.back().guesses != produced_) {
    const std::size_t unique =
        pipeline_running_ ? last_synced_unique_ : tracker_->count();
    out.checkpoints.push_back(make_checkpoint(produced_, unique));
  }
  out.seconds =
      seconds_accum_ + (timer_started_ ? timer_.elapsed_seconds() : 0.0);
  return out;
}

// ---- pipeline ------------------------------------------------------------

void AttackSession::start_pipeline() {
  bool spawn_drain = false;
  {
    // No stage threads exist yet, but the state below is mu_-guarded once
    // they do — initialize it under the lock so the happens-before edge to
    // the spawned threads is the same one the protocol relies on.
    MutexLock lock(mu_);
    producer_stop_ = false;
    pipeline_error_ = nullptr;
    consumed_chunks_ = next_chunk_;
    // A pipeline torn down by an error (pause_pipeline after a throwing
    // tracker fold) can leave consumed-but-unfolded chunks in `tracking_`.
    // The restarted tracker stage will fold them and bump tracked_chunks_
    // once each, so the counter must start short by exactly that backlog —
    // seeding it at next_chunk_ would leave tracked_chunks_ permanently
    // ahead of consumed_chunks_ and wedge every checkpoint sync barrier.
    tracked_chunks_ = next_chunk_ - tracking_.size();
    generated_chunks_ = next_chunk_ + pending_.size();
    // Thawed chunks re-enter at the head of the ready queue; the producer
    // resumes generating after them (the generator's stream is already
    // positioned past them).
    ready_ = std::move(pending_);
    pending_.clear();
    published_unique_ = last_synced_unique_;
    // Re-drain the error backlog now: if the run is already at its last
    // chunk, no schedule_tracker_chunk() will ever come along to spawn the
    // drain, and the sync barrier would wait on `tracking_` forever.
    tracker_task_active_ = tracker_stage_ && !tracking_.empty();
    spawn_drain = tracker_task_active_;
    pipeline_running_ = true;
  }
  producer_thread_ = std::thread(&AttackSession::producer_loop, this);
  if (spawn_drain) {
    tracker_future_ = config_.pool->submit([this] { tracker_drain(); });
  }
}

void AttackSession::pause_pipeline() {
  if (!pipeline_running_) return;
  {
    MutexLock lock(mu_);
    producer_stop_ = true;
  }
  cv_.notify_all();
  producer_thread_.join();
  // The drain task exits only once `tracking_` is empty (or on error); its
  // future is the completion barrier (ready strictly after the task
  // function has returned, so the task can never touch session state
  // after this wait — which is what makes destruction safe).
  if (tracker_future_.valid()) tracker_future_.wait();
  // The producer has been joined and the drain waited out, so the lock
  // below is uncontended — held so the drain stays inside the annotated
  // protocol.
  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    // Chunks generated but not yet consumed survive as pending work: they
    // are either consumed on the next step() or serialized by
    // save_state(), so no generated guess is ever lost or repeated.
    while (!ready_.empty()) {
      pending_.push_back(std::move(ready_.front()));
      ready_.pop_front();
    }
    error = pipeline_error_;
    pipeline_error_ = nullptr;
  }
  pipeline_running_ = false;
  if (error) std::rethrow_exception(error);
  last_synced_unique_ = tracker_->count();
}

void AttackSession::producer_loop() {
  try {
    for (;;) {
      std::size_t chunk_index;
      {
        ReleasableMutexLock lock(mu_);
        while (!producer_stop_ &&
               generated_chunks_ >= consumed_chunks_ + config_.pipeline_depth) {
          cv_.wait(lock);
        }
        if (producer_stop_) return;
        chunk_index = generated_chunks_;
      }
      if (chunk_index >= schedule_.size()) return;

      auto chunk = std::make_shared<Chunk>();
      chunk->batch.reserve(schedule_[chunk_index]);
      generator_->generate(schedule_[chunk_index], chunk->batch);
      matcher_->contains_batch(chunk->batch, config_.pool,
                               chunk->membership);
      chunk->has_membership = true;

      {
        MutexLock lock(mu_);
        ready_.push_back(std::move(chunk));
        generated_chunks_ = chunk_index + 1;
      }
      cv_.notify_all();
    }
  } catch (...) {
    MutexLock lock(mu_);
    pipeline_error_ = std::current_exception();
    cv_.notify_all();
  }
}

bool AttackSession::merge_unique_sketch(util::CardinalitySketch& out) {
  check_usable();
  // Same barrier as a checkpoint: the contribution must cover exactly the
  // chunks consumed so far.
  wait_tracker_synced();
  return tracker_->merge_into(out);
}

// ---- save / resume -------------------------------------------------------

void AttackSession::save_state(std::ostream& out) {
  check_usable();
  if (!generator_->supports_state_serialization()) {
    throw std::logic_error(
        "AttackSession::save_state requires a generator with state "
        "serialization (generator '" +
        generator_->name() + "' has none)");
  }
  pause_pipeline();

  out.write(kMagic, sizeof(kMagic) - 1);
  // Run-shape echo, validated on load: a resumed session must describe
  // the same attack or its metrics would silently diverge. The generator
  // name guards against thawing a stream into a different strategy (or a
  // differently-configured one, for generators whose name reflects
  // configuration, e.g. "PassFlow-Dynamic+GS" vs "PassFlow-Dynamic").
  io::write_string(out, generator_->name());
  io::write_u64(out, config_.budget);
  io::write_u64(out, config_.chunk_size);
  io::write_u64(out, config_.non_matched_samples);
  io::write_u64(out, static_cast<std::uint64_t>(config_.unique_tracking));
  io::write_u64(out, config_.checkpoints.size());
  for (const std::size_t cp : config_.checkpoints) io::write_u64(out, cp);

  io::write_u64(out, produced_);
  io::write_u64(out, next_chunk_);
  io::write_u64(out, checkpoint_index_);
  io::write_f64(out, seconds_accum_ +
                         (timer_started_ ? timer_.elapsed_seconds() : 0.0));

  io::write_u64(out, result_.checkpoints.size());
  for (const Checkpoint& cp : result_.checkpoints) {
    io::write_u64(out, cp.guesses);
    io::write_u64(out, cp.unique);
    io::write_u64(out, cp.matched);
    io::write_f64(out, cp.matched_percent);
  }
  io::write_string_vec(out, result_.matched_passwords);
  io::write_string_vec(out, result_.sample_non_matched);

  tracker_->save(out);

  {
    // Chunks generated ahead of consumption when the pipeline paused. The
    // generator's stream state (below) is already positioned past them.
    // The pipeline was paused above, so the lock is uncontended.
    MutexLock lock(mu_);
    io::write_u64(out, pending_.size());
    for (const auto& chunk : pending_) io::write_string_vec(out, chunk->batch);
  }

  generator_->save_state(out);
  out.write(kEndMagic, sizeof(kEndMagic) - 1);
  if (!out) throw std::runtime_error("AttackSession state write failed");
}

void AttackSession::load_state(std::istream& in) {
  check_usable();
  if (produced_ != 0 || next_chunk_ != 0 || !result_.checkpoints.empty()) {
    throw std::logic_error(
        "AttackSession::load_state must run before the first step()");
  }
  try {
    load_state_impl(in);
  } catch (...) {
    // The stream failed partway: bookkeeping, tracker and generator state
    // are now mutually inconsistent. Poison the session so the half-thawed
    // attack can never run — resuming it would report wrong metrics with
    // no sign anything was lost.
    load_failed_ = true;
    throw;
  }
}

void AttackSession::load_state_impl(std::istream& in) {
  io::expect_magic(in, kMagic, "AttackSession");

  const std::string saved_generator = io::read_string(in);
  if (saved_generator != generator_->name()) {
    throw std::runtime_error("saved session was produced by generator '" +
                             saved_generator + "', not '" +
                             generator_->name() + "'");
  }

  const auto check = [](std::uint64_t saved, std::uint64_t live,
                        const char* what) {
    if (saved != live) {
      throw std::runtime_error(
          std::string("saved session does not match this config: ") + what +
          " was " + std::to_string(saved) + ", live " + std::to_string(live));
    }
  };
  check(io::read_u64(in), config_.budget, "budget");
  check(io::read_u64(in), config_.chunk_size, "chunk_size");
  check(io::read_u64(in), config_.non_matched_samples,
        "non_matched_samples");
  check(io::read_u64(in),
        static_cast<std::uint64_t>(config_.unique_tracking),
        "unique_tracking");
  check(io::read_u64(in), config_.checkpoints.size(), "checkpoint count");
  for (std::size_t i = 0; i < config_.checkpoints.size(); ++i) {
    check(io::read_u64(in), config_.checkpoints[i], "checkpoint value");
  }

  produced_ = io::read_u64(in);
  next_chunk_ = io::read_u64(in);
  checkpoint_index_ = io::read_u64(in);
  seconds_accum_ = io::read_f64(in);
  timer_started_ = false;

  const std::uint64_t checkpoint_count = io::read_u64(in);
  result_.checkpoints.clear();
  for (std::uint64_t i = 0; i < checkpoint_count; ++i) {
    Checkpoint cp;
    cp.guesses = io::read_u64(in);
    cp.unique = io::read_u64(in);
    cp.matched = io::read_u64(in);
    cp.matched_percent = io::read_f64(in);
    result_.checkpoints.push_back(cp);
  }
  result_.matched_passwords = io::read_string_vec(in);
  result_.sample_non_matched = io::read_string_vec(in);
  matched_set_.clear();
  for (const std::string& password : result_.matched_passwords) {
    matched_set_.insert(password);
  }
  // The reservoir stops inserting once full, so the seen-set is exactly
  // the sampled set.
  non_matched_seen_.clear();
  for (const std::string& guess : result_.sample_non_matched) {
    non_matched_seen_.insert(guess);
  }

  tracker_->load(in);
  last_synced_unique_ = tracker_->count();

  const std::uint64_t pending_count = io::read_u64(in);
  {
    // load_state runs before the first step(), so no pipeline exists; the
    // lock keeps pending_ inside the annotated protocol.
    MutexLock lock(mu_);
    pending_.clear();
    for (std::uint64_t i = 0; i < pending_count; ++i) {
      auto chunk = std::make_shared<Chunk>();
      chunk->batch = io::read_string_vec(in);
      pending_.push_back(std::move(chunk));
    }
  }

  generator_->load_state(in);
  io::expect_magic(in, kEndMagic, "AttackSession trailer");
  refresh_stats();
}

}  // namespace passflow::guessing
