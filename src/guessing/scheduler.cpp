#include "guessing/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/serial_io.hpp"

namespace passflow::guessing {

std::vector<ShardRange> split_shard_ranges(std::size_t shard_count,
                                           std::size_t parts) {
  if (shard_count == 0) {
    throw std::invalid_argument("split_shard_ranges: shard_count is zero");
  }
  if (parts == 0) {
    throw std::invalid_argument("split_shard_ranges: parts is zero");
  }
  parts = std::min(parts, shard_count);
  const std::size_t base = shard_count / parts;
  const std::size_t remainder = shard_count % parts;
  std::vector<ShardRange> ranges;
  ranges.reserve(parts);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < parts; ++i) {
    const std::size_t size = base + (i < remainder ? 1 : 0);
    ranges.push_back({begin, begin + size});
    begin += size;
  }
  return ranges;
}

namespace {

constexpr char kStateMagic[] = "PFSCHD2\n";
constexpr char kStateEndMagic[] = "PFSCHDE\n";

namespace io = util::io;

using util::MutexLock;
using util::ReleasableMutexLock;

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::chrono::steady_clock::time_point after_seconds(
    std::chrono::steady_clock::time_point from, double seconds) {
  // Clamp: a near-zero rate cap can project a refill centuries out, which
  // overflows the duration cast. An hour-late rescan is indistinguishable
  // from "never" for scheduling purposes.
  seconds = std::min(seconds, 3600.0);
  return from + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
}

}  // namespace

const char* scenario_status_name(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kRunning:
      return "running";
    case ScenarioStatus::kPaused:
      return "paused";
    case ScenarioStatus::kFinished:
      return "finished";
  }
  return "unknown";
}

AttackScheduler::AttackScheduler(SchedulerConfig config)
    : config_(std::move(config)) {
  if (config_.slice_chunks == 0) {
    throw std::invalid_argument("SchedulerConfig::slice_chunks must be > 0");
  }
  if (!(config_.deadline_boost >= 1.0)) {
    throw std::invalid_argument(
        "SchedulerConfig::deadline_boost must be >= 1");
  }
  if (!(config_.rate_cap_burst_seconds > 0.0)) {
    throw std::invalid_argument(
        "SchedulerConfig::rate_cap_burst_seconds must be > 0");
  }
}

AttackScheduler::~AttackScheduler() = default;

std::size_t AttackScheduler::add_scenario(GuessGenerator& generator,
                                          MatcherRef matcher,
                                          ScenarioOptions options) {
  if (!(options.weight > 0.0)) {
    throw std::invalid_argument("ScenarioOptions::weight must be > 0");
  }
  if (options.deadline_seconds < 0.0) {
    throw std::invalid_argument(
        "ScenarioOptions::deadline_seconds must be >= 0");
  }
  if (options.rate_cap < 0.0) {
    throw std::invalid_argument("ScenarioOptions::rate_cap must be >= 0");
  }
  // One pool budget for the whole fleet: whatever the caller put in the
  // per-scenario config is overridden, by design.
  options.session.pool = config_.pool;
  auto scenario = std::make_shared<Scenario>();
  scenario->name = std::move(options.name);
  scenario->weight = options.weight;
  scenario->status = options.start_paused ? ScenarioStatus::kPaused
                                          : ScenarioStatus::kRunning;
  const Clock::time_point now = Clock::now();
  scenario->deadline_seconds = options.deadline_seconds;
  scenario->has_deadline = options.deadline_seconds > 0.0;
  if (scenario->has_deadline) {
    scenario->deadline_at = after_seconds(now, options.deadline_seconds);
  }
  scenario->rate_cap = options.rate_cap;
  if (scenario->rate_cap > 0.0) {
    scenario->token_capacity =
        scenario->rate_cap * config_.rate_cap_burst_seconds;
    scenario->tokens = 0.0;  // no free initial burst: achieved rate <= cap
    scenario->last_refill = now;
  }
  scenario->session = std::make_unique<AttackSession>(
      generator, std::move(matcher), std::move(options.session));
  scenario->snapshot = scenario->session->stats();

  std::size_t id = 0;
  {
    MutexLock lock(mu_);
    id = next_id_++;
    scenario->id = id;
    if (scenario->name.empty()) {
      scenario->name = "scenario-" + std::to_string(id);
    }
    // Late joiners start at the fleet's current virtual now (the minimum
    // virtual time over *running* scenarios), the standard fair-queuing
    // rule: a scenario added mid-run gets its fair share from here on, it
    // does not get to replay the past and starve everyone until it
    // "catches up". Paused scenarios are excluded — a long-parked
    // scenario's stale clock must not drag late joiners into the past.
    const double virtual_now = virtual_now_locked();
    scenario->virtual_time =
        virtual_now == std::numeric_limits<double>::infinity() ? 0.0
                                                               : virtual_now;
    scenarios_.push_back(std::move(scenario));
  }
  cv_.notify_all();  // a parked driver may now have work
  return id;
}

std::shared_ptr<AttackScheduler::Scenario> AttackScheduler::find_scenario_locked(
    std::size_t id) const {
  for (const auto& scenario : scenarios_) {
    if (scenario->id == id) return scenario;
  }
  throw std::out_of_range("AttackScheduler: no scenario with id " +
                          std::to_string(id));
}

double AttackScheduler::virtual_now_locked() const {
  double virtual_now = std::numeric_limits<double>::infinity();
  for (const auto& scenario : scenarios_) {
    if (scenario->status == ScenarioStatus::kRunning && !scenario->removing) {
      virtual_now = std::min(virtual_now, scenario->virtual_time);
    }
  }
  return virtual_now;
}

bool AttackScheduler::past_deadline_locked(const Scenario& scenario) const {
  if (!scenario.has_deadline) return false;
  if (scenario.status == ScenarioStatus::kFinished) {
    return scenario.missed_deadline;  // latched at finish time
  }
  return Clock::now() > scenario.deadline_at;
}

double AttackScheduler::effective_weight_locked(
    const Scenario& scenario) const {
  double weight = scenario.weight;
  if (scenario.has_deadline && Clock::now() > scenario.deadline_at) {
    weight *= config_.deadline_boost;
  }
  return weight;
}

AttackScheduler::Scenario* AttackScheduler::pick_next_locked(
    Clock::time_point now, Clock::time_point* next_eligible) {
  Scenario* best = nullptr;
  for (const auto& entry : scenarios_) {
    Scenario& scenario = *entry;
    if (scenario.status != ScenarioStatus::kRunning || scenario.in_flight ||
        scenario.removing) {
      continue;
    }
    if (scenario.rate_cap > 0.0) {
      // Lazy token refill; the bucket may be negative from the last
      // slice's debit, so eligibility is simply "back above zero".
      const double elapsed = seconds_between(scenario.last_refill, now);
      if (elapsed > 0.0) {
        scenario.tokens = std::min(
            scenario.token_capacity,
            scenario.tokens + scenario.rate_cap * elapsed);
        scenario.last_refill = now;
      }
      if (scenario.tokens <= 0.0) {
        // Skipped without burning a slice; tell the caller when this
        // bucket next crosses zero so a driver can park exactly that long.
        const Clock::time_point refill_at = after_seconds(
            now, (1.0 - scenario.tokens) / scenario.rate_cap);
        if (next_eligible != nullptr && refill_at < *next_eligible) {
          *next_eligible = refill_at;
        }
        continue;
      }
    }
    // Strict < keeps the earliest-registered scenario on ties, so the
    // schedule is a pure function of weights and completion pattern.
    if (best == nullptr || scenario.virtual_time < best->virtual_time) {
      best = &scenario;
    }
  }
  return best;
}

bool AttackScheduler::any_runnable_locked() const {
  for (const auto& scenario : scenarios_) {
    if (scenario->status == ScenarioStatus::kRunning && !scenario->removing) {
      return true;
    }
  }
  return false;
}

void AttackScheduler::note_driving_started_locked() {
  if (!timer_started_) {
    timer_.reset();
    timer_started_ = true;
  }
}

void AttackScheduler::dispatch_locked(Scenario& scenario) {
  scenario.in_flight = true;
  ++active_slices_;
  note_driving_started_locked();
  if (!scenario.started) {
    scenario.started = true;
    scenario.first_slice_at = Clock::now();
    scenario.last_slice_at = scenario.first_slice_at;
  }
}

void AttackScheduler::mark_finished_locked(Scenario& scenario) const {
  scenario.status = ScenarioStatus::kFinished;
  if (scenario.has_deadline) {
    scenario.missed_deadline = Clock::now() > scenario.deadline_at;
  }
}

void AttackScheduler::run_slice(Scenario& scenario) {
  // stats() is safe to read here: only the thread driving this slice
  // touches the session, and in_flight excludes everyone else.
  const std::size_t produced_before = scenario.session->stats().produced;
  std::size_t steps = 0;
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < config_.slice_chunks; ++i) {
      if (!scenario.session->step()) break;
      ++steps;
    }
  } catch (...) {
    error = std::current_exception();
  }
  const std::size_t produced_delta =
      scenario.session->stats().produced - produced_before;
  {
    MutexLock lock(mu_);
    scenario.chunks_driven += steps;
    scenario.virtual_time +=
        static_cast<double>(steps) / effective_weight_locked(scenario);
    if (scenario.rate_cap > 0.0) {
      scenario.tokens -= static_cast<double>(produced_delta);
    }
    scenario.last_slice_at = Clock::now();
    scenario.snapshot = scenario.session->stats();
    if (error) {
      // A broken session (generator threw, pipeline error) cannot take
      // more slices; park it as finished and surface the error to whoever
      // is driving.
      mark_finished_locked(scenario);
      if (!first_error_) first_error_ = error;
    } else if (scenario.session->finished()) {
      mark_finished_locked(scenario);
    }
    scenario.in_flight = false;
    --active_slices_;
  }
  cv_.notify_all();
}

bool AttackScheduler::step() {
  Scenario* scenario = nullptr;
  {
    ReleasableMutexLock lock(mu_);
    for (;;) {
      while (quiesce_count_ != 0) cv_.wait(lock);
      Clock::time_point next_eligible = Clock::time_point::max();
      scenario = pick_next_locked(Clock::now(), &next_eligible);
      if (scenario != nullptr) break;
      if (next_eligible == Clock::time_point::max()) return false;
      // Everything runnable is rate-capped out: the fleet is throttled,
      // not drained, so sleep to the earliest refill and try again.
      cv_.wait_until(lock, next_eligible);
    }
    dispatch_locked(*scenario);
  }
  run_slice(*scenario);
  {
    MutexLock lock(mu_);
    if (first_error_) {
      const std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }
  return true;
}

void AttackScheduler::driver_loop() {
  for (;;) {
    Scenario* scenario = nullptr;
    {
      ReleasableMutexLock lock(mu_);
      for (;;) {
        Clock::time_point next_eligible = Clock::time_point::max();
        if (quiesce_count_ == 0) {
          scenario = pick_next_locked(Clock::now(), &next_eligible);
        }
        if (scenario != nullptr) break;
        // Exit only when the fleet is truly drained: nothing runnable
        // (ignoring the quiesce gate — that is temporary — and rate caps,
        // which merely delay) and no slice in flight that could finish
        // and unpark more work.
        if (active_slices_ == 0 && !any_runnable_locked()) return;
        // Park instead of spinning through empty picks; add_scenario,
        // resume_scenario and slice completions notify, and a pending
        // token-bucket refill bounds the wait.
        ++parked_drivers_;
        if (next_eligible != Clock::time_point::max()) {
          cv_.wait_until(lock, next_eligible);
        } else {
          cv_.wait(lock);
        }
        --parked_drivers_;
      }
      dispatch_locked(*scenario);
    }
    run_slice(*scenario);
  }
}

void AttackScheduler::run() {
  std::size_t drivers = 0;
  {
    MutexLock lock(mu_);
    std::size_t runnable = 0;
    for (const auto& scenario : scenarios_) {
      if (scenario->status == ScenarioStatus::kRunning && !scenario->removing) {
        ++runnable;
      }
    }
    if (runnable == 0) return;  // paused-only fleets are left paused
    drivers = config_.max_concurrent != 0
                  ? config_.max_concurrent
                  : std::min(runnable,
                             std::max<std::size_t>(
                                 1, std::thread::hardware_concurrency()));
  }
  std::vector<std::thread> threads;
  threads.reserve(drivers);
  for (std::size_t i = 0; i < drivers; ++i) {
    threads.emplace_back([this] { driver_loop(); });
  }
  for (auto& thread : threads) thread.join();
  {
    MutexLock lock(mu_);
    if (first_error_) {
      const std::exception_ptr error = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }
}

bool AttackScheduler::finished() const {
  MutexLock lock(mu_);
  return active_slices_ == 0 && !any_runnable_locked();
}

std::size_t AttackScheduler::scenario_count() const {
  MutexLock lock(mu_);
  return scenarios_.size();
}

ScenarioSnapshot AttackScheduler::snapshot_locked(
    const Scenario& scenario) const {
  ScenarioSnapshot snap;
  snap.id = scenario.id;
  snap.name = scenario.name;
  snap.weight = scenario.weight;
  snap.status = scenario.status;
  snap.chunks_driven = scenario.chunks_driven;
  snap.stats = scenario.snapshot;
  snap.deadline_seconds = scenario.deadline_seconds;
  snap.past_deadline = past_deadline_locked(scenario);
  snap.rate_cap = scenario.rate_cap;
  if (scenario.started) {
    const double wall =
        seconds_between(scenario.first_slice_at, scenario.last_slice_at);
    if (wall > 0.0) {
      snap.achieved_guesses_per_second =
          static_cast<double>(scenario.snapshot.produced) / wall;
    }
  }
  return snap;
}

ScenarioSnapshot AttackScheduler::scenario(std::size_t id) const {
  MutexLock lock(mu_);
  return snapshot_locked(*find_scenario_locked(id));
}

std::vector<ScenarioSnapshot> AttackScheduler::scenarios() const {
  MutexLock lock(mu_);
  std::vector<ScenarioSnapshot> snaps;
  snaps.reserve(scenarios_.size());
  for (const auto& entry : scenarios_) {
    snaps.push_back(snapshot_locked(*entry));
  }
  return snaps;
}

void AttackScheduler::pause_scenario(std::size_t id) {
  MutexLock lock(mu_);
  const std::shared_ptr<Scenario> scenario = find_scenario_locked(id);
  if (scenario->status == ScenarioStatus::kRunning) {
    scenario->status = ScenarioStatus::kPaused;
  }
  // An in-flight slice always completes; pausing only stops new ones.
}

void AttackScheduler::resume_scenario(std::size_t id) {
  {
    MutexLock lock(mu_);
    const std::shared_ptr<Scenario> scenario = find_scenario_locked(id);
    if (scenario->status == ScenarioStatus::kPaused) {
      // Fair-queuing resume rule: a long-paused scenario's virtual clock is
      // stale-small, and left alone it would monopolize every driver until
      // it "caught up" with the fleet. Advance it to the fleet's virtual
      // now (it was paused, so it is excluded from the scan) — it resumes
      // competing for its fair share from this moment, exactly like a late
      // joiner. max() keeps a scenario *ahead* of the fleet ahead.
      const double virtual_now = virtual_now_locked();
      if (virtual_now != std::numeric_limits<double>::infinity()) {
        scenario->virtual_time =
            std::max(scenario->virtual_time, virtual_now);
      }
      scenario->status = ScenarioStatus::kRunning;
    }
  }
  cv_.notify_all();
}

RunResult AttackScheduler::remove_scenario(std::size_t id) {
  std::shared_ptr<Scenario> scenario;
  {
    ReleasableMutexLock lock(mu_);
    // The shared_ptr keeps the scenario alive across the wait even if a
    // concurrent remove_scenario(id) erases the vector entry first.
    scenario = find_scenario_locked(id);
    scenario->removing = true;  // no new slices from this point
    while (scenario->in_flight) cv_.wait(lock);
    bool erased = false;
    for (auto it = scenarios_.begin(); it != scenarios_.end(); ++it) {
      if (it->get() == scenario.get()) {
        scenarios_.erase(it);
        erased = true;
        break;
      }
    }
    if (!erased) {
      throw std::out_of_range("AttackScheduler: scenario " +
                              std::to_string(id) + " was already removed");
    }
  }
  cv_.notify_all();  // drained drivers may now be able to exit
  // The result copy is built outside mu_ — the scenario is out of the
  // vector, so no driver can reach it and the copy can take its time.
  RunResult result = scenario->session->result();
  return result;
  // `scenario` (and its session, joining any pipeline threads) is
  // destroyed here, after the lock is released.
}

RunResult AttackScheduler::result(std::size_t id) const {
  std::shared_ptr<Scenario> scenario;
  {
    ReleasableMutexLock lock(mu_);
    scenario = find_scenario_locked(id);
    while (scenario->in_flight) cv_.wait(lock);
    // Reserve the scenario so no new slice dispatches while the result is
    // copied outside the lock; remove_scenario waits on the same flag, so
    // the session cannot be torn down under the copy either.
    scenario->in_flight = true;
  }
  RunResult result = scenario->session->result();
  {
    MutexLock lock(mu_);
    scenario->in_flight = false;
  }
  cv_.notify_all();
  return result;
}

SchedulerStats AttackScheduler::aggregate() const {
  // Construct the union sketch before gating anything: an out-of-range
  // precision throws here, while the scheduler is still fully live.
  util::CardinalitySketch unionsketch(config_.unique_union_precision_bits);

  ReleasableMutexLock lock(mu_);
  // Quiesce: park slice dispatch and wait for in-flight slices to land so
  // every session is readable at a chunk boundary. Slices are chunk-sized,
  // so the stall is brief. The gate is a counter so concurrent aggregate()
  // calls compose: dispatch stays parked until the last merge finishes.
  // Nothing below may leak an exception — an unwind would leave the count
  // raised and wedge every driver forever; errors are deferred through
  // first_error_ and rethrown after the gate is released.
  ++quiesce_count_;
  while (active_slices_ != 0) cv_.wait(lock);

  SchedulerStats stats;
  stats.scenarios = scenarios_.size();
  stats.parked_drivers = parked_drivers_;
  stats.unique_union_valid = !scenarios_.empty();
  for (const auto& scenario : scenarios_) {
    switch (scenario->status) {
      case ScenarioStatus::kRunning:
        ++stats.running;
        break;
      case ScenarioStatus::kPaused:
        ++stats.paused;
        break;
      case ScenarioStatus::kFinished:
        ++stats.finished;
        break;
    }
    if (past_deadline_locked(*scenario)) ++stats.deadline_missed;
    stats.produced += scenario->snapshot.produced;
    stats.matched += scenario->snapshot.matched;
    if (stats.unique_union_valid) {
      try {
        if (!scenario->session->merge_unique_sketch(unionsketch)) {
          stats.unique_union_valid = false;  // kOff contributes nothing
        }
      } catch (const std::invalid_argument&) {
        stats.unique_union_valid = false;  // sketch precision mismatch
      } catch (...) {
        // A broken session (merge_unique_sketch surfaces stored pipeline
        // errors) cannot contribute or take more slices; park it and defer
        // the error like a failed slice would.
        stats.unique_union_valid = false;
        mark_finished_locked(*scenario);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
  }
  if (stats.unique_union_valid) stats.unique_union = unionsketch.estimate();
  stats.seconds =
      saved_seconds_ + (timer_started_ ? timer_.elapsed_seconds() : 0.0);
  stats.guesses_per_second =
      stats.seconds > 0.0
          ? static_cast<double>(stats.produced) / stats.seconds
          : 0.0;

  --quiesce_count_;
  // Take any pending error while still locked; rethrow only after the
  // gate is released so a throwing aggregate() can never wedge the fleet.
  // This is also the only surfacing path for an error raised after the
  // fleet finished (no driver will ever rethrow it).
  std::exception_ptr error;
  if (quiesce_count_ == 0 && first_error_) {
    error = first_error_;
    first_error_ = nullptr;
  }
  lock.unlock();
  cv_.notify_all();
  if (error) std::rethrow_exception(error);
  return stats;
}

// ---- freeze / thaw ---------------------------------------------------------

bool AttackScheduler::quiesced_for_save_locked() const {
  // Protocol note for the analysis (and the reader): the quiesce scan
  // below reads per-scenario in_flight reservations, which is only sound
  // while mu_ is held — asserted here so the capability is part of the
  // quiesce path itself, not just its callers.
  mu_.assert_held();
  if (active_slices_ != 0) return false;
  for (const auto& scenario : scenarios_) {
    if (scenario->in_flight) return false;
  }
  return true;
}

void AttackScheduler::save_state(std::ostream& out) {
  ReleasableMutexLock lock(mu_);
  // Quiesce through the aggregate() gate, plus the result()-copy
  // reservation: a scenario with in_flight set but no slice (a result()
  // copy in progress) is being read outside the lock, so the save must
  // wait it out too before touching any session.
  ++quiesce_count_;
  while (!quiesced_for_save_locked()) cv_.wait(lock);

  const Clock::time_point now = Clock::now();
  try {
    out.write(kStateMagic, sizeof(kStateMagic) - 1);
    io::write_u64(out, next_id_);
    io::write_f64(out, saved_seconds_ +
                           (timer_started_ ? timer_.elapsed_seconds() : 0.0));
    // Scenarios mid-removal are excluded: their remove_scenario() call has
    // already claimed their results, so thawing them back would duplicate
    // the work they report.
    std::size_t count = 0;
    for (const auto& scenario : scenarios_) {
      if (!scenario->removing) ++count;
    }
    io::write_u64(out, count);
    for (const auto& entry : scenarios_) {
      const Scenario& scenario = *entry;
      if (scenario.removing) continue;
      io::write_u64(out, scenario.id);
      io::write_string(out, scenario.name);
      io::write_f64(out, scenario.weight);
      io::write_u64(out, static_cast<std::uint64_t>(scenario.status));
      io::write_u64(out, scenario.chunks_driven);
      io::write_f64(out, scenario.virtual_time);

      // QoS ledgers. The deadline is persisted as *remaining* seconds
      // (negative once passed): deadline_at is a wall-clock instant from
      // registration, meaningless in another process. Time spent frozen
      // does not count against a deadline.
      io::write_f64(out, scenario.deadline_seconds);
      io::write_u64(out, scenario.has_deadline ? 1 : 0);
      io::write_u64(out, scenario.missed_deadline ? 1 : 0);
      io::write_f64(out, scenario.has_deadline
                             ? seconds_between(now, scenario.deadline_at)
                             : 0.0);
      io::write_f64(out, scenario.rate_cap);
      io::write_f64(out, scenario.tokens);
      io::write_u64(out, scenario.started ? 1 : 0);
      io::write_f64(out, scenario.started
                             ? seconds_between(scenario.first_slice_at,
                                               scenario.last_slice_at)
                             : 0.0);

      // Per-scenario engine config, so load_state can reconstruct the
      // session before thawing its stream (which re-validates the
      // metric-relevant fields against this echo).
      write_session_config(out, scenario.session->config());

      entry->session->save_state(out);
    }
    out.write(kStateEndMagic, sizeof(kStateEndMagic) - 1);
    if (!out) throw std::runtime_error("AttackScheduler state write failed");
  } catch (...) {
    --quiesce_count_;
    lock.unlock();
    cv_.notify_all();
    throw;
  }
  --quiesce_count_;
  lock.unlock();
  cv_.notify_all();
}

void AttackScheduler::load_state(std::istream& in,
                                 const ScenarioResolver& resolver) {
  if (!resolver) {
    throw std::invalid_argument(
        "AttackScheduler::load_state requires a scenario resolver");
  }
  ReleasableMutexLock lock(mu_);
  if (!scenarios_.empty() || next_id_ != 0 || timer_started_) {
    throw std::logic_error(
        "AttackScheduler::load_state must run on a freshly constructed "
        "scheduler");
  }

  io::expect_magic(in, kStateMagic, "AttackScheduler");
  const std::uint64_t next_id = io::read_u64(in);
  const double saved_seconds = io::read_f64(in);
  const std::uint64_t count = io::read_length(in, "scenario count");
  const Clock::time_point now = Clock::now();

  // Everything is built into local state and committed only after the end
  // magic validates, so a corrupt stream leaves the scheduler unchanged.
  std::vector<std::shared_ptr<Scenario>> thawed;
  thawed.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    auto scenario = std::make_shared<Scenario>();
    scenario->id = io::read_u64(in);
    scenario->name = io::read_string(in);
    scenario->weight = io::read_f64(in);
    const std::uint64_t status = io::read_u64(in);
    if (status > static_cast<std::uint64_t>(ScenarioStatus::kFinished)) {
      throw std::runtime_error(
          "AttackScheduler state is corrupt: scenario status " +
          std::to_string(status));
    }
    scenario->status = static_cast<ScenarioStatus>(status);
    scenario->chunks_driven = io::read_u64(in);
    scenario->virtual_time = io::read_f64(in);
    if (!(scenario->weight > 0.0)) {
      throw std::runtime_error(
          "AttackScheduler state is corrupt: scenario weight must be > 0");
    }

    scenario->deadline_seconds = io::read_f64(in);
    scenario->has_deadline = io::read_u64(in) != 0;
    scenario->missed_deadline = io::read_u64(in) != 0;
    const double deadline_remaining = io::read_f64(in);
    if (scenario->has_deadline) {
      // Re-anchor: remaining time at save is remaining time now. A
      // scenario saved past its deadline (negative remaining) thaws past
      // it — effective-weight escalation engages on its very first pick,
      // and mark_finished_locked latches the miss exactly as if the fleet
      // had never frozen.
      scenario->deadline_at = after_seconds(now, deadline_remaining);
    }
    scenario->rate_cap = io::read_f64(in);
    const double tokens = io::read_f64(in);
    if (scenario->rate_cap > 0.0) {
      scenario->token_capacity =
          scenario->rate_cap * config_.rate_cap_burst_seconds;
      // Capacity follows the live scheduler's burst config; the saved
      // level is clamped into it so a thaw can never grant a burst the
      // live config would not.
      scenario->tokens = std::min(tokens, scenario->token_capacity);
      scenario->last_refill = now;
    }
    scenario->started = io::read_u64(in) != 0;
    const double active_window = io::read_f64(in);
    if (scenario->started) {
      // Preserve the achieved-rate wall window: it restarts spanning the
      // same width it had at save and grows from here.
      scenario->first_slice_at = after_seconds(now, -active_window);
      scenario->last_slice_at = now;
    }

    ScenarioThawInfo info;
    info.index = static_cast<std::size_t>(i);
    info.id = scenario->id;
    info.session = read_session_config(in);
    info.session.pool = config_.pool;  // the fleet budget, as add_scenario
    info.name = scenario->name;

    ScenarioBinding binding = resolver(info);
    scenario->session = std::make_unique<AttackSession>(
        binding.generator, std::move(binding.matcher), info.session);
    // Thaws bookkeeping, tracker, pending pipeline chunks and the
    // generator stream; validates the run shape against the config echo
    // and the generator name against the saved one.
    scenario->session->load_state(in);
    scenario->snapshot = scenario->session->stats();
    thawed.push_back(std::move(scenario));
  }
  io::expect_magic(in, kStateEndMagic, "AttackScheduler trailer");

  scenarios_ = std::move(thawed);
  next_id_ = next_id;
  saved_seconds_ = saved_seconds;
  lock.unlock();
  cv_.notify_all();  // parked drivers (if any) may now have work
}

}  // namespace passflow::guessing
