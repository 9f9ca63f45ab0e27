// Multi-scenario scheduler throughput bench: N attack scenarios over one
// shared HashSetMatcher and one pool, run concurrently through
// AttackScheduler vs the same N sessions run serially one after another,
// plus a QoS arm (deadline-boosted scenario 0, rate-capped last scenario)
// reporting deadline misses and achieved-vs-cap rates. Emits the JSON
// recorded in BENCH_scheduler.json.
//
//   ./scheduler_bench [--scenarios 4] [--budget 1000000] [--chunk 8192]
//                     [--work 24] [--testset 100000] [--threads 8]
//                     [--slice 4] [--pipeline 2]
//                     [--out BENCH_scheduler.json]
//
// --work sets the per-guess generation cost (mix64 iterations), standing
// in for the flow-inversion + decode cost of a real sampler. Every
// scenario's final metrics are cross-checked bitwise between the two arms
// before anything is reported, so a speedup can never come from dropping
// or corrupting work.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "guessing/matcher.hpp"
#include "guessing/metrics.hpp"
#include "guessing/scheduler.hpp"
#include "guessing/session.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pf = passflow;

namespace {

// Deterministic feedback-free stream with a tunable per-guess CPU cost:
// guess i is "g<mix64^(work)(seed + i) % period>". Different seeds give
// different streams, so N scenarios do N distinct attacks.
class WorkingStreamGenerator : public pf::guessing::GuessGenerator {
 public:
  WorkingStreamGenerator(std::size_t period, std::size_t work,
                         std::uint64_t seed)
      : period_(period), work_(work), seed_(seed) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t value = seed_ + cursor_++;
      for (std::size_t w = 0; w < work_; ++w) value = pf::util::mix64(value);
      out.push_back("g" + std::to_string(value % period_));
    }
  }
  std::string name() const override { return "working-stream"; }

 private:
  std::size_t period_;
  std::size_t work_;
  std::uint64_t seed_;
  std::size_t cursor_ = 0;
};

bool same_run(const pf::guessing::RunResult& a,
              const pf::guessing::RunResult& b) {
  if (a.checkpoints.size() != b.checkpoints.size() ||
      a.matched_passwords != b.matched_passwords ||
      a.sample_non_matched != b.sample_non_matched) {
    return false;
  }
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    if (a.checkpoints[i].guesses != b.checkpoints[i].guesses ||
        a.checkpoints[i].unique != b.checkpoints[i].unique ||
        a.checkpoints[i].matched != b.checkpoints[i].matched) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pf::util::Flags flags(argc, argv);
  const auto scenarios =
      static_cast<std::size_t>(flags.get_int("scenarios", 4));
  const auto budget = static_cast<std::size_t>(
      flags.get_int("budget", 1000000));
  const auto chunk = static_cast<std::size_t>(flags.get_int("chunk", 8192));
  const auto work = static_cast<std::size_t>(flags.get_int("work", 24));
  const auto testset_size =
      static_cast<std::size_t>(flags.get_int("testset", 100000));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 8));
  const auto slice = static_cast<std::size_t>(flags.get_int("slice", 4));
  const auto pipeline =
      static_cast<std::size_t>(flags.get_int("pipeline", 2));
  const std::string out_path = flags.get_string("out", "");

  // Target set: an even sample of the streams' value space so matches
  // accumulate across the whole run for every scenario.
  const std::size_t period = budget * 3;
  std::vector<std::string> targets;
  targets.reserve(testset_size);
  const std::size_t stride = std::max<std::size_t>(1, period / testset_size);
  for (std::size_t v = 0; v < period && targets.size() < testset_size;
       v += stride) {
    targets.push_back("g" + std::to_string(v));
  }
  auto matcher = std::make_shared<const pf::guessing::HashSetMatcher>(targets);
  pf::util::ThreadPool pool(threads);

  std::printf(
      "scheduler_bench: scenarios=%zu budget=%zu chunk=%zu work=%zu "
      "testset=%zu pool=%zu hardware=%u\n",
      scenarios, budget, chunk, work, targets.size(), pool.size(),
      std::thread::hardware_concurrency());

  const auto make_session_config = [&] {
    pf::guessing::SessionConfig config;
    config.budget = budget;
    config.chunk_size = chunk;
    config.pipeline_depth = pipeline;
    config.pool = &pool;
    return config;
  };

  // ---- arm 1: the same N attacks, one AttackSession after another ------
  std::vector<pf::guessing::RunResult> serial_results;
  double serial_seconds = 0.0;
  {
    pf::util::Timer timer;
    for (std::size_t s = 0; s < scenarios; ++s) {
      WorkingStreamGenerator generator(period, work, 1000003 * (s + 1));
      pf::guessing::AttackSession session(generator,
                                          pf::guessing::MatcherRef(matcher),
                                          make_session_config());
      session.run();
      serial_results.push_back(session.result());
    }
    serial_seconds = timer.elapsed_seconds();
  }
  const double total_guesses = static_cast<double>(budget * scenarios);
  std::printf("  %-24s %7.2fs  %11.0f guesses/s\n", "serial_sessions",
              serial_seconds, total_guesses / serial_seconds);

  // ---- arm 2: the same N attacks, concurrent under AttackScheduler -----
  std::vector<pf::guessing::RunResult> fleet_results;
  double fleet_seconds = 0.0;
  {
    std::vector<std::unique_ptr<WorkingStreamGenerator>> generators;
    pf::guessing::SchedulerConfig fleet;
    fleet.pool = &pool;
    fleet.slice_chunks = slice;
    fleet.max_concurrent = scenarios;
    pf::guessing::AttackScheduler scheduler(fleet);
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < scenarios; ++s) {
      generators.push_back(std::make_unique<WorkingStreamGenerator>(
          period, work, 1000003 * (s + 1)));
      pf::guessing::ScenarioOptions options;
      options.session = make_session_config();
      ids.push_back(scheduler.add_scenario(
          *generators[s], pf::guessing::MatcherRef(matcher), options));
    }
    pf::util::Timer timer;
    scheduler.run();
    fleet_seconds = timer.elapsed_seconds();
    for (const std::size_t id : ids) {
      fleet_results.push_back(scheduler.result(id));
    }
  }
  const double speedup = serial_seconds / fleet_seconds;
  std::printf("  %-24s %7.2fs  %11.0f guesses/s  (%.2fx)\n",
              "scheduler_concurrent", fleet_seconds,
              total_guesses / fleet_seconds, speedup);

  // ---- cross-check: concurrency must not change any metric -------------
  for (std::size_t s = 0; s < scenarios; ++s) {
    if (!same_run(serial_results[s], fleet_results[s])) {
      std::fprintf(stderr,
                   "FATAL: scenario %zu metrics diverged between arms\n", s);
      return 1;
    }
  }
  std::printf("  per-scenario metrics: bitwise identical across arms\n");

  // ---- arm 3: the same fleet under QoS knobs ---------------------------
  // Scenario 0 gets a deadline it cannot make (10% of the fair-share wall
  // time), so effective-weight escalation runs for most of the arm;
  // the last scenario is capped at half its fair-share rate, so the token
  // bucket throttles it for real. The headline check: QoS reorders slices
  // in time but every metric stays bitwise identical to the serial arm.
  const double fleet_rate_per_scenario =
      static_cast<double>(budget) / fleet_seconds;
  const double rate_cap = 0.5 * fleet_rate_per_scenario;
  const double deadline_seconds = 0.1 * fleet_seconds;
  const std::size_t capped_index = scenarios - 1;
  std::vector<pf::guessing::RunResult> qos_results;
  std::vector<pf::guessing::ScenarioSnapshot> qos_snaps;
  std::size_t qos_deadline_missed = 0;
  double qos_seconds = 0.0;
  {
    std::vector<std::unique_ptr<WorkingStreamGenerator>> generators;
    pf::guessing::SchedulerConfig fleet;
    fleet.pool = &pool;
    fleet.slice_chunks = slice;
    fleet.max_concurrent = scenarios;
    pf::guessing::AttackScheduler scheduler(fleet);
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < scenarios; ++s) {
      generators.push_back(std::make_unique<WorkingStreamGenerator>(
          period, work, 1000003 * (s + 1)));
      pf::guessing::ScenarioOptions options;
      options.session = make_session_config();
      if (s == 0) options.deadline_seconds = deadline_seconds;
      if (s == capped_index) options.rate_cap = rate_cap;
      ids.push_back(scheduler.add_scenario(
          *generators[s], pf::guessing::MatcherRef(matcher), options));
    }
    pf::util::Timer timer;
    scheduler.run();
    qos_seconds = timer.elapsed_seconds();
    qos_deadline_missed = scheduler.aggregate().deadline_missed;
    for (const std::size_t id : ids) {
      qos_snaps.push_back(scheduler.scenario(id));
      qos_results.push_back(scheduler.result(id));
    }
  }
  std::printf("  %-24s %7.2fs  %11.0f guesses/s  (%.2fx)\n", "scheduler_qos",
              qos_seconds, total_guesses / qos_seconds,
              serial_seconds / qos_seconds);
  std::printf(
      "    deadline_missed=%zu  capped scenario %zu: cap=%.0f achieved=%.0f "
      "guesses/s\n",
      qos_deadline_missed, capped_index, rate_cap,
      qos_snaps[capped_index].achieved_guesses_per_second);
  for (std::size_t s = 0; s < scenarios; ++s) {
    if (!same_run(serial_results[s], qos_results[s])) {
      std::fprintf(
          stderr,
          "FATAL: scenario %zu metrics diverged under QoS scheduling\n", s);
      return 1;
    }
  }
  std::printf("  per-scenario metrics: bitwise identical under QoS\n");

  // ---- JSON record -----------------------------------------------------
  std::stringstream json;
  json << "{\n"
       << "  \"bench\": \"scheduler_bench\",\n"
       << "  \"config\": { \"scenarios\": " << scenarios << ", \"budget\": "
       << budget << ", \"chunk_size\": " << chunk << ", \"work\": " << work
       << ", \"test_set_size\": " << targets.size()
       << ", \"pool_threads\": " << pool.size()
       << ", \"slice_chunks\": " << slice << ", \"pipeline_depth\": "
       << pipeline << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << " },\n";
  if (std::thread::hardware_concurrency() < pool.size()) {
    json << "  \"note\": \"pool oversubscribed (" << pool.size()
         << " workers on " << std::thread::hardware_concurrency()
         << " hardware threads); concurrent-vs-serial speedup needs at "
            "least pool-size cores — on this host the arms measure "
            "scheduling overhead, not parallelism\",\n";
  }
  json << "  \"arms\": [\n";
  const auto arm_json = [&](const char* label, double seconds, bool last) {
    json << "    { \"label\": \"" << label << "\", \"seconds\": " << seconds
         << ", \"guesses_per_second\": "
         << static_cast<long long>(total_guesses / seconds)
         << ", \"speedup_vs_serial\": " << serial_seconds / seconds << " }"
         << (last ? "" : ",") << "\n";
  };
  arm_json("serial_sessions", serial_seconds, false);
  arm_json("scheduler_concurrent", fleet_seconds, false);
  arm_json("scheduler_qos", qos_seconds, true);
  json << "  ],\n"
       << "  \"qos\": {\n"
       << "    \"deadline_boost\": 4.0,\n"
       << "    \"deadline_missed\": " << qos_deadline_missed << ",\n"
       << "    \"scenarios\": [\n";
  for (std::size_t s = 0; s < scenarios; ++s) {
    json << "      { \"scenario\": " << s << ", \"deadline_seconds\": "
         << qos_snaps[s].deadline_seconds << ", \"past_deadline\": "
         << (qos_snaps[s].past_deadline ? "true" : "false")
         << ", \"rate_cap\": " << qos_snaps[s].rate_cap
         << ", \"achieved_guesses_per_second\": "
         << static_cast<long long>(qos_snaps[s].achieved_guesses_per_second)
         << " }" << (s + 1 < scenarios ? "," : "") << "\n";
  }
  json << "    ]\n  },\n"
       << "  \"scenario_metrics\": [\n";
  for (std::size_t s = 0; s < scenarios; ++s) {
    const auto& final_cp = fleet_results[s].final();
    json << "    { \"scenario\": " << s << ", \"matched\": "
         << final_cp.matched << ", \"unique\": " << final_cp.unique << " }"
         << (s + 1 < scenarios ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::printf("%s", json.str().c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
