// The paper-architecture benchmark program. One run builds one synthetic
// breach and exercises the system the four ways the paper and the CLI use
// it, at paper architecture (dim 10, standard alphabet, 18 couplings x
// hidden 256 x 2 residual blocks):
//
//   train   Trainer::train, no trainer pool, batch 512, fixed epochs (the
//           way train_and_attack trains). Its model feeds the others.
//   flow    Dynamic+GS with table1_parameters(budget) drives a serial
//           (feedback) AttackSession against a HashSetMatcher of the test
//           split, exact unique tracking.
//   rules   RuleEngine over a leak-distilled wordlist feeds a pipelined
//           session (depth 2, shared pool) against the same matcher.
//   screen  An open-loop client sends single-candidate StrengthQuerys over
//           one connection to a StrengthServer (max_batch 64, shared pool,
//           MappedMatcher index of the test split).
//
//   perfbench --workload rockyou|tail-heavy --seed N --seconds S
//             --trace 0|1 [--spans-out PATH] [--commit ID]
//
// After set-up and the attack model's training, the run measures in
// rounds (one train probe, one flow attack, one rules attack and one
// screening window each) until S seconds have passed, and reports medians
// over rounds, so a transient stall costs one sample of each phase rather
// than all of one phase. With --trace 1 every other round runs through
// span-recording decorators, single layer calls are replayed on the run's
// own inputs, and the per-layer metrics are printed instead of the
// end-to-end ones. The last stdout line is one JSON object {correct,
// attempted, failed, metrics}; a failed correctness gate names its cause
// on stderr and makes the exit code 1. README.md beside this file maps
// each metric to its layer.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "baselines/rules.hpp"
#include "data/alphabet.hpp"
#include "data/encoder.hpp"
#include "data/synthetic_rockyou.hpp"
#include "dist/protocol.hpp"
#include "flow/flow_model.hpp"
#include "flow/trainer.hpp"
#include "guessing/dynamic_sampler.hpp"
#include "guessing/mapped_matcher.hpp"
#include "guessing/matcher.hpp"
#include "guessing/session.hpp"
#include "guessing/unique_tracker.hpp"
#include "nn/adam.hpp"
#include "nn/gemm.hpp"
#include "serve/strength_client.hpp"
#include "serve/strength_server.hpp"
#include "trace.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace pf = passflow;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

// ---- fixed run shape ------------------------------------------------------
// Sizes are constants so every run of a workload does the same work; only
// the seed changes the inputs. Both workloads draw train_and_attack's
// default CorpusConfig; "tail-heavy" raises the weight of its random-string
// family from 0.05 to 0.30. That weight, the 3M-row breach and the 6144
// training rows are chosen sizes that fit the run budget, taken from
// neither the paper nor a caller. README.md says why the callers' own
// configurations were not used.
struct WorkloadSpec {
  const char* name;
  double random_tail;  // weight of the unlearnable random-string family
};
constexpr WorkloadSpec kWorkloads[] = {{"rockyou", 0.05}, {"tail-heavy", 0.30}};
constexpr std::size_t kBreachRows = 3000000; // the attacked breach
constexpr std::size_t kTrainRows = 6144;     // attacker's training subsample

constexpr std::size_t kSetupRepeats = 3;     // setup_s is their median
constexpr std::size_t kTrainEpochs = 4;      // of the attack model
constexpr std::size_t kProbeRows = 2048;     // per-round training probe
constexpr std::size_t kLeakRows = 1000000;   // second breach -> wordlist
constexpr std::size_t kWordlistWords = 150000;
constexpr std::size_t kFlowBudget = 32768;   // Table I row: <= 1e5 guesses
constexpr std::size_t kFlowChunk = 4096;
constexpr std::size_t kRulesBudget = 3 << 20;
constexpr std::size_t kRulesChunk = 16384;
constexpr std::size_t kServeBatch = 64;      // CLI default --serve-batch
constexpr double kNominalQps = 1000.0;        // about a fifth of capacity
constexpr std::size_t kWindowQueries = 1000;  // one nominal-rate window
constexpr double kLatencyLimitMs = 20.0;      // for the max-rate readings
// A rung sustains its rate only if the latency of its last tenth of
// queries is at most this much above that of its second tenth (the first
// tenth starts on an empty queue). The two tenths are 0.8 * kRungSeconds
// apart, so a rate 1.25% over capacity grows the backlog by 5 ms.
constexpr double kGrowthLimitMs = 5.0;
constexpr double kRungSeconds = 0.5;          // offered load per rung
constexpr double kLadderQps = 2000.0;         // ladder: 2000 * 1.15^k
constexpr double kRungStep = 1.15;
constexpr std::size_t kRungs = 32;            // 2000 .. 152k q/s

struct Options {
  std::string workload;
  double random_tail = -1.0;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  std::string commit = "unknown";
};

// ---- small helpers ----------------------------------------------------------
double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile of an ascending vector.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

// Median seconds of `reps` calls to fn().
template <typename Fn>
double time_median(std::size_t reps, Fn&& fn) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < reps; ++i) {
    pf::util::Timer timer;
    fn();
    seconds.push_back(timer.elapsed_seconds());
  }
  return median(seconds);
}

template <typename T>
std::vector<T> head(const std::vector<T>& values, std::size_t n) {
  return std::vector<T>(values.begin(),
                        values.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(n, values.size())));
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void gate(bool ok, const std::string& what) {
    if (!ok && std::find(failures_.begin(), failures_.end(), what) ==
                   failures_.end()) {
      failures_.push_back(what);
    }
  }
  void count(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- inputs -------------------------------------------------------------------
struct Inputs {
  pf::data::DatasetSplit split;
  std::vector<std::string> wordlist;
  std::shared_ptr<pf::guessing::HashSetMatcher> test_matcher;
  std::shared_ptr<pf::guessing::MappedMatcher> index;
  std::vector<std::string> queries;  // screening candidates, half in index
};

Inputs make_inputs(const Options& options, const std::string& index_path) {
  Inputs in;
  pf::data::CorpusConfig config;  // train_and_attack's corpus mix
  config.weight_random_tail = options.random_tail;
  pf::data::SyntheticRockyou breach(config, options.seed);
  {
    const auto corpus = breach.generate(kBreachRows);
    pf::util::Rng split_rng(options.seed ^ 0x5a17u);
    in.split = pf::data::make_rockyou_style_split(corpus, kTrainRows, split_rng);
  }
  pf::data::SyntheticRockyou leak(config, options.seed + 0x1eaf);
  in.wordlist = pf::baselines::wordlist_from_corpus(leak.generate(kLeakRows),
                                                   kWordlistWords);
  in.test_matcher =
      std::make_shared<pf::guessing::HashSetMatcher>(in.split.test_unique);
  pf::guessing::IndexBuilder::build(in.split.test_unique, index_path);
  in.index = std::make_shared<pf::guessing::MappedMatcher>(index_path);
  pf::util::Rng query_rng(options.seed ^ 0x9e77u);
  for (std::size_t i = 0; i < 4096; ++i) {
    const auto& source = i % 2 == 0 ? in.split.test_unique : in.split.train;
    in.queries.push_back(source[query_rng.uniform_index(source.size())]);
  }
  return in;
}

pf::flow::FlowModel fresh_model(std::uint64_t seed) {
  pf::util::Rng rng(seed ^ 0xf10u);
  return pf::flow::FlowModel(pf::flow::FlowConfig{}, rng);  // 18x256x2, dim 10
}

pf::guessing::SessionConfig session_config(std::size_t budget,
                                           std::size_t chunk,
                                           pf::util::ThreadPool* pool) {
  pf::guessing::SessionConfig config;
  config.budget = budget;
  config.chunk_size = chunk;
  config.pipeline_depth = 2;  // engages for rules; feedback samplers bypass it
  config.pool = pool;
  config.unique_tracking = pf::guessing::UniqueTracking::kExact;
  return config;
}

// ---- screening server and open-loop client -------------------------------------
// Runs the server's event loop on its own thread and hands out stats
// snapshots taken on that thread between poll_once() calls.
class ServerLoop {
 public:
  explicit ServerLoop(pf::serve::StrengthServer& server)
      : server_(server), thread_([this] { loop(); }) {}
  ~ServerLoop() {
    stop_.store(true);
    thread_.join();
  }
  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  // Stats as of the loop's next turn. Throws if the loop has died.
  pf::serve::StrengthServerStats snapshot() {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t want = ++requested_;
    cv_.wait(lock, [&] { return served_ >= want || !error_.empty(); });
    if (!error_.empty()) throw std::runtime_error("server loop: " + error_);
    return stats_;
  }

 private:
  void loop() {
    try {
      while (!stop_.load()) {
        server_.poll_once(2);
        std::lock_guard<std::mutex> lock(mu_);
        if (served_ < requested_) {
          stats_ = server_.stats();
          served_ = requested_;
          cv_.notify_all();
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      error_ = e.what();
      cv_.notify_all();
    }
  }

  pf::serve::StrengthServer& server_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t requested_ = 0;  // guarded by mu_
  std::uint64_t served_ = 0;     // guarded by mu_
  std::string error_;            // guarded by mu_; set when the loop died
  pf::serve::StrengthServerStats stats_;
  std::thread thread_;  // last: starts after the members it uses
};

struct Answer {
  std::size_t candidate = 0;  // index into Inputs::queries
  pf::dist::StrengthEstimate estimate;
};

struct LoadResult {
  std::vector<double> latency_ms;  // ascending, from due time; failures = inf
  std::vector<double> lag_ms;      // ascending, send time minus due time
  // Median latency of the last tenth of the queries (in due order) minus
  // that of the second tenth: how much backlog built up while sending.
  double growth_ms = 0.0;
  std::size_t sent = 0;
  std::size_t refused = 0;
  std::size_t missing = 0;
  std::size_t duplicate = 0;
  // A refusal misses every latency limit, so it fails the whole sample.
  double quantile_ms(double q) const {
    return refused > 0 ? INFINITY : quantile(latency_ms, q);
  }
  // At most 1 when the sample sustained its rate: quantile q within the
  // latency limit, no backlog growth past its limit, nothing refused or
  // lost. Above 1 it says how far off it was, for interpolation.
  double score(double q) const {
    if (refused + missing > 0) return INFINITY;
    return std::max(quantile_ms(q) / kLatencyLimitMs,
                    growth_ms / kGrowthLimitMs);
  }
};

// Open loop: query i is due at i / qps and is sent as soon as the
// generator reaches it; its latency runs from the due time, so a stall
// also charges the queries queued behind it.
LoadResult offer_load(pf::serve::StrengthClient& client,
                      const std::vector<std::string>& candidates,
                      std::size_t& cursor, double qps, std::size_t count,
                      Tracer* tracer, std::vector<Answer>* answers) {
  struct Pending {
    double due = 0.0;
    std::size_t candidate = 0;
    bool answered = false;
  };
  LoadResult out;
  std::unordered_map<std::uint64_t, Pending> pending;
  pending.reserve(count);
  std::vector<std::pair<double, double>> timeline;  // (due, latency) of Ok
  timeline.reserve(count);
  pf::util::Timer clock;
  const double trace_base = tracer ? tracer->now() : 0.0;
  std::size_t answered = 0;
  const auto receive = [&] {
    const pf::dist::StrengthReplyMsg reply = client.recv_reply();
    const double now = clock.elapsed_seconds();
    auto it = pending.find(reply.request_id);
    if (it == pending.end() || it->second.answered) {
      ++out.duplicate;
      return;
    }
    it->second.answered = true;
    ++answered;
    const bool ok = reply.status == pf::dist::StrengthStatus::kOk &&
                    reply.estimates.size() == 1;
    if (ok) {
      out.latency_ms.push_back((now - it->second.due) * 1e3);
      timeline.emplace_back(it->second.due, out.latency_ms.back());
      if (answers) answers->push_back({it->second.candidate, reply.estimates[0]});
    } else {
      ++out.refused;
      out.latency_ms.push_back(INFINITY);
    }
    if (tracer) {
      tracer->record("screen.query", trace_base + it->second.due,
                     trace_base + now, ok ? "ok" : "overloaded",
                     reply.request_id);
    }
  };
  while (out.sent < count) {
    const double due = static_cast<double>(out.sent) / qps;
    const double now = clock.elapsed_seconds();
    if (now >= due) {
      const std::size_t index = cursor++ % candidates.size();
      const std::uint64_t id = client.send_query({candidates[index]});
      pending[id] = Pending{due, index, false};
      out.lag_ms.push_back((clock.elapsed_seconds() - due) * 1e3);
      ++out.sent;
    } else if (client.reply_ready(0)) {
      receive();
    } else if (due - now > 200e-6) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  const double deadline = clock.elapsed_seconds() + 5.0;
  while (answered < out.sent && clock.elapsed_seconds() < deadline) {
    if (client.reply_ready(10)) receive();
  }
  out.missing = out.sent - answered;
  out.latency_ms.resize(out.latency_ms.size() + out.missing, INFINITY);
  std::sort(timeline.begin(), timeline.end());
  const std::size_t tenth = std::max<std::size_t>(1, timeline.size() / 10);
  if (timeline.size() >= 3 * tenth) {
    std::vector<double> second;
    std::vector<double> last;
    for (std::size_t i = 0; i < tenth; ++i) {
      second.push_back(timeline[tenth + i].second);
      last.push_back(timeline[timeline.size() - 1 - i].second);
    }
    out.growth_ms = median(last) - median(second);
  }
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  std::sort(out.lag_ms.begin(), out.lag_ms.end());
  return out;
}

double rung_qps(std::size_t k) {
  return kLadderQps * std::pow(kRungStep, static_cast<double>(k));
}

// Where the load score crosses 1 between a sustained rate and the failing
// rate above it, interpolated in log(rate). A failing side that refused or
// lost queries has no usable score, so the sustained rate is the answer.
double crossing(double pass_rate, double pass_score, double fail_rate,
                double fail_score) {
  if (!std::isfinite(fail_score)) return pass_rate;
  const double t = (1.0 - pass_score) / (fail_score - pass_score);
  return pass_rate * std::pow(fail_rate / pass_rate, t);
}

// The rate ladder for one latency quantile, across rounds.
struct Ladder {
  double q = 0.5;              // the quantile held to kLatencyLimitMs
  std::size_t start = 0;       // first rung of the next climb
  double nominal_score = 0.0;  // last nominal window: the rung below 0
  std::vector<double> max_qps;   // one reading per climb
  std::vector<std::string> log;  // each climb's rungs and reading
};

// Traced and untraced samples of one attack shape.
struct AttackSamples {
  std::vector<double> untraced_gps;
  std::vector<double> traced_gps;
  std::vector<double> matched_per_s;  // untraced reps only
  std::size_t traced_reps = 0;
  std::size_t traced_produced = 0;
  std::optional<pf::guessing::RunResult> first;  // every rep must match it
};

void report_overhead(const AttackSamples& samples, const std::string& name,
                     Report& report) {
  report.set(name,
             100.0 * (1.0 - median(samples.traced_gps) /
                                median(samples.untraced_gps)),
             "%");
}

bool same_result(const pf::guessing::RunResult& a,
                 const pf::guessing::RunResult& b) {
  if (a.checkpoints.size() != b.checkpoints.size() ||
      a.matched_passwords != b.matched_passwords ||
      a.sample_non_matched != b.sample_non_matched) {
    return false;
  }
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    const auto& x = a.checkpoints[i];
    const auto& y = b.checkpoints[i];
    if (x.guesses != y.guesses || x.unique != y.unique ||
        x.matched != y.matched ||
        bits(x.matched_percent) != bits(y.matched_percent)) {
      return false;
    }
  }
  return true;
}

// ---- the benchmark -------------------------------------------------------------
class Bench {
 public:
  Bench(const Options& options, pf::util::ThreadPool& pool, Tracer* tracer)
      : options_(options),
        pool_(pool),
        tracer_(tracer),
        encoder_(pf::data::Alphabet::standard(), 10),
        index_path_(options.spans_out.empty() ? "perfbench.pfidx"
                                              : options.spans_out + ".pfidx") {
    sampler_config_ = pf::guessing::table1_parameters(kFlowBudget);
    sampler_config_.smoothing.enabled = true;  // Dynamic+GS
    sampler_config_.seed = options.seed;
    sampler_config_.pool = &pool;
  }
  ~Bench() { std::remove(index_path_.c_str()); }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  void setup();
  void run_rounds();
  void finish();
  Report& report() { return report_; }

 private:
  bool traced_round() const { return tracer_ && round_ % 2 == 1; }
  void train_schedule();
  void train_probe();
  void flow_round();
  void rules_round();
  void screen_window();
  void screen_ladder();
  void climb(Ladder& ladder);
  void finish_flow();
  void finish_rules();
  void finish_screen();
  void replay_layers();

  const Options& options_;
  pf::util::ThreadPool& pool_;
  Tracer* tracer_;
  const pf::data::Encoder encoder_;
  const std::string index_path_;
  Report report_;
  std::size_t round_ = 0;

  std::optional<Inputs> inputs_;
  std::unique_ptr<pf::flow::FlowModel> model_;
  std::unique_ptr<pf::serve::StrengthServer> server_;
  std::unique_ptr<ServerLoop> loop_;
  std::unique_ptr<pf::serve::StrengthClient> client_;
  std::vector<pf::baselines::ManglingRule> rules_;
  pf::guessing::DynamicSamplerConfig sampler_config_;

  std::vector<double> train_rates_;
  std::vector<double> train_step_ms_;  // traced probes
  AttackSamples flow_;
  std::size_t ds_components_ = 0;
  AttackSamples rules_samples_;
  std::vector<std::vector<std::string>> rules_chunks_;  // for the fold replay
  std::size_t rules_probes_ = 0;
  std::size_t query_cursor_ = 0;
  std::size_t nominal_windows_ = 0;
  std::vector<double> nominal_latency_;  // every query of untraced windows
  std::vector<double> nominal_lag_;
  Ladder p50_ladder_{0.50};  // untraced rounds: screen_max_qps
  Ladder p99_ladder_{0.99};  // traced rounds: screen.max_qps_p99
  std::vector<Answer> answers_;
  std::size_t served_candidates_ = 0;
  std::size_t served_batches_ = 0;
  std::size_t overloaded_ = 0;
};

void Bench::setup() {
  // Part 1: breach, split, leak wordlist, matcher and serving index.
  std::vector<double> data_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    inputs_.reset();
    pf::util::Timer timer;
    inputs_.emplace(make_inputs(options_, index_path_));
    data_s.push_back(timer.elapsed_seconds());
  }
  rules_ = pf::baselines::default_ruleset();

  train_schedule();

  // Part 2: the screening server (bind + guess-number calibration).
  pf::serve::StrengthServerConfig config;
  config.max_batch = kServeBatch;
  config.pool = &pool_;
  std::vector<double> server_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    server_.reset();
    pf::util::Timer timer;
    server_ = std::make_unique<pf::serve::StrengthServer>(
        config, *model_, encoder_, inputs_->index);
    server_s.push_back(timer.elapsed_seconds());
  }
  report_.set("setup_s", median(data_s) + median(server_s), "s");
  loop_ = std::make_unique<ServerLoop>(*server_);
  client_ = std::make_unique<pf::serve::StrengthClient>("127.0.0.1",
                                                        server_->port());

  // Warm the pool, the allocator and the server's batch path before any
  // timed sample: first rule-attack runs read slow otherwise.
  {
    pf::baselines::RuleEngine engine(inputs_->wordlist, rules_, 10);
    pf::guessing::AttackSession(
        engine, *inputs_->test_matcher,
        session_config(4 * kRulesChunk, kRulesChunk, &pool_))
        .run();
  }
  offer_load(*client_, inputs_->queries, query_cursor_, kNominalQps, 500,
             nullptr, nullptr);
}

// The training that produces the attack model: train_and_attack's
// schedule on the attacker's split. Its validation NLL is train_nll.
void Bench::train_schedule() {
  const Inputs& in = *inputs_;
  pf::flow::TrainConfig config;
  config.epochs = kTrainEpochs;
  config.log_every = 0;
  config.seed = options_.seed;
  model_ = std::make_unique<pf::flow::FlowModel>(fresh_model(options_.seed));
  const pf::nn::Matrix held_out =
      encoder_.encode_batch(head(in.split.test_unique, 2048));
  const double initial = model_->nll(held_out);
  const auto result =
      pf::flow::Trainer(*model_, config).train(in.split.train, encoder_);
  const double final_nll = model_->nll(held_out);
  bool finite = std::isfinite(result.best_validation_nll);
  for (const auto& epoch : result.history) {
    finite = finite && std::isfinite(epoch.train_nll) &&
             std::isfinite(epoch.validation_nll);
  }
  report_.gate(finite, "train: non-finite loss");
  report_.gate(final_nll < initial,
               "train: held-out NLL did not drop (" + std::to_string(initial) +
                   " -> " + std::to_string(final_nll) + ")");
  // The validation NLL is a density over [0,1]^dim; adding dim*log|A|
  // turns it into nats per password (-log P of its code bin), positive.
  report_.set("train_nll",
              result.best_validation_nll +
                  static_cast<double>(encoder_.dim()) *
                      std::log(static_cast<double>(encoder_.alphabet().size())),
              "nats");
}

void Bench::run_rounds() {
  pf::util::Timer clock;
  for (round_ = 0; round_ < (tracer_ ? 2u : 1u) ||
                   clock.elapsed_seconds() < options_.seconds;
       ++round_) {
    screen_window();
    train_probe();
    screen_window();
    flow_round();
    screen_window();
    rules_round();
    screen_window();
    screen_ladder();
  }
}

// One epoch of the same trainer on a fixed slice of the split.
void Bench::train_probe() {
  const bool traced = traced_round();
  pf::flow::TrainConfig config;
  config.epochs = 1;
  config.log_every = 0;
  config.seed = options_.seed;
  const auto rows = head(inputs_->split.train, kProbeRows);
  const std::size_t fit =
      rows.size() - static_cast<std::size_t>(static_cast<double>(rows.size()) *
                                             config.validation_fraction);
  const std::size_t steps = (fit + config.batch_size - 1) / config.batch_size;
  auto model = fresh_model(options_.seed);
  pf::flow::Trainer trainer(model, config);
  pf::util::Timer timer;
  pf::flow::TrainResult result;
  {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(*tracer_, "train.probe", "round", round_);
    result = trainer.train(rows, encoder_);
  }
  const double seconds = timer.elapsed_seconds();
  const bool finite = std::isfinite(result.history.back().train_nll);
  report_.gate(finite, "train: non-finite loss in a probe");
  report_.count(steps, finite ? 0 : steps);
  if (traced) {
    train_step_ms_.push_back(seconds * 1e3 / static_cast<double>(steps));
  } else {
    train_rates_.push_back(static_cast<double>(fit) / seconds);
  }
}

void Bench::flow_round() {
  const bool traced = traced_round();
  const Inputs& in = *inputs_;
  pf::guessing::DynamicSampler sampler(*model_, encoder_, sampler_config_);
  std::optional<perfbench::TracedGenerator> traced_gen;
  std::optional<perfbench::TracedMatcher> traced_match;
  pf::guessing::GuessGenerator* gen = &sampler;
  const pf::guessing::Matcher* matcher = in.test_matcher.get();
  if (traced) {
    gen = &traced_gen.emplace(sampler, *tracer_, "flow", 0);
    matcher = &traced_match.emplace(*in.test_matcher, *tracer_, "flow");
  }
  pf::guessing::AttackSession session(
      *gen, *matcher, session_config(kFlowBudget, kFlowChunk, &pool_));
  pf::util::Timer timer;
  std::size_t steps = 0;
  for (bool more = true; more; ++steps) {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(*tracer_, "flow.step", "chunk", steps);
    more = session.step();
  }
  const double seconds = timer.elapsed_seconds();
  auto result = session.result();
  const auto& last = result.final();
  report_.count(steps - 1, 0);
  report_.gate(sampler.match_count() > sampler_config_.alpha,
               "flow: dynamic sampling never engaged (" +
                   std::to_string(sampler.match_count()) +
                   " components, alpha " +
                   std::to_string(sampler_config_.alpha) + ")");
  const double gps = static_cast<double>(last.guesses) / seconds;
  if (traced) {
    flow_.traced_gps.push_back(gps);
    ++flow_.traced_reps;
    flow_.traced_produced += traced_gen->produced();
  } else {
    flow_.untraced_gps.push_back(gps);
    flow_.matched_per_s.push_back(static_cast<double>(last.matched) / seconds);
  }
  ds_components_ = sampler.match_count();
  if (!flow_.first) {
    flow_.first = std::move(result);
  } else {
    report_.gate(same_result(*flow_.first, result),
                 "flow: repetitions of one attack disagree");
  }
}

void Bench::rules_round() {
  const bool traced = traced_round();
  const Inputs& in = *inputs_;
  pf::baselines::RuleEngine engine(in.wordlist, rules_, 10);
  const std::size_t budget = std::min(kRulesBudget, engine.capacity());
  std::optional<perfbench::TracedGenerator> traced_gen;
  std::optional<perfbench::TracedMatcher> traced_match;
  pf::guessing::GuessGenerator* gen = &engine;
  const pf::guessing::Matcher* matcher = in.test_matcher.get();
  if (traced) {
    gen = &traced_gen.emplace(engine, *tracer_, "rules", 8);
    matcher = &traced_match.emplace(*in.test_matcher, *tracer_, "rules");
  }
  pf::guessing::AttackSession session(
      *gen, *matcher, session_config(budget, kRulesChunk, &pool_));
  pf::util::Timer timer;
  std::size_t steps = 0;
  for (bool more = true; more; ++steps) {
    std::optional<ScopedSpan> span;
    if (traced) span.emplace(*tracer_, "rules.step", "chunk", steps);
    more = session.step();
  }
  const double seconds = timer.elapsed_seconds();
  auto result = session.result();
  const auto& last = result.final();
  report_.count(steps - 1, 0);
  const double gps = static_cast<double>(last.guesses) / seconds;
  if (traced) {
    rules_samples_.traced_gps.push_back(gps);
    ++rules_samples_.traced_reps;
    rules_probes_ += traced_match->probes();
    if (rules_chunks_.empty()) rules_chunks_ = traced_gen->kept_chunks();
  } else {
    rules_samples_.untraced_gps.push_back(gps);
    rules_samples_.matched_per_s.push_back(static_cast<double>(last.matched) /
                                           seconds);
  }
  if (!rules_samples_.first) {
    rules_samples_.first = std::move(result);
  } else {
    report_.gate(same_result(*rules_samples_.first, result),
                 "rules: repetitions of one attack disagree");
  }
}

// One nominal-rate window. Each round spreads several of them between
// the other phases, and the latency quantiles pool every window's
// queries, so they sample the whole run rather than one moment of it.
void Bench::screen_window() {
  const bool traced = traced_round();
  ++nominal_windows_;
  pf::serve::StrengthServerStats before;
  if (traced) before = loop_->snapshot();
  const LoadResult nominal =
      offer_load(*client_, inputs_->queries, query_cursor_, kNominalQps,
                 kWindowQueries, traced ? tracer_ : nullptr, &answers_);
  report_.count(nominal.sent, nominal.refused + nominal.missing);
  report_.gate(nominal.missing == 0 && nominal.duplicate == 0,
               "screen: missing or duplicate replies at the nominal rate");
  p50_ladder_.nominal_score = nominal.score(p50_ladder_.q);
  p99_ladder_.nominal_score = nominal.score(p99_ladder_.q);
  if (traced) {
    const auto after = loop_->snapshot();
    served_candidates_ += after.candidates_scored - before.candidates_scored;
    served_batches_ += after.batches - before.batches;
    overloaded_ += after.overloaded - before.overloaded;
    nominal_lag_.push_back(quantile(nominal.lag_ms, 0.99));
  } else {
    nominal_latency_.insert(nominal_latency_.end(), nominal.latency_ms.begin(),
                            nominal.latency_ms.end());
  }
}

// Untraced rounds hold the median to the latency limit, traced rounds the
// p99 (a per-layer reading).
void Bench::screen_ladder() {
  climb(traced_round() ? p99_ladder_ : p50_ladder_);
}

// One climb of the ladder. Each rung offers its rate for kRungSeconds; a
// rung that fails is offered once more, and fails only if that fails too,
// so one stall does not end the climb. Rungs run upward from ladder.start
// while they sustain their rate and downward while they do not, until a
// sustained rung sits right below a failing one; when rung 0 fails, the
// last nominal window is the sustained side. The reading is the crossing
// between the two. The next climb starts two rungs below the failing one,
// so it rechecks the bracket without climbing the whole ladder again.
void Bench::climb(Ladder& ladder) {
  std::ostringstream log;
  log.precision(3);
  log << "p" << std::lround(100 * ladder.q) << " round " << round_ << ":";
  std::optional<std::size_t> pass;
  std::optional<std::size_t> fail;
  double pass_score = 0.0;
  double fail_score = 0.0;
  for (std::size_t k = ladder.start;;) {
    const double rate = rung_qps(k);
    double score = INFINITY;
    for (int attempt = 0; attempt < 2 && score > 1.0; ++attempt) {
      const LoadResult rung = offer_load(
          *client_, inputs_->queries, query_cursor_, rate,
          static_cast<std::size_t>(std::lround(rate * kRungSeconds)), nullptr,
          nullptr);
      report_.count(rung.sent, rung.refused + rung.missing);
      report_.gate(rung.missing == 0 && rung.duplicate == 0,
                   "screen: missing or duplicate replies on the rate ladder");
      score = std::min(score, rung.score(ladder.q));
      log << " " << std::lround(rate) << "q/s[p=" << rung.quantile_ms(ladder.q)
          << "ms,growth=" << rung.growth_ms << "ms]";
    }
    if (score <= 1.0) {
      pass = k;
      pass_score = score;
      if (fail || k + 1 == kRungs) break;
      ++k;
    } else {
      fail = k;
      fail_score = score;
      if (pass || k == 0) break;
      --k;
    }
  }
  double value = 0.0;
  if (!fail) {
    value = rung_qps(*pass);
    log << " (top rung sustained: the reading is capped)";
  } else if (pass) {
    value = crossing(rung_qps(*pass), pass_score, rung_qps(*fail), fail_score);
  } else if (ladder.nominal_score <= 1.0) {
    value = crossing(kNominalQps, ladder.nominal_score, rung_qps(0),
                     fail_score);
  }
  ladder.start = fail ? *fail - std::min<std::size_t>(*fail, 2) : *pass;
  log << " -> " << std::lround(value) << " q/s";
  ladder.max_qps.push_back(value);
  ladder.log.push_back(log.str());
}

void Bench::finish() {
  report_.set("train_rows_per_s", median(train_rates_), "rows/s");
  finish_flow();
  finish_rules();
  finish_screen();
  if (tracer_) replay_layers();
  client_.reset();
  loop_.reset();
  server_.reset();
  std::printf(
      "samples: %zu rounds; target split %zu keys; screen: %zu windows of "
      "%zu queries at %.0f q/s, %zu untraced queries in the latency "
      "quantiles, ladder rungs of %.1f s at %.0f x %.2f^k q/s\n",
      round_, inputs_->split.test_unique.size(), nominal_windows_,
      kWindowQueries, kNominalQps, nominal_latency_.size(), kRungSeconds,
      kLadderQps, kRungStep);
  for (const Ladder* ladder : {&p50_ladder_, &p99_ladder_}) {
    for (const auto& line : ladder->log) std::printf("ladder %s\n", line.c_str());
  }
}

void Bench::finish_flow() {
  const auto& first = flow_.first->final();
  report_.set("flow_guesses_per_s", median(flow_.untraced_gps), "guesses/s");
  // Flow yield swings with the seed through the 48-step model, so it is a
  // per-layer reading, not a bounded end-to-end one.
  report_.set("guessing.flow_matched_per_s", median(flow_.matched_per_s),
              "matches/s");
  report_.set("guessing.hit_ratio",
              static_cast<double>(first.matched) /
                  static_cast<double>(first.guesses),
              "ratio");
  report_.set("guessing.unique_ratio",
              static_cast<double>(first.unique) /
                  static_cast<double>(first.guesses),
              "ratio");
  report_.set("guessing.ds_components", static_cast<double>(ds_components_),
              "count");

  // Gate: a replayed sampler-sized inverse is bitwise equal with and
  // without the pool (row-chunked inference must not change a guess).
  const auto rows = head(inputs_->split.test_unique, sampler_config_.batch_size);
  const pf::nn::Matrix z =
      model_->forward_inference(encoder_.encode_batch(rows));
  const pf::nn::Matrix serial = model_->inverse(z);
  const pf::nn::Matrix pooled = model_->inverse(z, &pool_);
  report_.gate(serial.size() == pooled.size() &&
                   std::memcmp(serial.data(), pooled.data(),
                               serial.size() * sizeof(float)) == 0,
               "flow: pooled inverse differs from serial inverse");
  if (!tracer_) return;

  const double reps = static_cast<double>(flow_.traced_reps);
  const double generate_s = tracer_->self_seconds("flow.generate") / reps;
  report_.set("guessing.generate_busy_s", generate_s, "s");
  report_.set("guessing.flow_step_self_s",
              tracer_->self_seconds("flow.step") / reps, "s");
  report_overhead(flow_, "trace.flow_overhead_pct", report_);
  // Replay the sampler's two library calls on the workload's own latents
  // (its test passwords mapped through the flow), at the sampler's batch.
  pf::nn::Matrix x;
  const double inverse_s = time_median(5, [&] {
    ScopedSpan span(*tracer_, "replay.inverse", "replay", 0);
    x = model_->inverse(z, &pool_);
  });
  const double decode_s = time_median(5, [&] {
    ScopedSpan span(*tracer_, "replay.decode", "replay", 0);
    (void)encoder_.decode_batch(x, &pool_);
  });
  const double batch = static_cast<double>(z.rows());
  const double produced = static_cast<double>(flow_.traced_produced) / reps;
  report_.set("flow.inverse_rows_per_s", batch / inverse_s, "rows/s");
  report_.set("data.decode_rows_per_s", batch / decode_s, "rows/s");
  const double inverse_total = produced * inverse_s / batch;
  const double decode_total = produced * decode_s / batch;
  report_.set("flow.inverse_share", inverse_total / generate_s, "ratio");
  report_.set("guessing.sampler_self_s",
              generate_s - inverse_total - decode_total, "s");
}

void Bench::finish_rules() {
  report_.set("rules_guesses_per_s", median(rules_samples_.untraced_gps),
              "guesses/s");
  report_.set("rules_matched_per_s", median(rules_samples_.matched_per_s),
              "matches/s");
  report_.set("rules_matched_pct",
              rules_samples_.first->final().matched_percent, "%");

  // Gate: pipelining may not change a metric; a depth-0 session over the
  // same stream reports the identical RunResult.
  pf::baselines::RuleEngine engine(inputs_->wordlist, rules_, 10);
  auto config = session_config(std::min(kRulesBudget, engine.capacity()),
                               kRulesChunk, &pool_);
  config.pipeline_depth = 0;
  pf::guessing::AttackSession session(engine, *inputs_->test_matcher, config);
  session.run();
  report_.gate(same_result(session.result(), *rules_samples_.first),
               "rules: pipelined RunResult differs from depth-0");
  if (!tracer_) return;

  const double reps = static_cast<double>(rules_samples_.traced_reps);
  const double match_s = tracer_->self_seconds("rules.match");
  report_.set("guessing.match_busy_s", match_s / reps, "s");
  report_.set("guessing.rules_generate_busy_s",
              tracer_->self_seconds("rules.generate") / reps, "s");
  report_.set("guessing.step_wait_s",
              tracer_->self_seconds("rules.step") / reps, "s");
  report_.set("guessing.probe_per_s",
              static_cast<double>(rules_probes_) / match_s, "probes/s");
  report_overhead(rules_samples_, "trace.rules_overhead_pct", report_);
  // Replay the tracker fold on the attack's own first chunks.
  std::size_t folded = 0;
  for (const auto& chunk : rules_chunks_) folded += chunk.size();
  const double fold_s = time_median(3, [&] {
    ScopedSpan span(*tracer_, "replay.track_fold", "replay", 0);
    auto tracker = pf::guessing::make_unique_tracker(
        pf::guessing::UniqueTracking::kExact);
    for (const auto& chunk : rules_chunks_) tracker->add_batch(chunk, &pool_);
  });
  report_.set("guessing.track_fold_per_s",
              static_cast<double>(folded) / fold_s, "guesses/s");
}

void Bench::finish_screen() {
  std::sort(nominal_latency_.begin(), nominal_latency_.end());
  report_.set("screen_p50_ms", quantile(nominal_latency_, 0.50), "ms");
  report_.set("screen.p90_ms", quantile(nominal_latency_, 0.90), "ms");
  const double max_qps = median(p50_ladder_.max_qps);
  report_.gate(max_qps > 0.0, "screen: the nominal rate misses the limit");
  report_.set("screen_max_qps", max_qps, "queries/s");

  // Gate: every Ok estimate equals the server's scoring core, bitwise.
  const auto truth = server_->score(inputs_->queries);
  bool same = true;
  for (const auto& answer : answers_) {
    const auto& a = answer.estimate;
    const auto& b = truth[answer.candidate];
    same = same && bits(a.log_prob) == bits(b.log_prob) &&
           bits(a.guess_number) == bits(b.guess_number) &&
           a.in_index == b.in_index && a.representable == b.representable;
  }
  report_.gate(same, "screen: a served estimate differs from score()");
  if (!tracer_) return;

  report_.set("screen.p99_ms", quantile(nominal_latency_, 0.99), "ms");
  report_.set("screen.max_qps_p99", median(p99_ladder_.max_qps), "queries/s");

  const double batch_mean =
      static_cast<double>(served_candidates_) /
      static_cast<double>(std::max<std::size_t>(1, served_batches_));
  report_.set("serve.batch_mean", batch_mean, "rows");
  report_.set("serve.overloaded", static_cast<double>(overloaded_), "count");
  report_.set("screen.send_lag_ms", median(nominal_lag_), "ms");
  const auto rows =
      head(inputs_->queries, std::max<std::size_t>(
                                 1, static_cast<std::size_t>(
                                        std::lround(batch_mean))));
  report_.set("serve.score_ms", 1e3 * time_median(51, [&] {
                ScopedSpan span(*tracer_, "replay.score", "replay",
                                rows.size());
                (void)server_->score(rows);
              }),
              "ms");
  report_.set("dist.rtt_empty_ms", 1e3 * time_median(201, [&] {
                ScopedSpan span(*tracer_, "replay.rtt_empty", "replay", 0);
                (void)client_->query({});
              }),
              "ms");

  // Payload encode/decode of the workload's own queries and a reply.
  const pf::dist::Message reply{pf::dist::StrengthReplyMsg{
      1, pf::dist::StrengthStatus::kOk, {answers_.front().estimate}}};
  constexpr std::size_t kFrames = 20000;
  std::vector<std::string> query_bytes(kFrames);
  std::string reply_bytes;
  const double encode_s = time_median(5, [&] {
    ScopedSpan span(*tracer_, "replay.encode", "replay", kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      query_bytes[i] = pf::dist::encode(pf::dist::Message{
          pf::dist::StrengthQueryMsg{
              i, {inputs_->queries[i % inputs_->queries.size()]}}});
      reply_bytes = pf::dist::encode(reply);
    }
  });
  const double decode_s = time_median(5, [&] {
    ScopedSpan span(*tracer_, "replay.decode_frames", "replay", kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      (void)pf::dist::decode(query_bytes[i]);
      (void)pf::dist::decode(reply_bytes);
    }
  });
  report_.set("dist.encode_us", encode_s * 1e6 / kFrames, "us");
  report_.set("dist.decode_us", decode_s * 1e6 / kFrames, "us");
}

// Single library calls at the shapes the phases use, on the run's inputs.
void Bench::replay_layers() {
  namespace gemm = pf::nn::gemm;
  Tracer& tracer = *tracer_;
  const Inputs& in = *inputs_;
  report_.set("flow.train_step_ms", median(train_step_ms_), "ms");
  // The coupling net's hidden GEMM at the sampler's batch: 2048x256x256.
  {
    pf::util::Rng rng(options_.seed);
    pf::nn::Matrix a(2048, 256);
    pf::nn::Matrix b(256, 256);
    pf::nn::Matrix c;
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = static_cast<float>(rng.normal());
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = static_cast<float>(rng.normal());
    }
    const double s = time_median(21, [&] {
      ScopedSpan span(tracer, "replay.gemm", "replay", 0);
      gemm::gemm_nn(gemm::active_backend(), a, b, c);
    });
    report_.set("nn.gemm_gflops", 2.0 * 2048 * 256 * 256 / s / 1e9,
                "GFLOP/s");
  }
  // Training-step pieces on a fresh model, so the attack model stays as is.
  {
    auto model = fresh_model(options_.seed);
    pf::util::Rng rng(options_.seed ^ 0xdeu);
    const auto rows = head(in.split.train, 512);
    pf::nn::Matrix x;
    report_.set("data.encode_dequantized_ms", 1e3 * time_median(11, [&] {
                  ScopedSpan span(tracer, "replay.encode_dequantized",
                                  "replay", 0);
                  x = encoder_.encode_batch_dequantized(rows, rng);
                }),
                "ms");
    report_.set("flow.nll_backward_ms", 1e3 * time_median(5, [&] {
                  ScopedSpan span(tracer, "replay.nll_backward", "replay", 0);
                  model.zero_grad();
                  (void)model.nll_backward(x);
                }),
                "ms");
    pf::nn::Adam adam(model.parameters());
    report_.set("nn.adam_step_ms", 1e3 * time_median(5, [&] {
                  ScopedSpan span(tracer, "replay.adam", "replay", 0);
                  adam.step();
                }),
                "ms");
  }
  // Screening's forward pass, one row at a time and at a full micro-batch.
  const pf::nn::Matrix x = encoder_.encode_batch(head(in.queries, 1024));
  for (const std::size_t batch : {std::size_t{1}, kServeBatch}) {
    std::vector<pf::nn::Matrix> slices;
    for (std::size_t r = 0; r + batch <= x.rows(); r += batch) {
      pf::nn::Matrix slice(batch, x.cols());
      std::memcpy(slice.data(), x.row(r), batch * x.cols() * sizeof(float));
      slices.push_back(std::move(slice));
    }
    const double s = time_median(5, [&] {
      ScopedSpan span(tracer, "replay.log_prob", "replay", batch);
      for (const auto& slice : slices) {
        (void)model_->log_prob_batch(slice, &pool_);
      }
    });
    report_.set("flow.forward_rows_per_s_b" + std::to_string(batch),
                static_cast<double>(slices.size() * batch) / s, "rows/s");
  }
}

// ---- provenance and CLI -----------------------------------------------------------
std::string provenance(const Options& options, pf::util::ThreadPool& pool) {
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  const char* env_backend = std::getenv("PASSFLOW_GEMM_BACKEND");
  std::ostringstream out;
  out << "{\"workload\": \"" << options.workload
      << "\", \"seed\": " << options.seed << ", \"seconds\": "
      << options.seconds << ", \"trace\": " << options.trace
      << ", \"commit\": \"" << options.commit
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"pool_size\": " << pool.size()
      << ", \"omp_max_threads\": " << omp_threads << ", \"compiler\": \""
      << PERFBENCH_COMPILER << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"gemm_backend\": \""
      << pf::nn::gemm::backend_name(pf::nn::gemm::active_backend())
      << "\", \"gemm_backend_env_override\": "
      << (env_backend != nullptr ? "true" : "false") << "}";
  return out.str();
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (const auto& spec : kWorkloads) {
    if (options.workload == spec.name) options.random_tail = spec.random_tail;
  }
  if (options.random_tail < 0.0) {
    throw std::invalid_argument("unknown --workload '" + options.workload +
                                "' (rockyou|tail-heavy)");
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return options;
}

int run(const Options& options) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  pf::util::set_log_level(pf::util::LogLevel::kWarn);
  auto& pool = pf::util::shared_pool();
  pool.parallel_for(pool.size() * 64, [](std::size_t) {});  // start workers
  std::printf("provenance %s\n", provenance(options, pool).c_str());

  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>();
  Bench bench(options, pool, tracer.get());
  bench.setup();
  bench.run_rounds();
  bench.finish();
  Report& report = bench.report();

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  report.set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
  report.set("ok_frac",
             1.0 - static_cast<double>(report.failed()) /
                       static_cast<double>(
                           std::max<std::size_t>(1, report.attempted())),
             "fraction");
  if (tracer && !options.spans_out.empty()) tracer->dump(options.spans_out);
  for (const auto& [name, metric] : report.metrics()) {
    report.gate(std::isfinite(metric.value), "metric " + name + " is not finite");
  }

  for (const auto& failure : report.failures()) {
    std::fprintf(stderr, "GATE FAILED: %s\n", failure.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (report.failures().empty() ? "true" : "false")
       << ", \"attempted\": " << report.attempted()
       << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : report.metrics()) {
    json << sep << "\"" << name << "\": {\"value\": ";
    if (std::isfinite(metric.value)) {
      json << metric.value;
    } else {
      json << "null";
    }
    json << ", \"unit\": \"" << metric.unit << "\"}";
    sep = ", ";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return report.failures().empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
