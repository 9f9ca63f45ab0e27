// Span recording for the traced benchmark run, plus the two decorators the
// attack session calls through.
//
// A span is (name, start, end, cause, request id), timed on steady_clock in
// seconds since the tracer was created. Spans live in memory and are
// written out once, when the traced run ends. Untraced runs and rounds
// construct no tracer or decorator, so they pay nothing.
// Spans nest per thread: a span's self time is its duration minus the
// spans opened inside it on the same thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guessing/generator.hpp"
#include "guessing/matcher.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::string cause;
  std::uint64_t request_id = 0;
  double child_seconds = 0.0;  // covered by spans opened inside this one
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  // Opens a span on the calling thread; the innermost open span of this
  // thread becomes its parent. Returns a handle for close().
  std::size_t open(const std::string& name, const std::string& cause,
                   std::uint64_t request_id) {
    const double start = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, start, cause, request_id, 0.0});
    const std::size_t index = spans_.size() - 1;
    open_stack().push_back(index);
    return index;
  }

  void close(std::size_t index) {
    const double end = now();
    std::lock_guard<std::mutex> lock(mu_);
    auto& stack = open_stack();
    stack.pop_back();
    Span& span = spans_[index];
    span.end = end;
    if (!stack.empty()) spans_[stack.back()].child_seconds += end - span.start;
  }

  // A span timed by the caller (an open-loop query from its due time).
  void record(const std::string& name, double start, double end,
              const std::string& cause, std::uint64_t request_id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start, end, cause, request_id, 0.0});
  }

  // Sum of self time over every span called `name`.
  double self_seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) total += span.end - span.start - span.child_seconds;
    }
    return total;
  }

  // One JSON object per line. Throws when the file cannot be written.
  void dump(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& span : spans_) {
      out << "{\"name\":\"" << span.name << "\",\"start\":" << span.start
          << ",\"end\":" << span.end << ",\"cause\":\"" << span.cause
          << "\",\"request_id\":" << span.request_id
          << ",\"self\":" << span.end - span.start - span.child_seconds
          << "}\n";
    }
    if (!out.flush()) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Open spans of the calling thread, keyed by thread so one tracer can
  // serve the consumer, the session's producer and the pool at once.
  std::vector<std::size_t>& open_stack() {
    return stacks_[std::this_thread::get_id()];
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<Span> spans_;  // deque: indices stay valid as it grows
  std::map<std::thread::id, std::vector<std::size_t>> stacks_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, const std::string& cause,
             std::uint64_t request_id)
      : tracer_(tracer), index_(tracer.open(name, cause, request_id)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::size_t index_;
};

// Times GuessGenerator::generate as "<prefix>.generate" and keeps a copy
// of the first `keep_chunks` chunks for layer replays. Everything else
// forwards, so the session's schedule and feedback are unchanged.
class TracedGenerator : public passflow::guessing::GuessGenerator {
 public:
  TracedGenerator(passflow::guessing::GuessGenerator& inner, Tracer& tracer,
                  std::string prefix, std::size_t keep_chunks)
      : inner_(inner),
        tracer_(tracer),
        span_name_(std::move(prefix) + ".generate"),
        keep_chunks_(keep_chunks) {}

  void generate(std::size_t n, std::vector<std::string>& out) override {
    const std::size_t before = out.size();
    {
      ScopedSpan span(tracer_, span_name_, "chunk", chunks_);
      inner_.generate(n, out);
    }
    ++chunks_;
    produced_ += n;
    if (kept_.size() < keep_chunks_) {
      kept_.emplace_back(out.begin() + static_cast<std::ptrdiff_t>(before),
                         out.end());
    }
  }
  void on_match(std::size_t index_in_batch,
                const std::string& password) override {
    inner_.on_match(index_in_batch, password);
  }
  bool uses_match_feedback() const override {
    return inner_.uses_match_feedback();
  }
  std::string name() const override { return inner_.name(); }

  std::size_t produced() const { return produced_; }
  const std::vector<std::vector<std::string>>& kept_chunks() const {
    return kept_;
  }

 private:
  passflow::guessing::GuessGenerator& inner_;
  Tracer& tracer_;
  std::string span_name_;
  std::size_t keep_chunks_;
  std::uint64_t chunks_ = 0;
  std::size_t produced_ = 0;
  std::vector<std::vector<std::string>> kept_;
};

// Times Matcher::contains_batch as "<prefix>.match" and counts probes.
class TracedMatcher : public passflow::guessing::Matcher {
 public:
  TracedMatcher(const passflow::guessing::Matcher& inner, Tracer& tracer,
                std::string prefix)
      : inner_(inner), tracer_(tracer), span_name_(std::move(prefix) + ".match") {}

  bool contains(const std::string& password) const override {
    return inner_.contains(password);
  }
  std::size_t test_set_size() const override { return inner_.test_set_size(); }
  std::string name() const override { return inner_.name(); }
  void contains_batch(const std::vector<std::string>& batch,
                      passflow::util::ThreadPool* pool,
                      std::vector<char>& out) const override {
    ScopedSpan span(tracer_, span_name_, "chunk",
                    batches_.fetch_add(1, std::memory_order_relaxed));
    inner_.contains_batch(batch, pool, out);
    probes_.fetch_add(batch.size(), std::memory_order_relaxed);
  }

  std::size_t probes() const { return probes_.load(); }

 private:
  const passflow::guessing::Matcher& inner_;
  Tracer& tracer_;
  std::string span_name_;
  mutable std::atomic<std::uint64_t> batches_{0};
  mutable std::atomic<std::size_t> probes_{0};
};

}  // namespace perfbench
