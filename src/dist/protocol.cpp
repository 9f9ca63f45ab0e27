#include "dist/protocol.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/serial_io.hpp"

namespace passflow::dist {

namespace {

namespace io = util::io;

// Wire tags; variant alternative order. Never renumber — bump
// kProtocolVersion instead.
enum class Tag : std::uint64_t {
  kHello = 1,
  kWelcome = 2,
  kAssign = 3,
  kHeartbeat = 4,
  kCheckpoint = 5,
  kResult = 6,
  kShutdown = 7,
  kStrengthQuery = 8,
  kStrengthReply = 9,
};

// StrengthEstimate booleans travel packed in one flags word so the layout
// has no padding ambiguity; unknown bits are a decode error, not ignored.
constexpr std::uint64_t kStrengthFlagInIndex = 1u << 0;
constexpr std::uint64_t kStrengthFlagRepresentable = 1u << 1;
constexpr std::uint64_t kStrengthFlagsMask =
    kStrengthFlagInIndex | kStrengthFlagRepresentable;

void write_strength_estimate(std::ostream& out, const StrengthEstimate& e) {
  io::write_f64(out, e.log_prob);
  io::write_f64(out, e.guess_number);
  std::uint64_t flags = 0;
  if (e.in_index) flags |= kStrengthFlagInIndex;
  if (e.representable) flags |= kStrengthFlagRepresentable;
  io::write_u64(out, flags);
}

StrengthEstimate read_strength_estimate(std::istream& in) {
  StrengthEstimate e;
  e.log_prob = io::read_f64(in);
  e.guess_number = io::read_f64(in);
  const std::uint64_t flags = io::read_u64(in);
  if ((flags & ~kStrengthFlagsMask) != 0) {
    throw std::runtime_error("dist message: invalid strength flags " +
                             std::to_string(flags));
  }
  e.in_index = (flags & kStrengthFlagInIndex) != 0;
  e.representable = (flags & kStrengthFlagRepresentable) != 0;
  return e;
}

void write_run_result(std::ostream& out, const guessing::RunResult& result) {
  io::write_u64(out, result.checkpoints.size());
  for (const guessing::Checkpoint& cp : result.checkpoints) {
    io::write_u64(out, cp.guesses);
    io::write_u64(out, cp.unique);
    io::write_u64(out, cp.matched);
    io::write_f64(out, cp.matched_percent);
  }
  io::write_string_vec(out, result.matched_passwords);
  io::write_string_vec(out, result.sample_non_matched);
  io::write_f64(out, result.seconds);
}

guessing::RunResult read_run_result(std::istream& in) {
  guessing::RunResult result;
  const std::uint64_t checkpoint_count =
      io::read_length(in, "result checkpoints");
  result.checkpoints.reserve(checkpoint_count);
  for (std::uint64_t i = 0; i < checkpoint_count; ++i) {
    guessing::Checkpoint cp;
    cp.guesses = io::read_u64(in);
    cp.unique = io::read_u64(in);
    cp.matched = io::read_u64(in);
    cp.matched_percent = io::read_f64(in);
    result.checkpoints.push_back(cp);
  }
  result.matched_passwords = io::read_string_vec(in);
  result.sample_non_matched = io::read_string_vec(in);
  result.seconds = io::read_f64(in);
  return result;
}

struct Encoder {
  std::ostream& out;

  void operator()(const HelloMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kHello));
    io::write_u64(out, m.protocol_version);
    io::write_u64(out, m.pid);
    io::write_string(out, m.label);
  }
  void operator()(const WelcomeMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kWelcome));
    io::write_u64(out, m.worker_id);
  }
  void operator()(const AssignMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kAssign));
    io::write_u64(out, m.task_id);
    io::write_u64(out, m.scenario_id);
    io::write_string(out, m.name);
    io::write_string(out, m.generator_spec);
    io::write_string(out, m.matcher_spec);
    guessing::write_session_config(out, m.session);
    io::write_u64(out, m.shard_begin);
    io::write_u64(out, m.shard_end);
    io::write_u64(out, m.checkpoint_chunks);
    io::write_u64(out, m.union_precision_bits);
    io::write_string(out, m.resume_state);
  }
  void operator()(const HeartbeatMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kHeartbeat));
    io::write_u64(out, m.produced_total);
  }
  void operator()(const CheckpointMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kCheckpoint));
    io::write_u64(out, m.task_id);
    io::write_string(out, m.state);
  }
  void operator()(const ResultMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kResult));
    io::write_u64(out, m.task_id);
    write_run_result(out, m.result);
    io::write_u64(out, m.test_set_size);
    io::write_string(out, m.sketch);
  }
  void operator()(const ShutdownMsg&) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kShutdown));
  }
  void operator()(const StrengthQueryMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kStrengthQuery));
    io::write_u64(out, m.request_id);
    io::write_string_vec(out, m.candidates);
  }
  void operator()(const StrengthReplyMsg& m) const {
    io::write_u64(out, static_cast<std::uint64_t>(Tag::kStrengthReply));
    io::write_u64(out, m.request_id);
    io::write_u64(out, static_cast<std::uint64_t>(m.status));
    io::write_u64(out, m.estimates.size());
    for (const StrengthEstimate& e : m.estimates) {
      write_strength_estimate(out, e);
    }
  }
};

}  // namespace

const char* message_name(const Message& message) {
  struct Namer {
    const char* operator()(const HelloMsg&) const { return "Hello"; }
    const char* operator()(const WelcomeMsg&) const { return "Welcome"; }
    const char* operator()(const AssignMsg&) const { return "Assign"; }
    const char* operator()(const HeartbeatMsg&) const { return "Heartbeat"; }
    const char* operator()(const CheckpointMsg&) const { return "Checkpoint"; }
    const char* operator()(const ResultMsg&) const { return "Result"; }
    const char* operator()(const ShutdownMsg&) const { return "Shutdown"; }
    const char* operator()(const StrengthQueryMsg&) const {
      return "StrengthQuery";
    }
    const char* operator()(const StrengthReplyMsg&) const {
      return "StrengthReply";
    }
  };
  return std::visit(Namer{}, message);
}

std::string encode(const Message& message) {
  std::ostringstream out;
  std::visit(Encoder{out}, message);
  return out.str();
}

Message decode(const std::string& payload) {
  std::istringstream in(payload);
  const std::uint64_t tag = io::read_u64(in);
  Message message;
  switch (static_cast<Tag>(tag)) {
    case Tag::kHello: {
      HelloMsg m;
      m.protocol_version = io::read_u64(in);
      m.pid = io::read_u64(in);
      m.label = io::read_string(in);
      message = std::move(m);
      break;
    }
    case Tag::kWelcome: {
      WelcomeMsg m;
      m.worker_id = io::read_u64(in);
      message = m;
      break;
    }
    case Tag::kAssign: {
      AssignMsg m;
      m.task_id = io::read_u64(in);
      m.scenario_id = io::read_u64(in);
      m.name = io::read_string(in);
      m.generator_spec = io::read_string(in);
      m.matcher_spec = io::read_string(in);
      m.session = guessing::read_session_config(in);
      m.shard_begin = io::read_u64(in);
      m.shard_end = io::read_u64(in);
      m.checkpoint_chunks = io::read_u64(in);
      m.union_precision_bits = io::read_u64(in);
      m.resume_state = io::read_string(in);
      message = std::move(m);
      break;
    }
    case Tag::kHeartbeat: {
      HeartbeatMsg m;
      m.produced_total = io::read_u64(in);
      message = m;
      break;
    }
    case Tag::kCheckpoint: {
      CheckpointMsg m;
      m.task_id = io::read_u64(in);
      m.state = io::read_string(in);
      message = std::move(m);
      break;
    }
    case Tag::kResult: {
      ResultMsg m;
      m.task_id = io::read_u64(in);
      m.result = read_run_result(in);
      m.test_set_size = io::read_u64(in);
      m.sketch = io::read_string(in);
      message = std::move(m);
      break;
    }
    case Tag::kShutdown:
      message = ShutdownMsg{};
      break;
    case Tag::kStrengthQuery: {
      StrengthQueryMsg m;
      m.request_id = io::read_u64(in);
      m.candidates = io::read_string_vec(in);
      message = std::move(m);
      break;
    }
    case Tag::kStrengthReply: {
      StrengthReplyMsg m;
      m.request_id = io::read_u64(in);
      const std::uint64_t status = io::read_u64(in);
      if (status > static_cast<std::uint64_t>(StrengthStatus::kOverloaded)) {
        throw std::runtime_error("dist message: invalid strength status " +
                                 std::to_string(status));
      }
      m.status = static_cast<StrengthStatus>(status);
      const std::uint64_t estimate_count =
          io::read_length(in, "strength estimates");
      m.estimates.reserve(estimate_count);
      for (std::uint64_t i = 0; i < estimate_count; ++i) {
        m.estimates.push_back(read_strength_estimate(in));
      }
      message = std::move(m);
      break;
    }
    default:
      throw std::runtime_error("dist message: unknown tag " +
                               std::to_string(tag));
  }
  // Exact consumption: leftover bytes mean the payload was assembled for a
  // different layout than this decoder parsed — reject rather than return
  // a message that only half-matches its frame.
  if (in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error(
        std::string("dist message: trailing bytes after ") +
        message_name(message));
  }
  return message;
}

}  // namespace passflow::dist
