// Wire messages of the coordinator/worker protocol: plain structs with a
// versioned binary codec, no sockets.
//
// Every message travels as the payload of one CRC checkpoint frame
// (util::encode_checkpoint_frame / CheckpointStore::read_frame), so the
// transport layer already rejects torn or bit-flipped bytes before decode
// runs. decode() then validates the rest — protocol version, message tag,
// field plausibility, and exact payload consumption (trailing bytes mean a
// mis-framed or corrupt message and throw) — so a frame that survives the
// CRC by construction still cannot decode into a silently-wrong message.
//
// Conversation (one worker's view):
//
//   worker            coordinator
//     Hello       ->                  version handshake, carries the pid
//                 <-  Welcome         assigned worker id
//                 <-  Assign          one scenario (or shard range of one)
//     Checkpoint  ->                  periodic session freeze (resume data)
//     Heartbeat   ->                  liveness while between checkpoints
//     Result      ->                  final metrics + sketch for a scenario
//                 <-  Shutdown        fleet done; worker exits cleanly
//
// The credential-screening service (src/serve/) speaks a second
// conversation over the same transport and framing:
//
//   client            server
//     Hello       ->                  version handshake
//                 <-  Welcome         assigned client id
//     StrengthQuery ->                candidate passwords to score
//                 <-  StrengthReply   per-candidate estimates, or Overloaded
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "guessing/metrics.hpp"
#include "guessing/session.hpp"

namespace passflow::dist {

// Bumped on any incompatible message-layout change; Hello carries it and
// the coordinator refuses mismatched workers at registration.
inline constexpr std::uint64_t kProtocolVersion = 2;

struct HelloMsg {
  std::uint64_t protocol_version = kProtocolVersion;
  std::uint64_t pid = 0;     // worker OS pid (0 = unknown/non-POSIX)
  std::string label;         // free-form worker name for logs
};

struct WelcomeMsg {
  std::uint64_t worker_id = 0;
};

// One unit of work: a whole scenario, or one shard range of a scenario
// whose matcher is split across workers. `generator_spec` / `matcher_spec`
// are opaque to the protocol — every process resolves them through the
// same deterministic ScenarioFactory (see worker.hpp), mirroring how
// AttackScheduler::load_state binds saved scenarios via ScenarioResolver.
struct AssignMsg {
  std::uint64_t task_id = 0;      // coordinator-side task handle
  std::uint64_t scenario_id = 0;  // stable across reassignment
  std::string name;
  std::string generator_spec;
  std::string matcher_spec;
  guessing::SessionConfig session;  // pool is process-local, not sent
  // Matcher shard range [begin, end); 0,0 = the whole matcher.
  std::uint64_t shard_begin = 0;
  std::uint64_t shard_end = 0;
  // Ship a Checkpoint message every N driven chunks (0 = never).
  std::uint64_t checkpoint_chunks = 0;
  // Sketch precision the Result's unique-union contribution must use.
  std::uint64_t union_precision_bits = 14;
  // AttackSession::save_state bytes to thaw from; empty = fresh start.
  std::string resume_state;
};

struct HeartbeatMsg {
  std::uint64_t produced_total = 0;  // guesses across the worker's sessions
};

struct CheckpointMsg {
  std::uint64_t task_id = 0;
  std::string state;  // AttackSession::save_state bytes
};

struct ResultMsg {
  std::uint64_t task_id = 0;
  guessing::RunResult result;
  std::uint64_t test_set_size = 0;
  // CardinalitySketch::save bytes of the session's distinct-guess state at
  // union_precision_bits; empty when the session cannot contribute
  // (tracking off or sketch precision mismatch), which poisons the
  // fleet-wide union exactly like AttackScheduler::aggregate.
  std::string sketch;
};

struct ShutdownMsg {};

// --- Credential-screening service messages (src/serve/) ---

// One strength request: score every candidate in order. The server may
// coalesce candidates from many in-flight queries into one model batch;
// replies still carry exactly this query's candidates (by request_id).
struct StrengthQueryMsg {
  std::uint64_t request_id = 0;  // client-chosen; echoed in the reply
  std::vector<std::string> candidates;
};

enum class StrengthStatus : std::uint64_t {
  kOk = 0,
  // Admission control refused the query (pending-candidate bound hit).
  // Estimates are empty; the client should back off and retry.
  kOverloaded = 1,
};

// Per-candidate answer. `representable` is false when the candidate cannot
// be encoded for the flow (too long, or bytes outside the alphabet) —
// log_prob is then -inf and guess_number +inf, but the index membership
// probe still ran (it is byte-exact and alphabet-agnostic).
struct StrengthEstimate {
  double log_prob = 0.0;      // exact flow log p(x) of the encoded candidate
  double guess_number = 0.0;  // Monte-Carlo estimated rank (1 = most likely)
  bool in_index = false;      // present in the server's matcher index
  bool representable = true;
};

struct StrengthReplyMsg {
  std::uint64_t request_id = 0;
  StrengthStatus status = StrengthStatus::kOk;
  // One per queried candidate, in query order, when status is kOk.
  std::vector<StrengthEstimate> estimates;
};

using Message =
    std::variant<HelloMsg, WelcomeMsg, AssignMsg, HeartbeatMsg, CheckpointMsg,
                 ResultMsg, ShutdownMsg, StrengthQueryMsg, StrengthReplyMsg>;

// Human-readable tag of the active alternative, for errors and logs.
const char* message_name(const Message& message);

// Serializes to one self-contained payload (tag + fields, little-endian).
std::string encode(const Message& message);

// Parses a payload produced by encode(). Throws std::runtime_error naming
// the defect on unknown tags, truncation, implausible lengths, invalid
// enum values, or trailing bytes.
Message decode(const std::string& payload);

}  // namespace passflow::dist
