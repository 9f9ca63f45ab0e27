// End-to-end tests of the credential-screening service: batching
// transparency (bitwise), admission control (refusals are loud, never a
// silent drop), hostile/edge inputs, and disconnect handling.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "guessing/mapped_matcher.hpp"
#include "serve/strength_client.hpp"
#include "serve/strength_server.hpp"
#include "test_support.hpp"

namespace {

using passflow::data::Encoder;
using passflow::dist::Message;
using passflow::dist::StrengthEstimate;
using passflow::dist::StrengthQueryMsg;
using passflow::dist::StrengthReplyMsg;
using passflow::dist::StrengthStatus;
using passflow::guessing::IndexBuilder;
using passflow::guessing::MappedMatcher;
using passflow::guessing::Matcher;
using passflow::serve::StrengthClient;
using passflow::serve::StrengthServer;
using passflow::serve::StrengthServerConfig;

std::uint64_t bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

// Index keys include an embedded NUL and non-ASCII bytes: the membership
// probe is byte-exact even where the flow's alphabet cannot follow.
const char* kNulKeyBytes = "we\0ird";
std::string nul_key() { return std::string(kNulKeyBytes, 6); }
std::string non_ascii_key() { return "p\xc3\xa4ss"; }

struct ServeFixture {
  const passflow::testing::TinyTrainedFlow& tf =
      passflow::testing::tiny_trained_flow();
  std::string index_path;
  std::shared_ptr<const Matcher> matcher;

  ServeFixture() {
    static int counter = 0;
    index_path = ::testing::TempDir() + "serving_index_" +
                 std::to_string(counter++) + ".pfidx";
    const std::vector<std::string> keys = {"123456", "qwerty",        "dragon",
                                           "star99", nul_key(),
                                           non_ascii_key()};
    IndexBuilder::build(keys, index_path);
    matcher = std::make_shared<MappedMatcher>(index_path);
  }

  StrengthServerConfig config() const {
    StrengthServerConfig config;
    config.max_batch = 4;
    config.calibration_samples = 256;
    config.calibration_batch = 128;
    return config;
  }
};

// Runs StrengthServer::run() on a dedicated thread; stop() (or
// destruction) requests stop and joins, after which server.stats() is
// safe to read.
class ServerThread {
 public:
  explicit ServerThread(StrengthServer& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  ~ServerThread() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

 private:
  StrengthServer& server_;
  std::thread thread_;
};

bool posix() { return passflow::dist::transport_available(); }

// A mixed candidate set: indexed members, representable misses, the empty
// string, an over-length password, and unrepresentable byte sequences.
std::vector<std::string> mixed_candidates() {
  return {"123456",  "qwerty", "zz9zz9",        "blue42",
          "",        "nope",   "toolongpassword", nul_key(),
          non_ascii_key(), "star99"};
}

TEST(Serving, BatchedRepliesBitwiseEqualUnbatchedAndDirectModel) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  // max_batch = 4 forces the 10-candidate query through three coalesced
  // batches, so equality here proves batch composition is invisible.
  StrengthServer server(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);
  ServerThread running(server);
  StrengthClient client("127.0.0.1", server.port());

  const std::vector<std::string> candidates = mixed_candidates();
  const StrengthReplyMsg batched = client.query(candidates);
  ASSERT_EQ(StrengthStatus::kOk, batched.status);
  ASSERT_EQ(candidates.size(), batched.estimates.size());

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    SCOPED_TRACE("candidate index " + std::to_string(i));
    const StrengthReplyMsg single = client.query({candidates[i]});
    ASSERT_EQ(StrengthStatus::kOk, single.status);
    ASSERT_EQ(1u, single.estimates.size());
    const StrengthEstimate& b = batched.estimates[i];
    const StrengthEstimate& s = single.estimates[0];
    EXPECT_EQ(bits(s.log_prob), bits(b.log_prob));
    EXPECT_EQ(bits(s.guess_number), bits(b.guess_number));
    EXPECT_EQ(s.in_index, b.in_index);
    EXPECT_EQ(s.representable, b.representable);

    // Ground truth: the matcher's own answer, and — for representable
    // candidates — the model's direct serial log_prob_batch, bitwise.
    EXPECT_EQ(fx.matcher->contains(candidates[i]), b.in_index);
    if (b.representable) {
      const double direct = fx.tf.model.log_prob_batch(
          fx.tf.encoder.encode_batch({candidates[i]}))[0];
      EXPECT_EQ(bits(direct), bits(b.log_prob));
      EXPECT_GE(b.guess_number, 1.0);
      EXPECT_TRUE(std::isfinite(b.guess_number));
    } else {
      EXPECT_EQ(bits(-std::numeric_limits<double>::infinity()),
                bits(b.log_prob));
      EXPECT_TRUE(std::isinf(b.guess_number));
    }
  }
}

TEST(Serving, EmptyCandidateListAnswersEmptyOk) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  StrengthServer server(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);
  ServerThread running(server);
  StrengthClient client("127.0.0.1", server.port());

  const StrengthReplyMsg reply = client.query({});
  EXPECT_EQ(StrengthStatus::kOk, reply.status);
  EXPECT_TRUE(reply.estimates.empty());

  // The connection is still healthy afterwards.
  const StrengthReplyMsg next = client.query({"qwerty"});
  ASSERT_EQ(1u, next.estimates.size());
  EXPECT_TRUE(next.estimates[0].in_index);
}

TEST(Serving, NulAndNonAsciiCandidatesMatchTheIndexButNotTheFlow) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  StrengthServer server(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);
  ServerThread running(server);
  StrengthClient client("127.0.0.1", server.port());

  const StrengthReplyMsg reply =
      client.query({nul_key(), non_ascii_key(), std::string("\0", 1)});
  ASSERT_EQ(3u, reply.estimates.size());

  // Both hostile byte sequences are real breached entries in the index.
  EXPECT_TRUE(reply.estimates[0].in_index);
  EXPECT_TRUE(reply.estimates[1].in_index);
  EXPECT_FALSE(reply.estimates[2].in_index);
  for (const StrengthEstimate& e : reply.estimates) {
    EXPECT_FALSE(e.representable);
    EXPECT_EQ(bits(-std::numeric_limits<double>::infinity()),
              bits(e.log_prob));
    EXPECT_TRUE(std::isinf(e.guess_number));
  }
}

// Driving poll_once() from the test thread makes admission decisions and
// stats reads deterministic — no server thread, no races.
TEST(Serving, OverloadIsRefusedLoudlyNeverSilentlyDropped) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  StrengthServerConfig config = fx.config();
  config.max_pending_candidates = 8;
  StrengthServer server(config, fx.tf.model, fx.tf.encoder, fx.matcher);

  passflow::dist::Connection client =
      passflow::dist::connect_to("127.0.0.1", server.port());
  client.send_frame(passflow::dist::encode(Message{passflow::dist::HelloMsg{}}));
  while (!client.readable(0)) server.poll_once(50);
  ASSERT_TRUE(std::holds_alternative<passflow::dist::WelcomeMsg>(
      passflow::dist::decode(client.recv_frame())));

  // A single query larger than the whole admission bound is always
  // refused, regardless of timing.
  StrengthQueryMsg oversized;
  oversized.request_id = 99;
  oversized.candidates.assign(9, "qwerty");
  client.send_frame(passflow::dist::encode(Message{oversized}));
  while (!client.readable(0)) server.poll_once(50);
  {
    const Message message = passflow::dist::decode(client.recv_frame());
    const auto* reply = std::get_if<StrengthReplyMsg>(&message);
    ASSERT_NE(nullptr, reply);
    EXPECT_EQ(99u, reply->request_id);
    EXPECT_EQ(StrengthStatus::kOverloaded, reply->status);
    EXPECT_TRUE(reply->estimates.empty());
  }

  // Flood: 20 queries of 3 candidates, sent before the server runs a
  // single loop turn. The bound of 8 admits at most 2 per drain; every
  // query still gets exactly one reply — Ok or Overloaded, never nothing.
  for (std::uint64_t id = 1; id <= 20; ++id) {
    StrengthQueryMsg query;
    query.request_id = id;
    query.candidates = {"123456", "zz9zz9", "nope"};
    client.send_frame(passflow::dist::encode(Message{query}));
  }
  // Let loopback deliver everything so one drain sees the whole burst.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::size_t ok = 0;
  std::size_t overloaded = 0;
  std::vector<bool> answered(21, false);
  for (std::size_t got = 0; got < 20;) {
    server.poll_once(50);
    while (client.readable(0)) {
      const Message message = passflow::dist::decode(client.recv_frame());
      const auto* reply = std::get_if<StrengthReplyMsg>(&message);
      ASSERT_NE(nullptr, reply);
      ASSERT_GE(reply->request_id, 1u);
      ASSERT_LE(reply->request_id, 20u);
      EXPECT_FALSE(answered[reply->request_id]) << "duplicate reply";
      answered[reply->request_id] = true;
      if (reply->status == StrengthStatus::kOk) {
        EXPECT_EQ(3u, reply->estimates.size());
        ++ok;
      } else {
        EXPECT_TRUE(reply->estimates.empty());
        ++overloaded;
      }
      ++got;
    }
  }
  EXPECT_EQ(20u, ok + overloaded);
  EXPECT_GE(overloaded, 1u) << "the burst must trip admission control";
  EXPECT_GE(ok, 1u) << "admission must not refuse everything";

  const passflow::serve::StrengthServerStats& stats = server.stats();
  EXPECT_EQ(ok, stats.queries);
  EXPECT_EQ(overloaded + 1, stats.overloaded);  // +1 oversized refusal
  EXPECT_EQ(21u, stats.replies_sent);
}

TEST(Serving, ClientDisconnectMidBatchDiscardsItsWorkOnly) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  StrengthServer server(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);

  // Client A handshakes, sends a query, and vanishes before the server
  // runs the loop turn that would score it.
  {
    passflow::dist::Connection a =
        passflow::dist::connect_to("127.0.0.1", server.port());
    a.send_frame(passflow::dist::encode(Message{passflow::dist::HelloMsg{}}));
    while (!a.readable(0)) server.poll_once(50);
    a.recv_frame();  // Welcome
    StrengthQueryMsg query;
    query.request_id = 7;
    query.candidates = {"123456", "qwerty"};
    a.send_frame(passflow::dist::encode(Message{query}));
    a.close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.poll_once(200);  // drains A's query + EOF, drops A

  // Client B is served normally afterwards.
  passflow::dist::Connection b =
      passflow::dist::connect_to("127.0.0.1", server.port());
  b.send_frame(passflow::dist::encode(Message{passflow::dist::HelloMsg{}}));
  while (!b.readable(0)) server.poll_once(50);
  b.recv_frame();  // Welcome
  StrengthQueryMsg query;
  query.request_id = 1;
  query.candidates = {"qwerty"};
  b.send_frame(passflow::dist::encode(Message{query}));
  while (!b.readable(0)) server.poll_once(50);
  const Message message = passflow::dist::decode(b.recv_frame());
  const auto* reply = std::get_if<StrengthReplyMsg>(&message);
  ASSERT_NE(nullptr, reply);
  EXPECT_EQ(StrengthStatus::kOk, reply->status);
  ASSERT_EQ(1u, reply->estimates.size());
  EXPECT_TRUE(reply->estimates[0].in_index);

  const passflow::serve::StrengthServerStats& stats = server.stats();
  EXPECT_EQ(2u, stats.clients_accepted);
  EXPECT_EQ(1u, stats.clients_dropped);
}

TEST(Serving, QueryBeforeHelloDropsTheConnection) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  StrengthServer server(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);

  passflow::dist::Connection rude =
      passflow::dist::connect_to("127.0.0.1", server.port());
  StrengthQueryMsg query;
  query.request_id = 1;
  query.candidates = {"qwerty"};
  rude.send_frame(passflow::dist::encode(Message{query}));
  // Drive the loop until the server hangs up (readable EOF) instead of
  // answering.
  while (!rude.readable(0)) server.poll_once(50);
  EXPECT_THROW(rude.recv_frame(), std::runtime_error);
  EXPECT_EQ(1u, server.stats().clients_dropped);
  EXPECT_EQ(0u, server.stats().replies_sent);
}

TEST(Serving, GuessNumbersAreDeterministicAndMonotone) {
  if (!posix()) GTEST_SKIP() << "no POSIX transport";
  ServeFixture fx;
  StrengthServer a(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);
  StrengthServer b(fx.config(), fx.tf.model, fx.tf.encoder, fx.matcher);

  const std::vector<std::string> candidates = {"123456", "qwerty", "zz9zz9",
                                               "blue42", "x1x1x1", ""};
  const std::vector<StrengthEstimate> ea = a.score(candidates);
  const std::vector<StrengthEstimate> eb = b.score(candidates);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    // Same model + same calibration seed => bitwise identical estimates
    // across independently constructed servers.
    EXPECT_EQ(bits(ea[i].log_prob), bits(eb[i].log_prob));
    EXPECT_EQ(bits(ea[i].guess_number), bits(eb[i].guess_number));
  }
  // Less likely under the flow can never mean an earlier (smaller) rank.
  for (std::size_t i = 0; i < ea.size(); ++i) {
    for (std::size_t j = 0; j < ea.size(); ++j) {
      if (ea[i].log_prob < ea[j].log_prob) {
        EXPECT_GE(ea[i].guess_number, ea[j].guess_number);
      }
    }
  }
}

}  // namespace
