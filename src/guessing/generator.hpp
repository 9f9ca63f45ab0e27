// Common interface for anything that emits password guesses.
//
// PassFlow's three strategies, the CWAE, the GANs and the Markov baseline all
// implement this, so one attack engine (AttackSession, session.hpp) can
// evaluate every row of Tables II and III. Generators that exploit match
// feedback (PassFlow's Dynamic Sampling, Algorithm 1) receive it through
// on_match().
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace passflow::guessing {

class GuessGenerator {
 public:
  virtual ~GuessGenerator() = default;

  // Appends exactly `n` guesses to `out`.
  virtual void generate(std::size_t n, std::vector<std::string>& out) = 0;

  // Called by the session for each *new* matched guess, with the index of
  // that guess within the most recent generate() batch. Default: ignore.
  virtual void on_match(std::size_t index_in_batch,
                        const std::string& password) {
    (void)index_in_batch;
    (void)password;
  }

  // Whether this generator's future output depends on on_match() feedback.
  // Generators that override on_match() to mutate state MUST return true:
  // the session only pipelines generation ahead of matching — during which
  // on_match() is never invoked — for generators that return false.
  virtual bool uses_match_feedback() const { return false; }

  // Human-readable name used in tables.
  virtual std::string name() const = 0;

  // --- Stream state serialization (AttackSession save/resume) -------------
  //
  // Generators that can checkpoint their stream override these three. The
  // contract: load_state() on a freshly constructed generator with the
  // same configuration must continue the guess stream bit-for-bit where
  // save_state() left it. Most samplers only need to persist their RNG
  // (util::Rng::save/load); enumerators persist a cursor.
  virtual bool supports_state_serialization() const { return false; }

  virtual void save_state(std::ostream& out) const {
    (void)out;
    throw std::logic_error("generator '" + name() +
                           "' does not support state serialization");
  }

  virtual void load_state(std::istream& in) {
    (void)in;
    throw std::logic_error("generator '" + name() +
                           "' does not support state serialization");
  }
};

}  // namespace passflow::guessing
