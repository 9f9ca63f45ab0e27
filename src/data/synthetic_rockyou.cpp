#include "data/synthetic_rockyou.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/alphabet.hpp"
#include "data/wordlists.hpp"
#include "util/flat_string_set.hpp"

namespace passflow::data {

CorpusConfig focused_corpus_config(std::size_t max_length) {
  CorpusConfig config;
  config.max_length = max_length;
  config.name_pool = 28;
  config.word_pool = 36;
  config.year_span = 30;
  config.lowercase_digits_only = true;
  config.weight_random_tail = 0.02;  // thin the unlearnable tail
  config.weight_interleaved = 0.04;
  return config;
}

namespace {
std::size_t pool_size(std::size_t list_size, std::size_t pool) {
  return pool == 0 ? list_size : std::min(list_size, pool);
}
}  // namespace

SyntheticRockyou::SyntheticRockyou(CorpusConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      common_ranks_(pool_size(common_passwords().size(), config.word_pool * 3),
                    config.zipf_common),
      word_ranks_(pool_size(dictionary_words().size(), config.word_pool),
                  config.zipf_word),
      name_ranks_(pool_size(first_names().size(), config.name_pool),
                  config.zipf_word) {
  family_weights_ = {config.weight_common,      config.weight_word_suffix,
                     config.weight_name_suffix, config.weight_digits,
                     config.weight_keyboard,    config.weight_leet,
                     config.weight_interleaved, config.weight_random_tail};
}

std::string SyntheticRockyou::sample() { return sample(rng_); }

std::vector<std::string> SyntheticRockyou::generate(std::size_t n) {
  std::vector<std::string> corpus;
  corpus.reserve(n);
  for (std::size_t i = 0; i < n; ++i) corpus.push_back(sample(rng_));
  return corpus;
}

std::string SyntheticRockyou::sample(util::Rng& rng) const {
  switch (util::sample_discrete(rng, family_weights_)) {
    case 0:
      return clamp_length(sample_common(rng), rng);
    case 1:
      return clamp_length(sample_word_suffix(rng), rng);
    case 2:
      return clamp_length(sample_name_suffix(rng), rng);
    case 3:
      return clamp_length(sample_digits(rng), rng);
    case 4:
      return clamp_length(sample_keyboard(rng), rng);
    case 5:
      return clamp_length(sample_leet(rng), rng);
    case 6:
      return clamp_length(sample_interleaved(rng), rng);
    default:
      return clamp_length(sample_random_tail(rng), rng);
  }
}

std::string SyntheticRockyou::sample_common(util::Rng& rng) const {
  return common_passwords()[common_ranks_.sample(rng)];
}

std::string SyntheticRockyou::append_suffix(std::string stem,
                                            util::Rng& rng) const {
  const double r = rng.uniform();
  if (r < 0.35) {
    // Year suffix, biased toward birth years of typical leak demographics.
    const int year =
        1960 + static_cast<int>(rng.uniform_index(
                   std::max<std::size_t>(1, config_.year_span)));
    if (rng.bernoulli(0.4)) {
      stem += std::to_string(year % 100 < 10 ? year % 100 + 10 : year % 100);
    } else {
      stem += std::to_string(year);
    }
  } else if (r < 0.85) {
    const auto& suffixes = common_suffixes();
    // Order in the list encodes popularity: sample ranks with a mild bias.
    const std::size_t idx = std::min<std::size_t>(
        suffixes.size() - 1,
        static_cast<std::size_t>(rng.uniform() * rng.uniform() *
                                 static_cast<double>(suffixes.size())));
    stem += suffixes[idx];
  }
  // Remaining ~15%: bare stem.
  return stem;
}

std::string SyntheticRockyou::sample_word_suffix(util::Rng& rng) const {
  return append_suffix(dictionary_words()[word_ranks_.sample(rng)], rng);
}

std::string SyntheticRockyou::sample_name_suffix(util::Rng& rng) const {
  return append_suffix(first_names()[name_ranks_.sample(rng)], rng);
}

std::string SyntheticRockyou::sample_digits(util::Rng& rng) const {
  const std::size_t len =
      config_.min_length + rng.uniform_index(config_.max_length -
                                             config_.min_length + 1);
  std::string password;
  if (rng.bernoulli(0.5)) {
    // Sequential run starting from a random digit ("456789...").
    int d = static_cast<int>(rng.uniform_index(10));
    const int step = rng.bernoulli(0.8) ? 1 : -1;
    for (std::size_t i = 0; i < len; ++i) {
      password += static_cast<char>('0' + ((d % 10 + 10) % 10));
      d += step;
    }
  } else if (rng.bernoulli(0.5)) {
    // Repeated short block ("121212", "777777").
    const std::size_t block = 1 + rng.uniform_index(2);
    std::string unit;
    for (std::size_t i = 0; i < block; ++i) {
      unit += static_cast<char>('0' + rng.uniform_index(10));
    }
    while (password.size() < len) password += unit;
    password.resize(len);
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      password += static_cast<char>('0' + rng.uniform_index(10));
    }
  }
  return password;
}

std::string SyntheticRockyou::sample_keyboard(util::Rng& rng) const {
  const auto& walks = keyboard_walks();
  std::string walk = walks[rng.uniform_index(walks.size())];
  if (rng.bernoulli(0.3)) walk = append_suffix(walk, rng);
  return walk;
}

std::string SyntheticRockyou::sample_leet(util::Rng& rng) const {
  std::string word = rng.bernoulli(0.5)
                         ? dictionary_words()[word_ranks_.sample(rng)]
                         : first_names()[name_ranks_.sample(rng)];
  for (char& c : word) {
    if (!rng.bernoulli(0.55)) continue;
    switch (c) {
      case 'a': c = '4'; break;
      case 'e': c = '3'; break;
      case 'i': c = '1'; break;
      case 'o': c = '0'; break;
      case 's': c = '5'; break;
      case 't': c = '7'; break;
      default: break;
    }
  }
  if (rng.bernoulli(0.4)) word = append_suffix(word, rng);
  return word;
}

std::string SyntheticRockyou::sample_interleaved(util::Rng& rng) const {
  // Word with a digit run spliced at a random position ("jim91my" style
  // variants appear in real leaks from numeric insertions).
  std::string word = first_names()[name_ranks_.sample(rng)];
  std::string digits;
  const std::size_t digit_count = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < digit_count; ++i) {
    digits += static_cast<char>('0' + rng.uniform_index(10));
  }
  const std::size_t pos = rng.uniform_index(word.size() + 1);
  word.insert(pos, digits);
  return word;
}

std::string SyntheticRockyou::sample_random_tail(util::Rng& rng) const {
  static const std::string charset = "abcdefghijklmnopqrstuvwxyz0123456789";
  const std::size_t len =
      config_.min_length + rng.uniform_index(config_.max_length -
                                             config_.min_length + 1);
  std::string password;
  for (std::size_t i = 0; i < len; ++i) {
    // Bias toward lowercase so the tail still looks vaguely pronounceable.
    const std::size_t limit = rng.bernoulli(0.8) ? 26 : charset.size();
    password += charset[rng.uniform_index(limit)];
  }
  return password;
}

std::string SyntheticRockyou::clamp_length(std::string password,
                                           util::Rng& rng) const {
  if (config_.lowercase_digits_only) {
    for (char& c : password) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    password = Alphabet::compact().sanitize(password, '1');
  }
  if (password.size() > config_.max_length) {
    password.resize(config_.max_length);
  }
  while (password.size() < config_.min_length) {
    password += static_cast<char>('0' + rng.uniform_index(10));
  }
  return password;
}

DatasetSplit make_rockyou_style_split(const std::vector<std::string>& corpus,
                                      std::size_t train_size,
                                      util::Rng& rng) {
  const auto perm = rng.permutation(corpus.size());
  const std::size_t train_end = corpus.size() * 8 / 10;

  DatasetSplit split;
  // Subsample train_size instances (with the corpus' natural multiplicity)
  // from the 80% partition, as the paper subsamples 300K from 23.5M.
  if (train_size > train_end) train_size = train_end;
  split.train.reserve(train_size);
  for (std::size_t i = 0; i < train_size; ++i) {
    split.train.push_back(corpus[perm[i]]);
  }

  // Exclude everything in the *80% partition*, not just the subsample: the
  // paper removes the train/test intersection computed on the full split.
  // A test row is kept when its insert is new, i.e. it is neither in the
  // 80% partition nor an earlier test row.
  util::FlatStringSet excluded;
  for (std::size_t i = 0; i < train_end; ++i) excluded.insert(corpus[perm[i]]);
  for (std::size_t i = train_end; i < corpus.size(); ++i) {
    const std::string& password = corpus[perm[i]];
    if (excluded.insert(password)) split.test_unique.push_back(password);
  }
  return split;
}

}  // namespace passflow::data
