// LDA and classifier tests on a synthetic corpus with known structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/nlp/classifier.h"
#include "src/nlp/corpus.h"
#include "src/nlp/lda.h"

namespace witnlp {
namespace {

// Three well-separated synthetic topics.
const std::vector<std::vector<std::string>>& TopicWords() {
  static const std::vector<std::vector<std::string>> kTopics = {
      {"license", "matlab", "toolbox", "expired", "flexlm"},
      {"network", "ping", "dns", "firewall", "unreachable"},
      {"disk", "quota", "space", "storage", "full"},
  };
  return kTopics;
}

Corpus MakeCorpus(size_t docs_per_topic, uint32_t seed) {
  std::mt19937 rng(seed);
  Corpus corpus;
  for (size_t topic = 0; topic < TopicWords().size(); ++topic) {
    const auto& vocab = TopicWords()[topic];
    std::uniform_int_distribution<size_t> pick(0, vocab.size() - 1);
    for (size_t d = 0; d < docs_per_topic; ++d) {
      std::vector<std::string> words;
      for (int i = 0; i < 12; ++i) {
        words.push_back(vocab[pick(rng)]);
      }
      corpus.AddDocument(words, "topic-" + std::to_string(topic));
    }
  }
  return corpus;
}

class LdaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeCorpus(60, 5);
    LdaOptions options;
    options.num_topics = 3;
    options.iterations = 200;
    options.seed = 9;
    model_ = std::make_unique<LdaModel>(&corpus_, options);
    model_->Train();
  }
  Corpus corpus_;
  std::unique_ptr<LdaModel> model_;
};

TEST_F(LdaTest, TopicWordDistributionsSumToOne) {
  for (int k = 0; k < model_->num_topics(); ++k) {
    double total = 0.0;
    for (size_t w = 0; w < corpus_.vocab().size(); ++w) {
      total += model_->TopicWordProb(k, static_cast<int>(w));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(LdaTest, DocTopicDistributionsSumToOne) {
  for (size_t d = 0; d < corpus_.size(); d += 17) {
    std::vector<double> theta = model_->DocTopicDist(d);
    double total = 0.0;
    for (double p : theta) {
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(LdaTest, RecoversPlantedTopics) {
  // Each learned topic's top words should come from exactly one planted
  // topic's vocabulary.
  for (int k = 0; k < 3; ++k) {
    auto top = model_->TopWords(k, 3);
    ASSERT_EQ(top.size(), 3u);
    int source = -1;
    for (size_t planted = 0; planted < TopicWords().size(); ++planted) {
      const auto& vocab = TopicWords()[planted];
      if (std::find(vocab.begin(), vocab.end(), top[0].word) != vocab.end()) {
        source = static_cast<int>(planted);
      }
    }
    ASSERT_NE(source, -1);
    for (const auto& tw : top) {
      const auto& vocab = TopicWords()[static_cast<size_t>(source)];
      EXPECT_NE(std::find(vocab.begin(), vocab.end(), tw.word), vocab.end())
          << "topic " << k << " mixes planted topics: " << tw.word;
    }
  }
}

TEST_F(LdaTest, InferenceAssignsHeldOutDocsCorrectly) {
  LdaClassifier classifier(model_.get(), &corpus_);
  // A fresh document about networking.
  std::vector<std::string> doc = {"ping", "dns", "firewall", "ping", "unreachable", "network"};
  EXPECT_EQ(classifier.Classify(doc), "topic-1");
  std::vector<std::string> doc2 = {"matlab", "license", "expired", "toolbox"};
  EXPECT_EQ(classifier.Classify(doc2), "topic-0");
}

TEST_F(LdaTest, LogLikelihoodBetterThanUniform) {
  double ll = model_->LogLikelihoodPerToken();
  double uniform_ll = -std::log(static_cast<double>(corpus_.vocab().size()));
  EXPECT_GT(ll, uniform_ll);
}

TEST_F(LdaTest, DeterministicGivenSeed) {
  LdaOptions options;
  options.num_topics = 3;
  options.iterations = 50;
  options.seed = 33;
  LdaModel a(&corpus_, options);
  a.Train();
  LdaModel b(&corpus_, options);
  b.Train();
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(a.TopWords(k, 5)[0].word, b.TopWords(k, 5)[0].word);
  }
}

// The fold-in as first written: the phi quotient computed inline from the
// trained counts, a fresh generator per call.
std::vector<double> InlineFoldIn(const LdaModel& model, const LdaOptions& options, size_t vocab,
                                 const std::vector<int>& word_ids, int iterations,
                                 uint32_t seed) {
  const size_t K = static_cast<size_t>(options.num_topics);
  const double alpha = options.alpha;
  const double beta = options.beta;
  const double v_beta = static_cast<double>(vocab) * beta;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> topic_dist(0, options.num_topics - 1);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<int> local(K, 0);
  std::vector<int> z(word_ids.size());
  for (size_t i = 0; i < word_ids.size(); ++i) {
    z[i] = topic_dist(rng);
    ++local[static_cast<size_t>(z[i])];
  }
  std::vector<double> weights(K);
  for (int iter = 0; iter < iterations; ++iter) {
    for (size_t i = 0; i < word_ids.size(); ++i) {
      --local[static_cast<size_t>(z[i])];
      double total = 0.0;
      for (size_t k = 0; k < K; ++k) {
        int topic = static_cast<int>(k);
        double p = (static_cast<double>(model.TopicWordCount(topic, word_ids[i])) + beta) /
                   (static_cast<double>(model.TopicCount(topic)) + v_beta) *
                   (static_cast<double>(local[k]) + alpha);
        total += p;
        weights[k] = total;
      }
      double r = uniform(rng) * total;
      size_t new_k = static_cast<size_t>(std::lower_bound(weights.begin(), weights.end(), r) -
                                         weights.begin());
      if (new_k >= K) {
        new_k = K - 1;
      }
      z[i] = static_cast<int>(new_k);
      ++local[new_k];
    }
  }
  std::vector<double> out(K);
  double denom = static_cast<double>(word_ids.size()) + static_cast<double>(K) * alpha;
  for (size_t k = 0; k < K; ++k) {
    out[k] = (static_cast<double>(local[k]) + alpha) / denom;
  }
  return out;
}

TEST(LdaOracleTest, TableDrivenFoldInEqualsInlineFormula) {
  Corpus corpus = MakeCorpus(40, 17);
  for (int topics : {3, 10}) {
    LdaOptions options;
    options.num_topics = topics;
    options.iterations = 60;
    options.seed = 4;
    LdaModel model(&corpus, options);
    model.Train();
    const size_t vocab = corpus.vocab().size();
    const double v_beta = static_cast<double>(vocab) * options.beta;
    for (int k = 0; k < topics; ++k) {
      for (size_t w = 0; w < vocab; ++w) {
        int word = static_cast<int>(w);
        double inline_phi = (static_cast<double>(model.TopicWordCount(k, word)) + options.beta) /
                            (static_cast<double>(model.TopicCount(k)) + v_beta);
        ASSERT_EQ(model.TopicWordProb(k, word), inline_phi) << "topic " << k << " word " << w;
      }
    }
    std::mt19937 rng(99);
    std::uniform_int_distribution<int> pick(0, static_cast<int>(vocab) - 1);
    for (int doc = 0; doc < 200; ++doc) {
      std::vector<int> word_ids(static_cast<size_t>(doc % 25));  // includes the empty doc
      for (int& id : word_ids) {
        id = pick(rng);
      }
      ASSERT_EQ(model.InferTopics(word_ids),
                InlineFoldIn(model, options, vocab, word_ids, 50, LdaModel::kDefaultInferSeed))
          << "topics " << topics << " doc " << doc;
      uint32_t seed = static_cast<uint32_t>(rng());
      int iterations = 1 + doc % 40;
      ASSERT_EQ(model.InferTopics(word_ids, iterations, seed),
                InlineFoldIn(model, options, vocab, word_ids, iterations, seed))
          << "topics " << topics << " doc " << doc << " seed " << seed;
    }
  }
}

TEST(NaiveBayesTest, ClassifiesSeparableCorpus) {
  Corpus corpus = MakeCorpus(40, 21);
  NaiveBayesClassifier nb(&corpus);
  EXPECT_EQ(nb.Classify({"quota", "disk", "full"}), "topic-2");
  EXPECT_EQ(nb.Classify({"matlab", "flexlm"}), "topic-0");
  EXPECT_EQ(nb.labels().size(), 3u);
}

TEST(EvaluateClassifierTest, PrecisionRecallAccuracy) {
  std::vector<std::pair<std::string, std::string>> results = {
      {"a", "a"}, {"a", "a"}, {"a", "b"},  // a: 2/3 recall
      {"b", "b"},                          // b predicted 2x, correct 1x
  };
  ClassificationReport report = EvaluateClassifier(results);
  EXPECT_NEAR(report.accuracy, 0.75, 1e-9);
  EXPECT_NEAR(report.recall["a"], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(report.precision["a"], 1.0, 1e-9);      // all predicted-a were a
  EXPECT_NEAR(report.precision["b"], 0.5, 1e-9);
  EXPECT_EQ(report.total, 4u);
}

TEST(CorpusTest, VocabularyAndUnknownWords) {
  Corpus corpus;
  corpus.AddDocument({"alpha", "beta", "alpha"});
  EXPECT_EQ(corpus.vocab().size(), 2u);
  EXPECT_EQ(corpus.vocab().CountOf(corpus.vocab().IdOf("alpha")), 2u);
  auto ids = corpus.ToIds({"alpha", "gamma", "beta"});
  EXPECT_EQ(ids.size(), 2u);  // gamma dropped
  EXPECT_EQ(corpus.total_tokens(), 3u);
}

}  // namespace
}  // namespace witnlp
