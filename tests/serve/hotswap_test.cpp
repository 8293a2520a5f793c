// Zero-downtime hot-swap tests: the acceptance property (>= 20
// consecutive publishes under concurrent load, zero dropped or unresolved
// futures, every scored reply bitwise-identical to the scalar decision of
// the generation that scored it) plus the drain()+submit()+publish() race
// stress that CI runs under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "casvm/core/distributed_model.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/serve/engine.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/error.hpp"

namespace casvm::serve {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

solver::Model trainBase(std::uint64_t seed = 5) {
  const auto train = data::generateTwoGaussians(120, 6, 4.0, seed);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.4);
  return solver::SmoSolver(opts).solve(train).model;
}

// Generation g is the base model with a bias shifted by g * 1e-3: cheap to
// build, identical support set, and every generation's decisions are
// bitwise-distinguishable from every other's.
solver::Model generationModel(const solver::Model& base, std::uint64_t g) {
  return solver::Model(base.kernelParams(), base.supportVectors(),
                       base.alphaY(), base.bias() + 1e-3 * static_cast<double>(g));
}

CompiledDistributedModel compiled(const solver::Model& model) {
  return CompiledDistributedModel::compile(
      core::DistributedModel::single(model));
}

std::vector<std::vector<float>> queriesFrom(const data::Dataset& ds) {
  std::vector<std::vector<float>> q(ds.rows());
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    q[i].resize(ds.cols());
    ds.copyRowDense(i, q[i]);
  }
  return q;
}

TEST(HotSwapTest, PublishTakesEffectAndMatchesNewScalarPath) {
  const solver::Model base = trainBase();
  const auto testSet = data::generateTwoGaussians(16, 6, 4.0, 9);
  const auto queries = queriesFrom(testSet);

  ServeConfig config;
  config.workers = 1;
  ServeEngine engine(compiled(generationModel(base, 0)), config);
  EXPECT_EQ(engine.modelGeneration(), 1u);

  const ServeReply before = engine.score(queries[0]);
  ASSERT_EQ(before.code, ServeCode::Ok);
  EXPECT_EQ(before.modelGeneration, 1u);

  const solver::Model next = generationModel(base, 1);
  EXPECT_EQ(engine.publish(compiled(next)), 2u);
  EXPECT_EQ(engine.modelGeneration(), 2u);

  // publish() installs between micro-batches; once a reply reports the
  // new generation every subsequent decision is the new model's, bitwise.
  while (engine.score(queries[0]).modelGeneration < 2u) {
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ServeReply reply = engine.score(queries[i]);
    ASSERT_EQ(reply.code, ServeCode::Ok);
    EXPECT_EQ(reply.modelGeneration, 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reply.decision),
              std::bit_cast<std::uint64_t>(next.decisionFor(testSet, i)))
        << i;
  }
  engine.drain();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.modelSwaps, 1u);
  EXPECT_EQ(stats.modelGeneration, 2u);
}

TEST(HotSwapTest, PublishRejectsMismatchedFeatureWidth) {
  ServeConfig config;
  ServeEngine engine(compiled(trainBase()), config);
  const auto narrow = data::generateTwoGaussians(80, 4, 4.0, 7);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.4);
  EXPECT_THROW(
      engine.publish(compiled(solver::SmoSolver(opts).solve(narrow).model)),
      Error);
  EXPECT_EQ(engine.modelGeneration(), 1u);
  // The engine still serves the original model after the failed publish.
  const auto testSet = data::generateTwoGaussians(2, 6, 4.0, 9);
  EXPECT_EQ(engine.score(queriesFrom(testSet)[0]).code, ServeCode::Ok);
  engine.drain();
}

// The PR's acceptance property: 20 consecutive publishes while a producer
// thread keeps the queue busy. Every future resolves, no request is shed
// or dropped by a swap, and every Ok reply's decision is bitwise-identical
// to the scalar decisionFor of exactly the generation that scored it — a
// batch pinned to a retired pack would fail the bitwise check because
// every generation's bias differs.
TEST(HotSwapTest, TwentyPublishesUnderLoadStayBitwiseCorrect) {
  constexpr std::uint64_t kSwaps = 20;
  const solver::Model base = trainBase();
  const auto testSet = data::generateTwoGaussians(24, 6, 4.0, 9);
  const auto queries = queriesFrom(testSet);

  // gens[g] backs generation g+1; ref[g][i] is its scalar decision.
  std::vector<solver::Model> gens;
  std::vector<std::vector<double>> ref;
  for (std::uint64_t g = 0; g <= kSwaps; ++g) {
    gens.push_back(generationModel(base, g));
    auto& r = ref.emplace_back(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      r[i] = gens.back().decisionFor(testSet, i);
    }
  }

  ServeConfig config;
  config.workers = 2;
  config.batchSize = 8;
  config.maxWaitUs = 100;
  config.queueCapacity = 4096;  // ample: a swap must never cause a shed
  ServeEngine engine(compiled(gens[0]), config);

  std::mutex mu;
  std::vector<std::pair<std::size_t, std::future<ServeReply>>> inflight;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::size_t i = 0;
    std::size_t oldest = 0;  // inflight[oldest..i) may still be queued
    while (!stop.load(std::memory_order_relaxed)) {
      // AddressSanitizer builds score an order of magnitude slower than
      // this loop submits, so there the producer keeps at most half the
      // queue outstanding; otherwise it overflows the queue with no swap
      // involved. The shed check below then holds by construction, and
      // only the uninstrumented builds test that a swap sheds nothing.
      if (kAddressSanitizer && i - oldest >= config.queueCapacity / 2) {
        std::future<ServeReply>* head = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu);
          head = &inflight[oldest++].second;
        }
        head->wait();  // only this thread appends, so `head` stays valid
      }
      const std::size_t q = i++ % queries.size();
      auto f = engine.submit(queries[q]);
      {
        std::lock_guard<std::mutex> lock(mu);
        inflight.emplace_back(q, std::move(f));
      }
      if (i % 32 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (std::uint64_t g = 1; g <= kSwaps; ++g) {
    ASSERT_EQ(engine.publish(compiled(gens[g])), g + 1);
    // Wait until the new generation is live before the next publish so
    // every generation actually scores traffic.
    while (engine.score(queries[0]).modelGeneration < g + 1) {
    }
  }
  stop.store(true);
  producer.join();
  engine.drain();

  std::size_t ok = 0;
  for (auto& [q, f] : inflight) {
    const ServeReply reply = f.get();  // throws if any future never resolved
    ASSERT_EQ(reply.code, ServeCode::Ok);
    ASSERT_GE(reply.modelGeneration, 1u);
    ASSERT_LE(reply.modelGeneration, kSwaps + 1);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(reply.decision),
        std::bit_cast<std::uint64_t>(ref[reply.modelGeneration - 1][q]))
        << "query " << q << " generation " << reply.modelGeneration;
    ++ok;
  }
  EXPECT_GT(ok, 0u);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.modelSwaps, kSwaps);
  EXPECT_EQ(stats.modelGeneration, kSwaps + 1);
  EXPECT_EQ(stats.shed, 0u);  // zero drops across all 20 swaps
  EXPECT_EQ(stats.health, "drained");
}

// TSan coverage for the three-way race: producers submitting, a publisher
// hot-swapping, and drain() cutting in mid-stream. Every future must
// resolve exactly once with a valid code and the counters must add up.
TEST(HotSwapTest, DrainSubmitPublishRaceResolvesEveryFuture) {
  const solver::Model base = trainBase();
  const auto testSet = data::generateTwoGaussians(16, 6, 4.0, 9);
  const auto queries = queriesFrom(testSet);

  ServeConfig config;
  config.workers = 2;
  config.batchSize = 4;
  config.maxWaitUs = 50;
  config.queueCapacity = 32;
  ServeEngine engine(compiled(generationModel(base, 0)), config);

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 200;
  std::atomic<std::uint64_t> ok{0}, shed{0}, timedOut{0}, stopped{0}, bad{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + 1);
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        SubmitOptions options;
        options.priority = (i % 4 == 0) ? Priority::Low : Priority::High;
        std::vector<float> q = queries[(p * kPerProducer + i) % queries.size()];
        if (i % 50 == 7) q.pop_back();  // exercise BadRequest under race
        switch (engine.score(std::move(q), options).code) {
          case ServeCode::Ok: ++ok; break;
          case ServeCode::Shed: ++shed; break;
          case ServeCode::Timeout: ++timedOut; break;
          case ServeCode::Stopped: ++stopped; break;
          case ServeCode::BadRequest: ++bad; break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (std::uint64_t g = 1; g <= 30; ++g) {
      engine.publish(compiled(generationModel(base, g)));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.drain();  // races the tail of the producers and the publisher
  for (auto& t : threads) t.join();
  engine.drain();  // idempotent post-join

  EXPECT_EQ(ok + shed + timedOut + stopped + bad, kProducers * kPerProducer);
  EXPECT_GT(bad.load(), 0u);
  EXPECT_EQ(engine.health(), Health::Drained);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.badRequests, bad.load());
  EXPECT_EQ(stats.timedOut, stats.expiredAtAdmission + stats.expiredInQueue);
  EXPECT_EQ(stats.modelSwaps, 30u);
}

}  // namespace
}  // namespace casvm::serve
