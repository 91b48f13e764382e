// Allocation gate for the gradecast iteration: once a batch has run one
// iteration, restarting it and driving every step allocates nothing. The
// executable replaces the global operator new/delete with counting
// versions, so it is its own target (no other test shares the hooks).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "gradecast/gradecast.h"
#include "realaa/real_aa.h"
#include "realaa/wire.h"
#include "sim/engine.h"

namespace {

std::uint64_t g_news = 0;

}  // namespace

// Not inlined: inlined into one caller, GCC sees malloc() pointers reach
// operator delete and warns about mismatched allocation functions.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace treeaa::gradecast {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_news;
  fn();
  return g_news - before;
}

/// n honest parties, each keeping one batch for life, driven through
/// `iterations` gradecast iterations over a hand-rolled network: a shared
/// payload pool and per-recipient inboxes whose capacity persists, the way
/// sim::Engine keeps its own. Returns the allocations made inside
/// on_step_begin/on_step_end, per iteration.
std::vector<std::uint64_t> step_allocations(std::size_t n,
                                            std::size_t iterations) {
  const std::size_t t = (n - 1) / 3;
  perf::PayloadPool pool;
  std::vector<sim::Envelope> sent;
  sent.reserve(n * n);
  std::vector<std::vector<sim::Envelope>> inboxes(n);
  for (auto& inbox : inboxes) inbox.reserve(n);
  const std::vector<bool> deny(n, false);

  std::vector<std::unique_ptr<BatchGradecast>> batches;
  for (PartyId p = 0; p < n; ++p) {
    batches.push_back(std::make_unique<BatchGradecast>(
        p, n, t, realaa::encode_value_array(static_cast<double>(p)), deny));
  }

  std::vector<std::uint64_t> per_iteration;
  for (std::size_t it = 0; it < iterations; ++it) {
    std::uint64_t allocs = 0;
    if (it > 0) {
      // Every iteration leads with a new value, as RealAA's update does.
      for (PartyId p = 0; p < n; ++p) {
        const auto value = realaa::encode_value_array(
            static_cast<double>(p) / static_cast<double>(it + 1));
        allocs += allocations_in([&] { batches[p]->restart(value, deny); });
      }
    }
    for (std::size_t step = 0; step < kRounds; ++step) {
      const Round round = static_cast<Round>(it * kRounds + step + 1);
      for (PartyId p = 0; p < n; ++p) {
        sim::Mailer mailer(p, n, sent, round, &pool);
        allocs += allocations_in(
            [&] { batches[p]->on_step_begin(step, mailer); });
      }
      for (const sim::Envelope& e : sent) inboxes[e.to].push_back(e);
      for (PartyId p = 0; p < n; ++p) {
        allocs += allocations_in(
            [&] { batches[p]->on_step_end(step, inboxes[p]); });
      }
      for (auto& inbox : inboxes) inbox.clear();
      for (sim::Envelope& e : sent) e.payload.release(&pool);
      sent.clear();
    }
    for (PartyId p = 0; p < n; ++p) {
      const auto& results = batches[p]->results();
      for (PartyId l = 0; l < n; ++l) EXPECT_EQ(results[l].grade, 2);
    }
    per_iteration.push_back(allocs);
  }
  return per_iteration;
}

TEST(GradecastAlloc, RestartedHonestBatchesAllocateNothingAfterIterationOne) {
  for (const std::size_t n : {4u, 7u, 13u}) {
    SCOPED_TRACE(n);
    const auto allocs = step_allocations(n, 6);
    EXPECT_GT(allocs[0], 0u);  // the first iteration grows every buffer
    for (std::size_t it = 1; it < allocs.size(); ++it) {
      EXPECT_EQ(allocs[it], 0u) << "iteration " << it + 1;
    }
  }
}

TEST(GradecastAlloc, HonestEngineRunStopsTakingPayloadBlocksFromTheHeap) {
  // After the first rounds the engine's pool holds a round's worth of
  // control blocks, so an honest RealAA run takes no more from the heap.
  const std::size_t n = 7, t = 2;
  realaa::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.eps = 1e-3;
  cfg.known_range = 1000.0;
  ASSERT_GE(cfg.rounds(), 9u);
  sim::Engine engine(n, t);
  for (PartyId p = 0; p < n; ++p) {
    engine.set_process(p, std::make_unique<realaa::RealAAProcess>(
                              cfg, p, 100.0 * static_cast<double>(p)));
  }
  engine.run(3);
  const std::uint64_t misses = engine.payload_pool_misses();
  EXPECT_GT(misses, 0u);
  for (std::size_t r = 3; r < cfg.rounds(); ++r) {
    engine.run(1);
    EXPECT_EQ(engine.payload_pool_misses(), misses) << "round " << r + 1;
  }
}

}  // namespace
}  // namespace treeaa::gradecast
