// Tests for util: RNG determinism and distribution sanity, string helpers,
// error contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"

namespace pu = pyhpc::util;

TEST(Random, DeterministicForSameSeedAndStream) {
  pu::Xoshiro256 a(42, 3);
  pu::Xoshiro256 b(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Random, StreamsDiffer) {
  pu::Xoshiro256 a(42, 0);
  pu::Xoshiro256 b(42, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Random, DoublesInUnitInterval) {
  pu::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Random, DoublesRoughlyUniform) {
  pu::Xoshiro256 rng(1234);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, IntRangeInclusive) {
  pu::Xoshiro256 rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Random, IntRangeRejectsInverted) {
  pu::Xoshiro256 rng(5);
  EXPECT_THROW(rng.next_int(3, 1), pyhpc::InvalidArgument);
}

TEST(Random, NormalHasUnitVarianceRoughly) {
  pu::Xoshiro256 rng(77);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Random, UniformDoublesHelperMatchesGenerator) {
  auto v = pu::uniform_doubles(9, 2, 16);
  pu::Xoshiro256 rng(9, 2);
  for (double x : v) EXPECT_EQ(x, rng.next_double());
}

TEST(StringUtil, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts{"a", "bb", "", "ccc"};
  EXPECT_EQ(pu::join(parts, ","), "a,bb,,ccc");
  EXPECT_EQ(pu::split("a,bb,,ccc", ','), parts);
}

TEST(StringUtil, SplitSingleField) {
  EXPECT_EQ(pu::split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(pu::split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, Strip) {
  EXPECT_EQ(pu::strip("  hi \t\n"), "hi");
  EXPECT_EQ(pu::strip(""), "");
  EXPECT_EQ(pu::strip("   "), "");
  EXPECT_EQ(pu::strip("x"), "x");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(pu::starts_with("seamless", "seam"));
  EXPECT_FALSE(pu::starts_with("odin", "odin4"));
  EXPECT_TRUE(pu::starts_with("anything", ""));
}

TEST(StringUtil, CatFormatsMixedTypes) {
  EXPECT_EQ(pu::cat("rank ", 3, " of ", 8), "rank 3 of 8");
}

namespace {
// A message part that counts how often it is streamed.
struct StreamProbe {
  int* streamed;
};
std::ostream& operator<<(std::ostream& os, const StreamProbe& p) {
  ++*p.streamed;
  return os << "<probe>";
}
}  // namespace

TEST(Error, RequireThrowsRequestedType) {
  EXPECT_NO_THROW(pyhpc::require(true, "fine"));
  EXPECT_THROW(pyhpc::require(false, "nope"), pyhpc::InvalidArgument);
  EXPECT_THROW(pyhpc::require<pyhpc::ShapeError>(false, "bad shape"),
               pyhpc::ShapeError);

  // A passing check never streams its parts.
  int streamed = 0;
  const StreamProbe probe{&streamed};
  const std::string name = "row";
  pyhpc::require<pyhpc::MapError>(true, "lid ", 7, " of ", name, probe);
  EXPECT_EQ(streamed, 0);

  // A failing one throws the requested type with util::cat of the parts.
  try {
    pyhpc::require<pyhpc::MapError>(false, "lid ", 7, " of ", name, probe);
    ADD_FAILURE() << "require(false, ...) did not throw";
  } catch (const pyhpc::MapError& e) {
    int expected_streamed = 0;
    EXPECT_EQ(std::string(e.what()),
              pu::cat("lid ", 7, " of ", name,
                      StreamProbe{&expected_streamed}));
    EXPECT_EQ(streamed, 1);
  }
}

TEST(Error, HierarchyCatchableAsBase) {
  try {
    throw pyhpc::CommError("boom");
  } catch (const pyhpc::Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

#include "util/dense_lu.hpp"

TEST(DenseLU, SolvesKnownSystem) {
  // A = [[2,1],[1,3]], b = [5, 10] -> x = [1, 3].
  pu::DenseLU lu(2, {2.0, 1.0, 1.0, 3.0});
  auto x = lu.solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(lu.det(), 5.0, 1e-12);
}

TEST(DenseLU, PivotingHandlesZeroLeadingEntry) {
  // Leading zero forces a row swap.
  pu::DenseLU lu(2, {0.0, 1.0, 1.0, 0.0});
  auto x = lu.solve(std::vector<double>{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(lu.det(), -1.0, 1e-12);
}

TEST(DenseLU, SingularThrows) {
  EXPECT_THROW(pu::DenseLU(2, {1.0, 2.0, 2.0, 4.0}), pyhpc::NumericalError);
}

TEST(DenseLU, RandomSystemResidualSmall) {
  const std::size_t n = 20;
  pu::Xoshiro256 rng(11);
  std::vector<double> a(n * n);
  for (auto& v : a) v = rng.next_double() - 0.5;
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 5.0;  // well-conditioned
  std::vector<double> b(n);
  for (auto& v : b) v = rng.next_double();
  pu::DenseLU lu(n, a);
  auto x = lu.solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(DenseLU, SizeMismatchRejected) {
  EXPECT_THROW(pu::DenseLU(3, {1.0, 2.0}), pyhpc::InvalidArgument);
  pu::DenseLU lu(1, {2.0});
  EXPECT_THROW((void)lu.solve(std::vector<double>{1.0, 2.0}),
               pyhpc::InvalidArgument);
}

// ---------------------------------------------------------------------------
// SetupCache (service-layer structure-keyed artifact store)
// ---------------------------------------------------------------------------

#include "util/setup_cache.hpp"

TEST(SetupCache, BuildOnceThenHit) {
  pu::SetupCache cache(4, "test.cache.a");
  int builds = 0;
  auto build = [&builds] {
    ++builds;
    return std::make_shared<int>(41 + builds);
  };
  EXPECT_EQ(*cache.get_or_build<int>("k", build), 42);
  EXPECT_EQ(*cache.get_or_build<int>("k", build), 42);  // cached, not 43
  EXPECT_EQ(builds, 1);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(SetupCache, LruEvictionDropsColdestEntry) {
  pu::SetupCache cache(2, "test.cache.b");
  auto mk = [](int v) { return [v] { return std::make_shared<int>(v); }; };
  (void)cache.get_or_build<int>("a", mk(1));
  (void)cache.get_or_build<int>("b", mk(2));
  (void)cache.get_or_build<int>("a", mk(0));  // refresh: a is now MRU
  (void)cache.get_or_build<int>("c", mk(3));  // evicts b, not a
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SetupCache, DistinctTypesUnderDistinctKeys) {
  pu::SetupCache cache(8, "test.cache.c");
  auto i = cache.get_or_build<int>("int", [] {
    return std::make_shared<int>(7);
  });
  auto s = cache.get_or_build<std::string>("str", [] {
    return std::make_shared<std::string>("seven");
  });
  EXPECT_EQ(*i, 7);
  EXPECT_EQ(*s, "seven");
}

TEST(SetupCache, ConcurrentGetOrBuildSharesOneValue) {
  // Many threads race to build the same key; first insert wins and every
  // caller ends up sharing that value (duplicate builds allowed, counted
  // as misses — never two live artifacts for one key).
  pu::SetupCache cache(8, "test.cache.d");
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<int>> got(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &got, t] {
      got[static_cast<std::size_t>(t)] = cache.get_or_build<int>(
          "shared", [t] { return std::make_shared<int>(100 + t); });
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SetupCache, ClearEmptiesEntriesButKeepsCounters) {
  pu::SetupCache cache(4, "test.cache.e");
  (void)cache.get_or_build<int>("x", [] { return std::make_shared<int>(1); });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains("x"));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SetupCache, RejectsZeroCapacity) {
  EXPECT_THROW(pu::SetupCache(0), pyhpc::InvalidArgument);
}

TEST(Fingerprint, DeterministicAndOrderSensitive) {
  pu::Fingerprint a, b, c;
  a.mix(1).mix(2);
  b.mix(1).mix(2);
  c.mix(2).mix(1);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Fingerprint, EmptyBytesAreSafeAndNeutralInputsDiffer) {
  pu::Fingerprint a;
  const auto before = a.digest();
  a.mix_bytes(nullptr, 0);  // empty vector's data() may be null
  EXPECT_EQ(a.digest(), before);
  pu::Fingerprint x, y;
  x.mix_bytes("ab", 2);
  y.mix_bytes("ba", 2);
  EXPECT_NE(x.digest(), y.digest());
}
