// The comb table behind p256_base_mul is built on first use. This file's
// single test races that first use from four threads, so it must stay the
// only test in its binary: the race is real only in a fresh process.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/p256.hpp"

namespace watz::crypto {
namespace {

Scalar32 scalar_from_hex(std::string_view hex) {
  const Bytes raw = from_hex(hex);
  Scalar32 s{};
  std::copy(raw.begin(), raw.end(), s.begin() + (32 - raw.size()));
  return s;
}

TEST(P256FirstUse, ConcurrentFirstBaseMulAgrees) {
  struct Case {
    Scalar32 k;
    std::string x;
  };
  const std::vector<Case> cases = {
      {scalar_from_hex("02"),
       "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"},
      {scalar_from_hex("03"),
       "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c"},
      {scalar_from_hex("14"),
       "83a01a9378395bab9bcd6a0ad03cc56d56e6b19250465a94a234dc4c6b28da9a"},
      // RFC 6979 A.2.5 key: nonzero digits across every comb row.
      {scalar_from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"),
       "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6"},
  };
  std::latch start(static_cast<std::ptrdiff_t>(cases.size()));
  std::vector<EcPoint> results(cases.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < cases.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = p256_base_mul(cases[t].k);
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < cases.size(); ++t) {
    EXPECT_FALSE(results[t].infinity) << "thread " << t;
    EXPECT_TRUE(p256_on_curve(results[t])) << "thread " << t;
    EXPECT_EQ(to_hex(results[t].x), cases[t].x) << "thread " << t;
  }
}

}  // namespace
}  // namespace watz::crypto
