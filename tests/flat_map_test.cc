// FlatMap (common/flat_map.h) against std::unordered_map.
//
// The differential test replays a seeded random mix of emplace, operator[],
// find, erase and clear on both maps and compares them after every step.
// Half of its keys are chosen to land on a given home slot of the map's
// current table, often the last one, so probe runs collide and wrap around
// the end of the table, which is where backward-shift erase can go wrong.
// Seeds are embedded in the test names (…/Seed7), so a failing ctest line
// replays the exact sequence.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"

namespace cobra {
namespace {

using Map = FlatMap<uint64_t, uint64_t>;  // key 0 is the empty sentinel

// Keys are drawn from [1, kKeySpace) so that erases and lookups hit
// present keys often.
constexpr uint64_t kKeySpace = 4096;

// A key in [1, kKeySpace) whose probe starts at `slot`, scanning from a
// random start; nullopt if the key space has none.
std::optional<uint64_t> KeyWithHome(const Map& map, size_t slot, Rng* rng) {
  const uint64_t start = 1 + rng->NextBounded(kKeySpace - 1);
  for (uint64_t i = 0; i < kKeySpace - 1; ++i) {
    const uint64_t key = 1 + (start - 1 + i) % (kKeySpace - 1);
    if (map.HomeSlot(key) == slot) return key;
  }
  return std::nullopt;
}

void ExpectSameContents(const Map& map,
                        const std::unordered_map<uint64_t, uint64_t>& model) {
  ASSERT_EQ(map.size(), model.size());
  ASSERT_EQ(map.empty(), model.empty());
  for (const auto& [key, value] : model) {
    auto it = map.find(key);
    ASSERT_NE(it, map.end()) << "key " << key << " lost";
    ASSERT_EQ(it->second, value) << "key " << key;
  }
  size_t iterated = 0;
  for (const auto& [key, value] : map) {
    auto it = model.find(key);
    ASSERT_NE(it, model.end()) << "key " << key << " was never inserted";
    ASSERT_EQ(value, it->second);
    iterated++;
  }
  ASSERT_EQ(iterated, model.size());
}

class FlatMapDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatMapDifferentialTest, MatchesUnorderedMap) {
  Rng rng(GetParam());
  Map map;
  std::unordered_map<uint64_t, uint64_t> model;
  constexpr int kSteps = 30000;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    uint64_t key = 1 + rng.NextBounded(kKeySpace - 1);
    if (map.capacity() > 0 && rng.NextBounded(2) == 0) {
      // Aim at a home slot: a quarter of the time the last one, whose probe
      // run continues at slot 0.
      const size_t slot = rng.NextBounded(4) == 0
                              ? map.capacity() - 1
                              : rng.NextBounded(map.capacity());
      if (std::optional<uint64_t> aimed = KeyWithHome(map, slot, &rng)) {
        key = *aimed;
      }
    }
    const uint64_t value = rng.NextU64();
    const uint64_t op = rng.NextBounded(1000);
    if (op < 350) {
      auto [it, inserted] = map.emplace(key, value);
      auto [mit, minserted] = model.emplace(key, value);
      ASSERT_EQ(inserted, minserted);
      ASSERT_EQ(it->first, key);
      ASSERT_EQ(it->second, mit->second);
    } else if (op < 500) {
      map[key] += value;
      model[key] += value;
    } else if (op < 800) {
      ASSERT_EQ(map.erase(key), model.erase(key));
    } else if (op < 997) {
      auto it = map.find(key);
      auto mit = model.find(key);
      ASSERT_EQ(it == map.end(), mit == model.end());
      ASSERT_EQ(map.contains(key), mit != model.end());
      if (mit != model.end()) {
        ASSERT_EQ(it->second, mit->second);
      }
    } else {
      map.clear();
      model.clear();
    }
    ASSERT_FALSE(map.contains(0));  // the sentinel is never a key
    if (step % 101 == 0 || step == kSteps - 1) {
      ExpectSameContents(map, model);
    }
  }
}

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "Seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMapDifferentialTest,
                         ::testing::Values(uint64_t{7}, uint64_t{1234},
                                           uint64_t{99991}),
                         SeedName);

TEST(FlatMapTest, EraseAcrossWrapAround) {
  // Fill the last slot's probe run past the end of a 16-slot table, then
  // erase from its head, middle and tail: every survivor must stay
  // reachable from its home slot.
  Map map;
  map.emplace(kKeySpace, 0);  // allocates the table; removed below
  ASSERT_EQ(map.capacity(), 16u);
  const size_t last = map.capacity() - 1;
  std::vector<uint64_t> wrapped;  // home = last slot, stored from it onward
  std::vector<uint64_t> at_zero;  // home = slot 0, pushed behind them
  for (uint64_t key = 1; wrapped.size() < 4 || at_zero.size() < 3; ++key) {
    if (key == kKeySpace) continue;
    if (map.HomeSlot(key) == last && wrapped.size() < 4) wrapped.push_back(key);
    if (map.HomeSlot(key) == 0 && at_zero.size() < 3) at_zero.push_back(key);
  }
  ASSERT_EQ(map.erase(kKeySpace), 1u);
  std::unordered_map<uint64_t, uint64_t> model;
  for (uint64_t key : wrapped) {
    map.emplace(key, key * 10);
    model.emplace(key, key * 10);
  }
  for (uint64_t key : at_zero) {
    map.emplace(key, key * 10);
    model.emplace(key, key * 10);
  }
  ASSERT_EQ(map.capacity(), 16u);  // 7 entries: no growth
  ExpectSameContents(map, model);
  for (uint64_t key : {wrapped[0], at_zero[1], wrapped[3], at_zero[0],
                       wrapped[1], at_zero[2], wrapped[2]}) {
    SCOPED_TRACE("erase " + std::to_string(key));
    ASSERT_EQ(map.erase(key), 1u);
    model.erase(key);
    ExpectSameContents(map, model);
  }
  EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, EraseReleasesValuesAndClearKeepsTable) {
  FlatMap<uint64_t, std::shared_ptr<int>> map;
  auto owned = std::make_shared<int>(5);
  for (uint64_t key = 1; key <= 40; ++key) map.emplace(key, owned);
  EXPECT_EQ(owned.use_count(), 41);
  for (uint64_t key = 1; key <= 20; ++key) EXPECT_EQ(map.erase(key), 1u);
  EXPECT_EQ(map.erase(1), 0u);
  EXPECT_EQ(owned.use_count(), 21);  // backward shift leaves no copies behind
  auto it = map.find(21);
  ASSERT_NE(it, map.end());
  map.erase(it);
  EXPECT_EQ(owned.use_count(), 20);
  const size_t capacity = map.capacity();
  map.clear();
  EXPECT_EQ(owned.use_count(), 1);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.begin(), map.end());
}

TEST(FlatMapTest, CustomEmptyKeyAdmitsZero) {
  constexpr uint64_t kNone = ~uint64_t{0};
  FlatMap<uint64_t, int, kNone> map;
  EXPECT_EQ(map.find(0), map.end());
  map[0] = 3;  // page 0 is a real key when the sentinel is ~0
  EXPECT_TRUE(map.contains(0));
  EXPECT_EQ(map.find(0)->second, 3);
  EXPECT_FALSE(map.contains(kNone));
  EXPECT_EQ(map.erase(kNone), 0u);
}

}  // namespace
}  // namespace cobra
