// net::AddressMap, the flat address-keyed map under the world index and
// the prober's per-source records. A randomized differential against
// std::map runs mixed-family insert / overwrite / erase / find sequences
// through several rehashes; the pinned cases cover the probe and
// backward-shift erase paths (cluster head, table wrap-around), the
// all-zero keys that a key-valued empty marker would steal, and the
// IPv4-vs-IPv6 aliasing a family-blind encoding would fall into.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "net/address_map.hpp"
#include "snmp/engine_id.hpp"
#include "util/rng.hpp"

namespace snmpv3fp {
namespace {

using net::AddressMap;
using net::Family;
using net::IpAddress;
using net::Ipv4;
using net::Ipv6;

template <typename V>
std::map<IpAddress, V> contents(const AddressMap<V>& map) {
  std::map<IpAddress, V> out;
  map.for_each([&out](const IpAddress& address, const V& value) {
    EXPECT_TRUE(out.emplace(address, value).second) << address.to_string();
  });
  return out;
}

template <typename V>
void expect_same(const AddressMap<V>& map,
                 const std::map<IpAddress, V>& reference) {
  std::size_t v4 = 0;
  for (const auto& [address, value] : reference) v4 += address.is_v4();
  EXPECT_EQ(map.size(), reference.size());
  EXPECT_EQ(map.size(Family::kIpv4), v4);
  EXPECT_EQ(map.size(Family::kIpv6), reference.size() - v4);
  EXPECT_EQ(contents(map), reference);
}

// A key pool built to collide: sequential IPv4 runs inside one /16, IPv6
// keys whose high half is zero and whose low bits repeat those IPv4
// values, IPv6 keys sharing one /64, and both all-zero addresses.
std::vector<IpAddress> key_pool() {
  std::vector<IpAddress> pool;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    const std::uint32_t v4 = 0x0a000000u + i;
    pool.emplace_back(Ipv4(v4));
    if (i % 2 == 0) pool.emplace_back(Ipv6::from_halves(0, v4));
    if (i % 3 == 0)
      pool.emplace_back(Ipv6::from_halves(0x20010db800000000ull, i));
    if (i % 5 == 0)
      pool.emplace_back(
          Ipv6::from_halves(0x2a02000000000000ull + i, 0x1ull << (i % 64)));
  }
  pool.emplace_back(Ipv4(0u));
  pool.emplace_back(Ipv6());
  return pool;
}

// Runs `steps` random operations against both maps. `grow` biases the mix
// toward inserts (the tables rehash on the way up) or toward erases.
template <typename V, typename MakeValue>
void run_ops(AddressMap<V>& map, std::map<IpAddress, V>& reference,
             const std::vector<IpAddress>& pool, util::Rng& rng, int steps,
             bool grow, const MakeValue& make_value) {
  for (int step = 0; step < steps; ++step) {
    const IpAddress& address = pool[rng.next_below(pool.size())];
    const auto op = rng.next_below(10);
    const auto known = reference.find(address);
    if (op < (grow ? 5u : 2u)) {
      V value = make_value(rng);
      const auto [held, inserted] = map.try_emplace(address, value);
      ASSERT_NE(held, nullptr);
      EXPECT_EQ(inserted, known == reference.end()) << address.to_string();
      if (inserted) reference.emplace(address, value);
      EXPECT_EQ(*held, reference.at(address)) << address.to_string();
    } else if (op < (grow ? 6u : 4u)) {
      V value = make_value(rng);
      *map.try_emplace(address, value).first = value;  // overwrite in place
      reference.insert_or_assign(address, value);
    } else if (op < (grow ? 7u : 8u)) {
      EXPECT_EQ(map.erase(address), reference.erase(address) == 1)
          << address.to_string();
    } else {
      const V* found = map.find(address);
      ASSERT_EQ(found != nullptr, known != reference.end())
          << address.to_string();
      if (found != nullptr) {
        EXPECT_EQ(*found, known->second);
      }
    }
    if (step % 997 == 0) expect_same(map, reference);
  }
  expect_same(map, reference);
}

template <typename V, typename MakeValue>
void differential(std::uint64_t seed, const MakeValue& make_value) {
  const auto pool = key_pool();
  util::Rng rng(seed);
  AddressMap<V> map;
  std::map<IpAddress, V> reference;
  // Up through several doublings, down by erasure, up again.
  run_ops(map, reference, pool, rng, 12000, true, make_value);
  const std::size_t grown = map.capacity(Family::kIpv4);
  EXPECT_GE(grown, 1024u);
  run_ops(map, reference, pool, rng, 15000, false, make_value);
  run_ops(map, reference, pool, rng, 8000, true, make_value);
  // Every key erased leaves a table that finds nothing.
  for (const auto& address : pool) map.erase(address);
  EXPECT_TRUE(map.empty());
  for (const auto& address : pool) EXPECT_EQ(map.find(address), nullptr);
}

TEST(AddressMap, DifferentialAgainstStdMapThroughRehashes) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    differential<std::uint32_t>(seed, [](util::Rng& rng) {
      return static_cast<std::uint32_t>(rng.next());
    });
  }
}

TEST(AddressMap, DifferentialWithHeapOwningValues) {
  // The prober keeps an owning engine ID per source: slots move, shift
  // back on erase and rehash without leaking or double-freeing.
  differential<snmp::EngineId>(4, [](util::Rng& rng) {
    util::Bytes raw(1 + rng.next_below(40));
    for (auto& byte : raw) byte = static_cast<std::uint8_t>(rng.next());
    return snmp::EngineId(std::move(raw));
  });
}

// The first IPv4 addresses (from 10.0.0.0 up) whose home slot in `map`'s
// current IPv4 table is each of `homes`, in order.
std::vector<IpAddress> keys_homed_at(const AddressMap<int>& map,
                                     const std::vector<std::size_t>& homes) {
  std::vector<IpAddress> keys;
  std::uint32_t next = 0x0a000000u;
  for (const std::size_t home : homes) {
    for (;; ++next) {
      const IpAddress candidate{Ipv4(next)};
      bool taken = false;
      for (const auto& key : keys) taken |= key == candidate;
      if (!taken && map.home_slot(candidate) == home) break;
    }
    keys.emplace_back(Ipv4(next++));
  }
  return keys;
}

// The value held for `address`, or -1 when it is missing.
int held(const AddressMap<int>& map, const IpAddress& address) {
  const int* value = map.find(address);
  return value != nullptr ? *value : -1;
}

TEST(AddressMap, EraseOfClusterHeadKeepsTheClusterReachable) {
  AddressMap<int> map;
  map.reserve(Family::kIpv4, 4);
  const std::size_t capacity = map.capacity(Family::kIpv4);
  ASSERT_EQ(capacity, 16u);
  // a and b share home 5, c is homed at 6: they fill slots 5, 6, 7.
  const auto keys = keys_homed_at(map, {5, 5, 6});
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(map.try_emplace(keys[i], i).second);
  ASSERT_EQ(map.capacity(Family::kIpv4), capacity);

  EXPECT_TRUE(map.erase(keys[0]));
  EXPECT_EQ(map.find(keys[0]), nullptr);
  EXPECT_EQ(held(map, keys[1]), 1);
  EXPECT_EQ(held(map, keys[2]), 2);
  // Both shifted back: erasing them in turn finds each, and the table
  // ends empty.
  EXPECT_TRUE(map.erase(keys[1]));
  EXPECT_EQ(held(map, keys[2]), 2);
  EXPECT_TRUE(map.erase(keys[2]));
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.erase(keys[2]));
}

TEST(AddressMap, EraseAcrossTheWrapAround) {
  AddressMap<int> map;
  map.reserve(Family::kIpv4, 4);
  ASSERT_EQ(map.capacity(Family::kIpv4), 16u);
  // e homed at 14, a and b at 15, d at 0: slots 14, 15, 0, 1.
  const auto keys = keys_homed_at(map, {14, 15, 15, 0});
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(map.try_emplace(keys[i], i).second);

  // Erasing e moves nothing: every later entry sits at or past its home.
  EXPECT_TRUE(map.erase(keys[0]));
  for (int i = 1; i < 4; ++i) EXPECT_EQ(held(map, keys[i]), i) << i;
  // Erasing a shifts b from slot 0 back to 15 and d from 1 back to 0.
  EXPECT_TRUE(map.erase(keys[1]));
  EXPECT_EQ(map.find(keys[1]), nullptr);
  EXPECT_EQ(held(map, keys[2]), 2);
  EXPECT_EQ(held(map, keys[3]), 3);
  EXPECT_EQ(map.size(), 2u);
  // A fresh key homed at 0 lands after d and stays reachable.
  const auto more = keys_homed_at(map, {0});
  ASSERT_TRUE(map.try_emplace(more[0], 9).second);
  EXPECT_TRUE(map.erase(keys[3]));
  EXPECT_EQ(held(map, more[0]), 9);
  EXPECT_EQ(held(map, keys[2]), 2);
}

TEST(AddressMap, AllZeroAddressesAreOrdinaryKeys) {
  AddressMap<int> map;
  const IpAddress v4_zero(Ipv4(0u));
  const IpAddress v6_zero{Ipv6()};
  // Empty and freshly sized tables hold zeroed keys in unused slots.
  EXPECT_EQ(map.find(v4_zero), nullptr);
  map.reserve(Family::kIpv4, 100);
  map.reserve(Family::kIpv6, 100);
  EXPECT_EQ(map.find(v4_zero), nullptr);
  EXPECT_EQ(map.find(v6_zero), nullptr);
  EXPECT_FALSE(map.erase(v4_zero));

  EXPECT_TRUE(map.try_emplace(v4_zero, 1).second);
  EXPECT_TRUE(map.try_emplace(v6_zero, 2).second);
  EXPECT_FALSE(map.try_emplace(v4_zero, 3).second);
  EXPECT_EQ(held(map, v4_zero), 1);
  EXPECT_EQ(held(map, v6_zero), 2);
  EXPECT_EQ(map.size(), 2u);

  EXPECT_TRUE(map.erase(v4_zero));
  EXPECT_EQ(map.find(v4_zero), nullptr);
  EXPECT_EQ(held(map, v6_zero), 2);
  expect_same(map, std::map<IpAddress, int>{{v6_zero, 2}});
}

TEST(AddressMap, Ipv6WithZeroHighHalfIsNotItsIpv4LowBits) {
  // 10.0.0.1 and ::10.0.0.1 share their low 32 bits and have nothing above
  // them; only the family keeps them apart.
  AddressMap<int> map;
  const IpAddress v4(Ipv4(10, 0, 0, 1));
  const IpAddress v6(Ipv6::from_halves(0, 0x0a000001u));
  EXPECT_TRUE(map.try_emplace(v4, 4).second);
  EXPECT_EQ(map.find(v6), nullptr);
  EXPECT_TRUE(map.try_emplace(v6, 6).second);
  EXPECT_EQ(held(map, v4), 4);
  EXPECT_EQ(held(map, v6), 6);
  EXPECT_EQ(map.size(Family::kIpv4), 1u);
  EXPECT_EQ(map.size(Family::kIpv6), 1u);
  expect_same(map, std::map<IpAddress, int>{{v4, 4}, {v6, 6}});

  EXPECT_TRUE(map.erase(v4));
  EXPECT_EQ(map.find(v4), nullptr);
  EXPECT_EQ(held(map, v6), 6);
}

TEST(AddressMap, ReserveSizesOnlyTheNamedFamily) {
  AddressMap<int> map;
  map.reserve(Family::kIpv4, 1000);
  EXPECT_GE(map.capacity(Family::kIpv4) * 7, 1000u * 10);
  EXPECT_EQ(map.capacity(Family::kIpv6), 0u);
  // No rehash while the reserved count fits.
  const std::size_t capacity = map.capacity(Family::kIpv4);
  for (std::uint32_t i = 0; i < 1000; ++i)
    map.try_emplace(IpAddress(Ipv4(0x0a000000u + i)), static_cast<int>(i));
  EXPECT_EQ(map.capacity(Family::kIpv4), capacity);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(Family::kIpv4), 0u);
}

}  // namespace
}  // namespace snmpv3fp
