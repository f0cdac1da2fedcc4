// A flat hash map keyed by IP address.
//
// The census keys every stage on an address: one device lookup per probe
// in the fabric, one per-source record lookup per response in the prober,
// one index patch per churned lease between epochs. AddressMap serves all
// of them from two open-addressing tables of fixed-width keys — IPv4 as a
// u32, IPv6 as its two big-endian u64 halves — instead of heap nodes over
// the IpAddress variant.
//
// - Capacity is a power of two and the load stays at or below 0.7.
// - Collisions probe linearly; erase shifts the following cluster back,
//   so repeated erase/insert epochs leave no tombstones behind.
// - Slots are placed by a multiplicative mix, not the key itself: world
//   IPv4 addresses run sequentially within each /16.
// - Occupancy is a flag beside the key, never a reserved key value:
//   0.0.0.0 and :: are ordinary keys.
//
// Values must be default-constructible and movable; an empty slot holds a
// default-constructed value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/ip.hpp"

namespace snmpv3fp::net {

template <typename V>
class AddressMap {
 public:
  V* find(const IpAddress& address) {
    return address.is_v4() ? find(address.v4()) : find(address.v6());
  }
  const V* find(const IpAddress& address) const {
    return const_cast<AddressMap*>(this)->find(address);
  }
  V* find(Ipv4 address) { return v4_.find(key_of(address)); }
  V* find(const Ipv6& address) { return v6_.find(key_of(address)); }

  // Inserts `value` unless the address is already present. Returns the
  // held value and whether it was inserted.
  std::pair<V*, bool> try_emplace(const IpAddress& address, V value) {
    return address.is_v4() ? try_emplace(address.v4(), std::move(value))
                           : try_emplace(address.v6(), std::move(value));
  }
  std::pair<V*, bool> try_emplace(Ipv4 address, V value) {
    return v4_.try_emplace(key_of(address), std::move(value));
  }
  std::pair<V*, bool> try_emplace(const Ipv6& address, V value) {
    return v6_.try_emplace(key_of(address), std::move(value));
  }

  // True when the address was present.
  bool erase(const IpAddress& address) {
    return address.is_v4() ? erase(address.v4()) : erase(address.v6());
  }
  bool erase(Ipv4 address) { return v4_.erase(key_of(address)); }
  bool erase(const Ipv6& address) { return v6_.erase(key_of(address)); }

  // Grows the family's table so `count` entries fit without a rehash.
  void reserve(Family family, std::size_t count) {
    family == Family::kIpv4 ? v4_.reserve(count) : v6_.reserve(count);
  }

  // Removes every entry and releases both tables.
  void clear() {
    v4_ = {};
    v6_ = {};
  }

  std::size_t size() const { return v4_.size() + v6_.size(); }
  std::size_t size(Family family) const {
    return family == Family::kIpv4 ? v4_.size() : v6_.size();
  }
  bool empty() const { return size() == 0; }

  // Calls fn(address, value) for every entry: IPv4 before IPv6, each in
  // table order (not address order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    v4_.for_each([&](std::uint32_t key, const V& value) {
      fn(IpAddress(Ipv4(key)), value);
    });
    v6_.for_each([&](const V6Key& key, const V& value) {
      fn(IpAddress(Ipv6::from_halves(key.hi, key.lo)), value);
    });
  }

  // Table introspection, for tests that pin the probe and erase paths:
  // the family table's slot count and the slot the address hashes to.
  std::size_t capacity(Family family) const {
    return family == Family::kIpv4 ? v4_.capacity() : v6_.capacity();
  }
  std::size_t home_slot(const IpAddress& address) const {
    if (capacity(address.family()) == 0) return 0;
    return address.is_v4() ? v4_.home(key_of(address.v4()))
                           : v6_.home(key_of(address.v6()));
  }

 private:
  struct V6Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool operator==(const V6Key&) const = default;
  };

  static std::uint32_t key_of(Ipv4 address) { return address.value(); }
  static V6Key key_of(const Ipv6& address) {
    return {address.high64(), address.low64()};
  }

  // Fibonacci hashing: the top bits of key x 2^64/phi.
  static constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  static std::uint64_t mix(std::uint32_t key) { return key * kMix; }
  static std::uint64_t mix(const V6Key& key) {
    return ((key.hi * 0xbf58476d1ce4e5b9ULL) ^ key.lo) * kMix;
  }

  template <typename Key>
  class Table {
   public:
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    // The key's first probe slot; the table must not be empty.
    std::size_t home(const Key& key) const {
      return static_cast<std::size_t>(mix(key) >> shift_);
    }

    V* find(const Key& key) {
      if (size_ == 0) return nullptr;
      for (std::size_t i = home(key);; i = (i + 1) & mask()) {
        Slot& slot = slots_[i];
        if (!slot.used) return nullptr;
        if (slot.key == key) return &slot.value;
      }
    }

    std::pair<V*, bool> try_emplace(const Key& key, V value) {
      if ((size_ + 1) * 10 > slots_.size() * 7) grow_to(size_ + 1);
      std::size_t i = home(key);
      for (;; i = (i + 1) & mask()) {
        Slot& slot = slots_[i];
        if (!slot.used) break;
        if (slot.key == key) return {&slot.value, false};
      }
      Slot& slot = slots_[i];
      slot.key = key;
      slot.used = true;
      slot.value = std::move(value);
      ++size_;
      return {&slot.value, true};
    }

    // Backward-shift deletion: walk the cluster after the hole and move
    // each entry whose home is not in (hole, its slot] back into the hole,
    // so every remaining key stays reachable from its home.
    bool erase(const Key& key) {
      if (size_ == 0) return false;
      std::size_t hole = home(key);
      for (;; hole = (hole + 1) & mask()) {
        if (!slots_[hole].used) return false;
        if (slots_[hole].key == key) break;
      }
      for (std::size_t next = (hole + 1) & mask(); slots_[next].used;
           next = (next + 1) & mask()) {
        const std::size_t from_home = (next - home(slots_[next].key)) & mask();
        const std::size_t from_hole = (next - hole) & mask();
        if (from_home >= from_hole) {
          slots_[hole] = std::move(slots_[next]);
          hole = next;
        }
      }
      slots_[hole] = Slot{};
      --size_;
      return true;
    }

    void reserve(std::size_t count) {
      if (count * 10 > slots_.size() * 7) grow_to(count);
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (const Slot& slot : slots_)
        if (slot.used) fn(slot.key, slot.value);
    }

   private:
    struct Slot {
      Key key{};
      bool used = false;
      V value{};
    };

    std::size_t mask() const { return slots_.size() - 1; }

    // Rehashes into the smallest power-of-two table (at least 16 slots)
    // that holds `count` entries at load <= 0.7.
    void grow_to(std::size_t count) {
      std::size_t capacity = 16;
      int bits = 4;
      while (count * 10 > capacity * 7) {
        capacity <<= 1;
        ++bits;
      }
      std::vector<Slot> old = std::move(slots_);
      slots_ = std::vector<Slot>(capacity);
      shift_ = 64 - bits;
      for (Slot& slot : old) {
        if (!slot.used) continue;
        std::size_t i = home(slot.key);
        while (slots_[i].used) i = (i + 1) & mask();
        slots_[i] = std::move(slot);
      }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;
  };

  Table<std::uint32_t> v4_;
  Table<V6Key> v6_;
};

}  // namespace snmpv3fp::net
