// Dictionary encoding of engine IDs: distinct engine-ID byte strings ->
// dense u32 codes. The filter funnel (core/columnar.hpp) and the alias
// grouping (core/alias.cpp) intern each joined row's engine IDs here, so
// engine-ID equality becomes a u32 compare and every engine-ID predicate
// runs once per distinct ID rather than once per record. Distinct engine
// IDs number in the thousands while records number in the hundreds of
// millions, which is what keeps the table tiny.
#pragma once

#include <cstdint>
#include <vector>

#include "snmp/engine_id.hpp"
#include "util/bytes.hpp"

namespace snmpv3fp::store {

// Open-addressing table keyed by util::fnv1a64 of the ID bytes; codes are
// assigned in first-appearance order, so they never depend on the hash.
class EngineDictionary {
 public:
  // Code of `raw`, inserting a new entry when unseen. References into
  // `entries()` remain valid (codes are stable, entries only append).
  std::uint32_t encode(util::ByteView raw);
  // Lookup without insertion; returns false when unseen.
  bool find(util::ByteView raw, std::uint32_t& code) const;
  // Pre-size the slot table for `expected` total entries, so a bulk encode
  // pass re-hashes existing entries at most once instead of per doubling.
  void reserve(std::size_t expected);

  const std::vector<snmp::EngineId>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

 private:
  void grow();
  void rebuild(std::size_t capacity);

  std::vector<snmp::EngineId> entries_;
  // Slot table: code + 1 (0 = empty slot), sized to a power of two kept
  // under 70% load.
  std::vector<std::uint32_t> slots_;
  std::uint64_t mask_ = 0;
};

}  // namespace snmpv3fp::store
