#include "store/engine_dictionary.hpp"

#include "util/rng.hpp"

namespace snmpv3fp::store {

std::uint32_t EngineDictionary::encode(util::ByteView raw) {
  if (slots_.empty()) grow();
  std::uint64_t slot = util::fnv1a64(raw) & mask_;
  for (;;) {
    const std::uint32_t entry = slots_[slot];
    if (entry == 0) break;
    if (util::equal(entries_[entry - 1].raw(), raw)) return entry - 1;
    slot = (slot + 1) & mask_;
  }
  const auto code = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back(util::Bytes(raw.begin(), raw.end()));
  slots_[slot] = code + 1;
  // Keep the table under ~70% load so probe chains stay short.
  if ((entries_.size() + 1) * 10 >= slots_.size() * 7) grow();
  return code;
}

bool EngineDictionary::find(util::ByteView raw, std::uint32_t& code) const {
  if (slots_.empty()) return false;
  std::uint64_t slot = util::fnv1a64(raw) & mask_;
  for (;;) {
    const std::uint32_t entry = slots_[slot];
    if (entry == 0) return false;
    if (util::equal(entries_[entry - 1].raw(), raw)) {
      code = entry - 1;
      return true;
    }
    slot = (slot + 1) & mask_;
  }
}

void EngineDictionary::reserve(std::size_t expected) {
  std::size_t capacity = slots_.empty() ? 64 : slots_.size();
  while ((expected + 1) * 10 >= capacity * 7) capacity *= 2;
  if (capacity > slots_.size()) rebuild(capacity);
}

void EngineDictionary::grow() {
  rebuild(slots_.empty() ? 64 : slots_.size() * 2);
}

void EngineDictionary::rebuild(std::size_t capacity) {
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (std::size_t code = 0; code < entries_.size(); ++code) {
    std::uint64_t slot = util::fnv1a64(entries_[code].raw()) & mask_;
    while (slots_[slot] != 0) slot = (slot + 1) & mask_;
    slots_[slot] = static_cast<std::uint32_t>(code) + 1;
  }
}

}  // namespace snmpv3fp::store
