// Ground-truth anchor: an FNV-1a hash over every field of a World — the
// AS table, every device scalar, interface, reboot time, engine ID,
// backend engine and USM field, the churn cursors and the address counts
// per family — must reproduce the values committed below.
//
// The pipeline's GoldenDigest sees only what the scans observe; it never
// reads PTR names, USM fields or the clocks of devices that do not answer.
// These constants pin the whole world, so a change to the world's storage
// or to the generator's draws that shifts any bit fails here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <utility>

#include "topo/generator.hpp"
#include "topo/procedural.hpp"

namespace snmpv3fp::topo {
namespace {

class Fnv1a {
 public:
  void bytes(const std::uint8_t* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      const auto byte = static_cast<std::uint8_t>(value >> (8 * i));
      bytes(&byte, 1);
    }
  }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(std::string_view text) {
    u64(text.size());
    bytes(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  }
  void raw(const util::Bytes& data) {
    u64(data.size());
    bytes(data.data(), data.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void hash_interface(Fnv1a& h, const World& world, const Interface& itf) {
  h.bytes(itf.mac.bytes().data(), itf.mac.bytes().size());
  h.u64(itf.v4.has_value());
  if (itf.v4) h.u64(itf.v4->value());
  h.u64(itf.v6.has_value());
  if (itf.v6) h.bytes(itf.v6->bytes().data(), itf.v6->bytes().size());
  h.str(world.ptr_name(itf));
}

void hash_device(Fnv1a& h, const World& world, const Device& device) {
  h.u64(device.index);
  h.u64(static_cast<std::uint64_t>(device.kind));
  h.str(device.vendor != nullptr ? std::string_view(device.vendor->name)
                                 : std::string_view());
  h.u64(device.as_index);
  h.u64(device.snmpv3_enabled);
  h.u64(device.snmpv2_enabled);
  h.str(device.usm != nullptr ? device.usm->name : "");
  h.str(device.usm != nullptr ? device.usm->auth_password : "");
  h.str(device.usm != nullptr ? device.usm->priv_password : "");
  h.raw(device.engine_id.raw());
  h.u64(device.empty_engine_id_bug);
  h.u64(device.zero_time_bug);
  h.u64(device.future_time_bug);
  h.f64(device.clock_skew_ppm);
  h.f64(device.time_jitter_s);
  h.u64(device.reboots.size());
  for (const util::VTime t : device.reboots)
    h.u64(static_cast<std::uint64_t>(t));
  h.u64(device.boots_before_history);
  h.u64(static_cast<std::uint64_t>(device.amplification));
  h.u64(device.backend_engines.size());
  for (const auto& engine : device.backend_engines) h.raw(engine.raw());
  h.u64(device.answers_whole_v6_prefix);
  h.u64(device.churns);
  h.u64(device.itdk_eligible);
  h.u64(static_cast<std::uint64_t>(device.ipid_policy));
  h.u64(device.initial_ttl);
  h.u64(device.tcp_open);
  h.u64(device.interfaces.size());
  for (const auto& itf : device.interfaces) hash_interface(h, world, itf);
}

std::uint64_t world_digest(const World& world) {
  Fnv1a h;
  h.u64(world.ases.size());
  for (const auto& as : world.ases) {
    h.u64(as.asn);
    h.str(as.region);
    h.u64(as.v4_prefix.base().value());
    h.u64(static_cast<std::uint64_t>(as.v4_prefix.length()));
    h.u64(as.v6_prefix[0]);
    h.u64(as.v6_prefix[1]);
    h.str(as.domain);
    h.u64(static_cast<std::uint64_t>(as.naming_scheme));
    h.u64(as.devices.size());
    for (const DeviceIndex device : as.devices) h.u64(device);
  }
  h.u64(world.v4_cursor.size());
  for (const std::uint64_t cursor : world.v4_cursor) h.u64(cursor);
  h.u64(world.devices.size());
  for (const auto& device : world.devices) hash_device(h, world, device);
  h.u64(world.address_count(net::Family::kIpv4));
  h.u64(world.address_count(net::Family::kIpv6));
  return h.value();
}

// Computed by world_digest over the representation that predates the flat
// world (per-device vectors and strings); the flat layout must keep them.
constexpr std::uint64_t kTinyDigest = 0xc5326228f5390a03ull;
constexpr std::uint64_t kRouterFocusDigest = 0x4e33217a32f8437eull;
constexpr std::uint64_t kFullInternetDigest = 0x15ca12c9652517a3ull;
constexpr std::uint64_t kProceduralTinyDigest = 0x7f2d15b1b7a9d2d2ull;

TEST(WorldDigest, Tiny) {
  EXPECT_EQ(world_digest(generate_world(WorldConfig::tiny())), kTinyDigest);
}

TEST(WorldDigest, RouterFocus) {
  EXPECT_EQ(world_digest(generate_world(WorldConfig::router_focus())),
            kRouterFocusDigest);
}

TEST(WorldDigest, FullInternet) {
  EXPECT_EQ(world_digest(generate_world(WorldConfig::full_internet())),
            kFullInternetDigest);
}

TEST(WorldDigest, ProceduralTinyMaterialized) {
  const ProceduralWorld procedural(ProceduralConfig::tiny());
  EXPECT_EQ(world_digest(procedural.materialize()), kProceduralTinyDigest);
}

// A copy must view its own arrays, and a move must keep the arrays it
// takes over: both hash equal to the original, and the copy outlives the
// original it was taken from.
TEST(WorldDigest, CopyAndMoveKeepTheDigest) {
  World original = generate_world(WorldConfig::tiny());
  const std::uint64_t digest = world_digest(original);

  World copied = original;
  World assigned;
  assigned = copied;
  EXPECT_EQ(world_digest(copied), digest);
  EXPECT_EQ(world_digest(assigned), digest);

  World moved = std::move(original);
  EXPECT_EQ(world_digest(moved), digest);
  World move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(world_digest(move_assigned), digest);

  {
    const World source = generate_world(WorldConfig::tiny());
    copied = source;
  }
  EXPECT_EQ(world_digest(copied), digest);
  EXPECT_EQ(world_digest(assigned), digest);
}

}  // namespace
}  // namespace snmpv3fp::topo
