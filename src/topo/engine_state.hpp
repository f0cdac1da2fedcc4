// Engine-state synthesis shared by both world backends.
//
// The generator (topo/generator.cpp) and the procedural derivation
// (topo/procedural.cpp) draw a device's MACs, engine ID and reboot history
// through these functions: the same rates (the calibration that reproduces
// the paper's figures) in the same draw order, each backend feeding its own
// Rng.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "net/mac.hpp"
#include "snmp/engine_id.hpp"
#include "topo/world.hpp"
#include "util/rng.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::topo {

// A MAC in one of `ouis` (the vendor's registered blocks, from
// net::OuiRegistry::ouis_of; empty = Intel-style NICs), or in an OUI absent
// from the registry when `unregistered`.
net::MacAddress vendor_mac(util::Rng& rng, std::span<const std::uint32_t> ouis,
                           bool unregistered);

// The paper's Cisco constant-engine-ID bug value (§4.3).
const snmp::EngineId& constant_bug_engine_id();

// A non-conforming engine ID of `len` (at most 12) raw bytes whose bits
// are set with probability 0.35: the positively skewed Hamming weights of
// Figure 6's tail.
snmp::EngineId skewed_nonconforming_id(util::Rng& rng, std::size_t len);

// Draws the engine ID of `device` (whose interfaces are set) from its
// vendor's format policy. The text format carries the device's FQDN,
// `host`.`domain`, built only when that format is drawn.
snmp::EngineId synthesize_engine_id(util::Rng& rng, const Device& device,
                                    const VendorProfile& vendor,
                                    std::string_view host,
                                    std::string_view domain);

// Draws a reboot history for a mean time between reboots of `mtbr_days`:
// the last reboot before the epoch, then forward reboots up to `horizon`,
// appended to `reboots`. Returns the engineBoots count before the first.
std::uint32_t synthesize_reboot_history(util::Rng& rng, double mtbr_days,
                                        util::VTime horizon,
                                        std::vector<util::VTime>& reboots);

}  // namespace snmpv3fp::topo
