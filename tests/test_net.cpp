#include <gtest/gtest.h>

#include "net/as_table.hpp"
#include "net/ip.hpp"
#include "net/mac.hpp"
#include "net/registry.hpp"

namespace snmpv3fp::net {
namespace {

// ---------------------------------------------------------------------------
// IPv4
// ---------------------------------------------------------------------------

TEST(Ipv4, ParseFormatRoundTrip) {
  const auto addr = Ipv4::parse("192.0.2.1");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().to_string(), "192.0.2.1");
  EXPECT_EQ(addr.value().value(), 0xc0000201u);
  EXPECT_EQ(Ipv4(10, 0, 0, 1).to_string(), "10.0.0.1");
}

TEST(Ipv4, ParseRejectsBadInput) {
  for (const char* bad : {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d",
                          "1..2.3", "1.2.3.4 ", "01x.2.3.4"}) {
    EXPECT_FALSE(Ipv4::parse(bad).ok()) << bad;
  }
}

TEST(Ipv4, BytesRoundTrip) {
  const Ipv4 addr(203, 0, 113, 77);
  const auto bytes = addr.to_bytes();
  ASSERT_EQ(bytes.size(), 4u);
  const auto back = Ipv4::from_bytes(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), addr);
}

struct RoutabilityCase {
  const char* address;
  bool routable;
};

// Names each case after its address: gtest's default would print the
// struct's raw bytes, a pointer that changes from one process to the next.
void PrintTo(const RoutabilityCase& c, std::ostream* os) { *os << c.address; }

class Ipv4Routability : public ::testing::TestWithParam<RoutabilityCase> {};

TEST_P(Ipv4Routability, Classification) {
  const auto addr = Ipv4::parse(GetParam().address);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().is_routable(), GetParam().routable)
      << GetParam().address;
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, Ipv4Routability,
    ::testing::Values(RoutabilityCase{"8.8.8.8", true},
                      RoutabilityCase{"203.0.114.1", true},
                      RoutabilityCase{"10.1.2.3", false},
                      RoutabilityCase{"172.16.0.1", false},
                      RoutabilityCase{"172.32.0.1", true},
                      RoutabilityCase{"192.168.255.1", false},
                      RoutabilityCase{"192.169.0.1", true},
                      RoutabilityCase{"127.0.0.1", false},
                      RoutabilityCase{"169.254.1.1", false},
                      RoutabilityCase{"169.253.1.1", true},
                      RoutabilityCase{"224.0.0.1", false},
                      RoutabilityCase{"240.0.0.1", false},
                      RoutabilityCase{"255.255.255.255", false},
                      RoutabilityCase{"0.1.2.3", false},
                      RoutabilityCase{"100.64.0.1", false},
                      RoutabilityCase{"100.128.0.1", true},
                      RoutabilityCase{"192.0.2.55", false},
                      RoutabilityCase{"198.18.0.1", false}));

// ---------------------------------------------------------------------------
// IPv6
// ---------------------------------------------------------------------------

TEST(Ipv6, ParseFull) {
  const auto addr = Ipv6::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value().to_string(), "2001:db8::1");
}

struct V6Case {
  const char* input;
  const char* canonical;
};

void PrintTo(const V6Case& c, std::ostream* os) { *os << c.input; }

class Ipv6Canonical : public ::testing::TestWithParam<V6Case> {};

TEST_P(Ipv6Canonical, RFC5952) {
  const auto addr = Ipv6::parse(GetParam().input);
  ASSERT_TRUE(addr.ok()) << GetParam().input;
  EXPECT_EQ(addr.value().to_string(), GetParam().canonical);
  // Re-parse the canonical form: must be the same address.
  const auto again = Ipv6::parse(addr.value().to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), addr.value());
}

INSTANTIATE_TEST_SUITE_P(
    Forms, Ipv6Canonical,
    ::testing::Values(V6Case{"::", "::"}, V6Case{"::1", "::1"},
                      V6Case{"2001:db8::", "2001:db8::"},
                      V6Case{"2001:db8::1:0:0:1", "2001:db8::1:0:0:1"},
                      V6Case{"2001:0:0:1::1", "2001:0:0:1::1"},
                      V6Case{"fe80:0:0:0:0:0:0:7", "fe80::7"},
                      V6Case{"1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8"},
                      V6Case{"0:0:1:0:0:0:1:0", "0:0:1::1:0"}));

TEST(Ipv6, ParseRejectsBadInput) {
  for (const char* bad :
       {"", ":::", "1:2:3", "1:2:3:4:5:6:7:8:9", "2001::db8::1", "g::1",
        "12345::", "1:"}) {
    EXPECT_FALSE(Ipv6::parse(bad).ok()) << bad;
  }
}

TEST(Ipv6, Routability) {
  EXPECT_TRUE(Ipv6::parse("2001:db8::1").value().is_routable());
  EXPECT_FALSE(Ipv6::parse("::").value().is_routable());
  EXPECT_FALSE(Ipv6::parse("::1").value().is_routable());
  EXPECT_FALSE(Ipv6::parse("fe80::1").value().is_routable());
  EXPECT_FALSE(Ipv6::parse("fc00::1").value().is_routable());
  EXPECT_FALSE(Ipv6::parse("fd12::1").value().is_routable());
  EXPECT_FALSE(Ipv6::parse("ff02::1").value().is_routable());
}

TEST(Ipv6, HalvesRoundTripAndOrderLikeBytes) {
  const auto a = Ipv6::parse("2001:db8:1:2:ff00::7").value();
  EXPECT_EQ(a.high64(), 0x20010db800010002ull);
  EXPECT_EQ(a.low64(), 0xff00000000000007ull);
  EXPECT_EQ(Ipv6::from_halves(a.high64(), a.low64()), a);
  const auto b = Ipv6::parse("2001:db8:1:2:ff01::").value();
  const auto c = Ipv6::parse("2001:db8:1:3::").value();
  EXPECT_LT(a, b);
  EXPECT_LT(a.low64(), b.low64());
  EXPECT_LT(b, c);
  EXPECT_LT(b.high64(), c.high64());
  EXPECT_EQ(Ipv6::from_halves(0, 0), Ipv6());
}

TEST(IpAddress, MixedOrderingAndHash) {
  const IpAddress v4 = Ipv4(1, 2, 3, 4);
  const IpAddress v6 = Ipv6::parse("::1").value();
  EXPECT_LT(v4, v6);  // all v4 sort before all v6
  EXPECT_TRUE(v4.is_v4());
  EXPECT_TRUE(v6.is_v6());
  const auto parsed = IpAddress::parse("2001:db8::5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().is_v6());
  std::hash<IpAddress> hasher;
  EXPECT_NE(hasher(v4), hasher(v6));
  EXPECT_EQ(hasher(v4), hasher(IpAddress(Ipv4(1, 2, 3, 4))));
}

TEST(Prefix4, ContainsAndAt) {
  const auto prefix = Prefix4::parse("10.20.0.0/16");
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix.value().size(), 65536u);
  EXPECT_TRUE(prefix.value().contains(Ipv4(10, 20, 255, 255)));
  EXPECT_FALSE(prefix.value().contains(Ipv4(10, 21, 0, 0)));
  EXPECT_EQ(prefix.value().at(257).to_string(), "10.20.1.1");
  EXPECT_EQ(prefix.value().to_string(), "10.20.0.0/16");
}

TEST(Prefix4, CanonicalizesHostBits) {
  const Prefix4 prefix(Ipv4(10, 20, 30, 40), 16);
  EXPECT_EQ(prefix.base().to_string(), "10.20.0.0");
}

TEST(Prefix4, ParseRejectsBadInput) {
  EXPECT_FALSE(Prefix4::parse("10.0.0.0").ok());
  EXPECT_FALSE(Prefix4::parse("10.0.0.0/33").ok());
  EXPECT_FALSE(Prefix4::parse("10.0.0.0/x").ok());
}

// ---------------------------------------------------------------------------
// MAC + registries
// ---------------------------------------------------------------------------

TEST(Mac, ParseFormatOui) {
  const auto mac = MacAddress::parse("74:8e:f8:31:db:80");
  ASSERT_TRUE(mac.ok());
  EXPECT_EQ(mac.value().to_string(), "74:8e:f8:31:db:80");
  EXPECT_EQ(mac.value().oui(), 0x748ef8u);
  EXPECT_EQ(mac.value().nic(), 0x31db80u);
  EXPECT_FALSE(mac.value().is_multicast());
  EXPECT_FALSE(mac.value().is_locally_administered());
}

TEST(Mac, FromOui) {
  const auto mac = MacAddress::from_oui(0x00000c, 0xabcdef);
  EXPECT_EQ(mac.to_string(), "00:00:0c:ab:cd:ef");
  EXPECT_TRUE(MacAddress::parse("02:00:00:00:00:01").value()
                  .is_locally_administered());
  EXPECT_TRUE(MacAddress::parse("01:00:5e:00:00:01").value().is_multicast());
}

TEST(OuiRegistry, PaperBrocadeExample) {
  // Figure 3 of the paper: 74:8e:f8 = Brocade Communications Systems.
  const auto vendor = OuiRegistry::embedded().vendor_of(0x748ef8);
  ASSERT_TRUE(vendor.has_value());
  EXPECT_EQ(*vendor, "Brocade");
}

TEST(OuiRegistry, KnownAndUnknown) {
  const auto& registry = OuiRegistry::embedded();
  EXPECT_EQ(registry.vendor_of(0x00000c).value_or(""), "Cisco");
  EXPECT_EQ(registry.vendor_of(0x00e0fc).value_or(""), "Huawei");
  EXPECT_EQ(registry.vendor_of(0x000000).value_or(""), "Xerox");
  EXPECT_FALSE(registry.vendor_of(0xdeadbe).has_value());
  EXPECT_GE(registry.ouis_of("Cisco").size(), 4u);
  EXPECT_TRUE(registry.ouis_of("NoSuchVendor").empty());
}

TEST(EnterpriseRegistry, WellKnownNumbers) {
  const auto& registry = EnterpriseRegistry::embedded();
  EXPECT_EQ(registry.vendor_of(9).value_or(""), "Cisco");
  EXPECT_EQ(registry.vendor_of(2636).value_or(""), "Juniper");
  EXPECT_EQ(registry.vendor_of(8072).value_or(""), "Net-SNMP");
  EXPECT_FALSE(registry.vendor_of(4242424).has_value());
  EXPECT_EQ(registry.pen_of("Huawei").value_or(0), 2011u);
  EXPECT_FALSE(registry.pen_of("NoSuchVendor").has_value());
}

// ---------------------------------------------------------------------------
// AS table
// ---------------------------------------------------------------------------

TEST(AsTable, LookupBothFamilies) {
  AsTable table;
  table.add_v4(Prefix4(Ipv4(64, 1, 0, 0), 16), {64512, "NA"});
  table.add_v4(Prefix4(Ipv4(128, 0, 0, 0), 16), {64513, "EU"});
  table.add_v6({0x2001, 0x1234}, {64513, "EU"});

  const auto na = table.lookup(IpAddress(Ipv4(64, 1, 200, 3)));
  ASSERT_TRUE(na.has_value());
  EXPECT_EQ(na->asn, 64512u);
  EXPECT_EQ(na->region, "NA");

  EXPECT_FALSE(table.lookup(IpAddress(Ipv4(64, 2, 0, 1))).has_value());
  EXPECT_FALSE(table.lookup(IpAddress(Ipv4(10, 0, 0, 1))).has_value());

  const auto v6 = table.lookup(
      IpAddress(Ipv6::parse("2001:1234::cafe").value()));
  ASSERT_TRUE(v6.has_value());
  EXPECT_EQ(v6->asn, 64513u);
  EXPECT_FALSE(
      table.lookup(IpAddress(Ipv6::parse("2001:9999::1").value())).has_value());
}

}  // namespace
}  // namespace snmpv3fp::net
