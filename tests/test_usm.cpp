#include <gtest/gtest.h>

#include "snmp/usm.hpp"
#include "util/digest.hpp"

namespace snmpv3fp {
namespace {

using util::Bytes;
using util::ByteView;

std::string hex(ByteView data) { return util::to_hex(data); }

ByteView view(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------------------
// MD5 — RFC 1321 appendix A.5 test suite
// ---------------------------------------------------------------------------

struct DigestCase {
  const char* input;
  const char* digest;
};

// Names each vector after its expected digest: gtest's default would print
// the struct's raw bytes, pointers that change from one process to the next.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.digest; }

class Md5Vectors : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Md5Vectors, MatchesRfc1321) {
  const auto digest = util::Md5::hash(view(GetParam().input));
  EXPECT_EQ(hex(digest), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Vectors,
    ::testing::Values(
        DigestCase{"", "d41d8cd98f00b204e9800998ecf8427e"},
        DigestCase{"a", "0cc175b9c0f1b6a831c399e269772661"},
        DigestCase{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        DigestCase{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        DigestCase{"abcdefghijklmnopqrstuvwxyz",
                   "c3fcd3d76192e4007dfb496cca67e13b"},
        DigestCase{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz01234"
                   "56789",
                   "d174ab98d277d9f5a5611c2c9f419d9f"},
        DigestCase{"1234567890123456789012345678901234567890123456789012345678"
                   "9012345678901234567890",
                   "57edf4a22be3c955ac49da2e2107b67a"}));

// ---------------------------------------------------------------------------
// SHA-1 — RFC 3174 / FIPS 180 vectors
// ---------------------------------------------------------------------------

class Sha1Vectors : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Sha1Vectors, MatchesFips180) {
  const auto digest = util::Sha1::hash(view(GetParam().input));
  EXPECT_EQ(hex(digest), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha1Vectors,
    ::testing::Values(
        DigestCase{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        DigestCase{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        DigestCase{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   "84983e441c3bd26ebaae4aa1f95129e5e54670f1"}));

TEST(Sha1, MillionAs) {
  util::Sha1 sha;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.update(chunk);
  EXPECT_EQ(hex(sha.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Md5, StreamingMatchesOneShot) {
  // Feed in awkward chunk sizes across block boundaries.
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  util::Md5 streaming;
  std::size_t offset = 0;
  for (const std::size_t chunk : {1u, 63u, 64u, 65u, 500u, 307u}) {
    streaming.update(ByteView(data).subspan(offset, chunk));
    offset += chunk;
  }
  streaming.update(ByteView(data).subspan(offset));
  EXPECT_EQ(streaming.finish(), util::Md5::hash(data));
}

// ---------------------------------------------------------------------------
// HMAC — RFC 2202 vectors
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc2202Md5) {
  const Bytes key(16, 0x0b);
  EXPECT_EQ(hex(util::hmac_md5(key, view("Hi There"))),
            "9294727a3638bb1c13f48ef8158bfc9d");
  EXPECT_EQ(hex(util::hmac_md5(view("Jefe"),
                               view("what do ya want for nothing?"))),
            "750c783e6ab0b503eaa86e310a5db738");
  const Bytes long_key(80, 0xaa);
  EXPECT_EQ(hex(util::hmac_md5(
                long_key,
                view("Test Using Larger Than Block-Size Key - Hash Key "
                     "First"))),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

TEST(Hmac, Rfc2202Sha1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex(util::hmac_sha1(key, view("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
  EXPECT_EQ(hex(util::hmac_sha1(view("Jefe"),
                                view("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

// ---------------------------------------------------------------------------
// RFC 3414 appendix A key derivation vectors
// ---------------------------------------------------------------------------

snmp::EngineId rfc3414_engine_id() {
  // A.3: engineID 000000000000000000000002 (12 bytes).
  Bytes raw(12, 0x00);
  raw.back() = 0x02;
  return snmp::EngineId(raw);
}

TEST(Usm, Rfc3414Md5KeyDerivation) {
  const auto ku =
      snmp::password_to_key(snmp::AuthProtocol::kHmacMd5_96, "maplesyrup");
  EXPECT_EQ(hex(ku), "9faf3283884e92834ebc9847d8edd963");
  const auto localized = snmp::localize_key(snmp::AuthProtocol::kHmacMd5_96,
                                            ku, rfc3414_engine_id());
  EXPECT_EQ(hex(localized), "526f5eed9fcce26f8964c2930787d82b");
}

TEST(Usm, Rfc3414Sha1KeyDerivation) {
  const auto ku =
      snmp::password_to_key(snmp::AuthProtocol::kHmacSha1_96, "maplesyrup");
  EXPECT_EQ(hex(ku), "9fb5cc0381497b3793528939ff788d5d79145211");
  const auto localized = snmp::localize_key(snmp::AuthProtocol::kHmacSha1_96,
                                            ku, rfc3414_engine_id());
  EXPECT_EQ(hex(localized), "6695febc9288e36282235fc7151f128497b38f3f");
}

TEST(Usm, DifferentEngineIdsLocalizeDifferently) {
  const auto ku =
      snmp::password_to_key(snmp::AuthProtocol::kHmacSha1_96, "maplesyrup");
  const auto other = snmp::EngineId::make_mac(
      9, net::MacAddress::from_oui(0x00000c, 0x123456));
  EXPECT_NE(snmp::localize_key(snmp::AuthProtocol::kHmacSha1_96, ku,
                               rfc3414_engine_id()),
            snmp::localize_key(snmp::AuthProtocol::kHmacSha1_96, ku, other));
}

// ---------------------------------------------------------------------------
// Message authentication + offline brute force
// ---------------------------------------------------------------------------

snmp::V3Message make_management_request(const snmp::EngineId& engine_id) {
  auto message = snmp::make_discovery_request(6100, 6200);
  message.usm.authoritative_engine_id = engine_id;
  message.usm.engine_boots = 148;
  message.usm.engine_time = 10043812;
  message.usm.user_name = "netops";
  message.scoped_pdu.context_engine_id = engine_id.raw();
  message.scoped_pdu.pdu.bindings = {
      {snmp::kOidSysDescr, snmp::VarValue::null()}};
  return message;
}

class UsmAuth : public ::testing::TestWithParam<snmp::AuthProtocol> {};

TEST_P(UsmAuth, SignVerifyRoundTrip) {
  const auto engine_id = snmp::EngineId::make_mac(
      9, net::MacAddress::from_oui(0x00000c, 0x31db80));
  const auto key =
      snmp::derive_localized_key(GetParam(), "s3cr3t-pw", engine_id);
  const auto signed_message = snmp::authenticate(
      GetParam(), key, make_management_request(engine_id));
  EXPECT_EQ(signed_message.usm.authentication_parameters.size(),
            snmp::kAuthParamsLength);
  EXPECT_TRUE(signed_message.header.msg_flags & snmp::kFlagAuth);
  EXPECT_TRUE(snmp::verify_authentication(GetParam(), key, signed_message));

  // Any bit flip in the scoped PDU invalidates the MAC.
  auto tampered = signed_message;
  tampered.scoped_pdu.pdu.request_id ^= 1;
  EXPECT_FALSE(snmp::verify_authentication(GetParam(), key, tampered));

  // Wrong key fails.
  const auto wrong =
      snmp::derive_localized_key(GetParam(), "other-pw", engine_id);
  EXPECT_FALSE(snmp::verify_authentication(GetParam(), wrong, signed_message));
}

TEST_P(UsmAuth, SignedMessageSurvivesWireRoundTrip) {
  const auto engine_id = snmp::EngineId::make_netsnmp(0xabcdef);
  const auto key = snmp::derive_localized_key(GetParam(), "pw", engine_id);
  const auto signed_message =
      snmp::authenticate(GetParam(), key, make_management_request(engine_id));
  const auto decoded = snmp::V3Message::decode(signed_message.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(snmp::verify_authentication(GetParam(), key, decoded.value()));
}

INSTANTIATE_TEST_SUITE_P(Protocols, UsmAuth,
                         ::testing::Values(snmp::AuthProtocol::kHmacMd5_96,
                                           snmp::AuthProtocol::kHmacSha1_96));

TEST(Usm, BruteForceRecoversWeakPassword) {
  // The attack of paper §8 / Thomas 2021: engine ID (leaked via discovery)
  // + one captured authenticated packet = offline dictionary attack.
  const auto engine_id = snmp::EngineId::make_mac(
      9, net::MacAddress::from_oui(0x00000c, 0x31db80));
  const auto key = snmp::derive_localized_key(snmp::AuthProtocol::kHmacSha1_96,
                                              "winter2021", engine_id);
  const auto captured = snmp::authenticate(
      snmp::AuthProtocol::kHmacSha1_96, key, make_management_request(engine_id));

  const std::vector<std::string> dictionary = {
      "admin", "password", "letmein", "winter2021", "cisco123"};
  const auto recovered = snmp::brute_force_password(
      snmp::AuthProtocol::kHmacSha1_96, captured, dictionary);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, "winter2021");

  const std::vector<std::string> wrong = {"admin", "password"};
  EXPECT_FALSE(snmp::brute_force_password(snmp::AuthProtocol::kHmacSha1_96,
                                          captured, wrong)
                   .has_value());
}

TEST(Usm, ProtocolNames) {
  EXPECT_EQ(snmp::to_string(snmp::AuthProtocol::kHmacMd5_96), "HMAC-MD5-96");
  EXPECT_EQ(snmp::to_string(snmp::AuthProtocol::kHmacSha1_96), "HMAC-SHA1-96");
}

}  // namespace
}  // namespace snmpv3fp
