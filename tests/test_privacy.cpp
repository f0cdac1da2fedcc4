// AES-128 (FIPS 197) / CFB-128 and the RFC 3826 usmAesCfb128Protocol
// privacy path, through to an end-to-end authPriv agent exchange.
#include <gtest/gtest.h>

#include "sim/agent.hpp"
#include "snmp/usm.hpp"
#include "util/aes.hpp"

namespace snmpv3fp {
namespace {

using util::Bytes;
using util::ByteView;

// ---------------------------------------------------------------------------
// AES-128 — FIPS 197 appendix vectors
// ---------------------------------------------------------------------------

TEST(Aes128, Fips197AppendixB) {
  const auto key = util::from_hex("2b7e151628aed2a6abf7158809cf4f3c").value();
  auto block = util::from_hex("3243f6a8885a308d313198a2e0370734").value();
  util::Aes128 cipher{ByteView(key)};
  cipher.encrypt_block(block.data());
  EXPECT_EQ(util::to_hex(block), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128, Fips197AppendixC1) {
  const auto key = util::from_hex("000102030405060708090a0b0c0d0e0f").value();
  auto block = util::from_hex("00112233445566778899aabbccddeeff").value();
  util::Aes128 cipher{ByteView(key)};
  cipher.encrypt_block(block.data());
  EXPECT_EQ(util::to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, CfbNistSp800_38aVector) {
  // NIST SP 800-38A F.3.13 (CFB128-AES128.Encrypt, first segment).
  const auto key = util::from_hex("2b7e151628aed2a6abf7158809cf4f3c").value();
  const auto iv = util::from_hex("000102030405060708090a0b0c0d0e0f").value();
  const auto plaintext =
      util::from_hex("6bc1bee22e409f96e93d7e117393172a").value();
  util::Aes128 cipher{ByteView(key)};
  const auto ciphertext = cipher.cfb_encrypt(iv, plaintext);
  EXPECT_EQ(util::to_hex(ciphertext), "3b3fd92eb72dad20333449f8e83cfb4a");
  EXPECT_EQ(cipher.cfb_decrypt(iv, ciphertext), plaintext);
}

class CfbRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CfbRoundTrip, EncryptDecryptIdentity) {
  util::Rng rng(GetParam() * 7 + 1);
  Bytes key(16), iv(16), plaintext(GetParam());
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.next());
  util::Aes128 cipher{ByteView(key)};
  const auto ciphertext = cipher.cfb_encrypt(iv, plaintext);
  EXPECT_EQ(ciphertext.size(), plaintext.size());  // CFB is length-preserving
  if (!plaintext.empty()) {
    EXPECT_NE(ciphertext, plaintext);
  }
  EXPECT_EQ(cipher.cfb_decrypt(iv, ciphertext), plaintext);
}

// Short, block-aligned and ragged lengths (scoped PDUs are rarely aligned).
INSTANTIATE_TEST_SUITE_P(Lengths, CfbRoundTrip,
                         ::testing::Values(1u, 15u, 16u, 17u, 64u, 100u, 333u));

// ---------------------------------------------------------------------------
// RFC 3826 scoped-PDU privacy
// ---------------------------------------------------------------------------

snmp::V3Message plain_get(const snmp::EngineId& engine_id) {
  auto message = snmp::make_discovery_request(9100, 9200);
  message.usm.authoritative_engine_id = engine_id;
  message.usm.engine_boots = 148;
  message.usm.engine_time = 10043812;
  message.usm.user_name = "netops";
  message.scoped_pdu.context_engine_id = engine_id.raw();
  message.scoped_pdu.pdu.bindings = {
      {snmp::kOidSysDescr, snmp::VarValue::null()}};
  return message;
}

TEST(Privacy, EncryptDecryptRoundTrip) {
  const auto engine_id = snmp::EngineId::make_netsnmp(0xc0ffee);
  const auto priv_key = snmp::derive_privacy_key(
      snmp::AuthProtocol::kHmacSha1_96, "privpass", engine_id);
  EXPECT_EQ(priv_key.size(), 16u);

  const auto encrypted =
      snmp::encrypt_scoped_pdu(priv_key, 0x0123456789abcdefULL,
                               plain_get(engine_id));
  EXPECT_TRUE(encrypted.header.msg_flags & snmp::kFlagPriv);
  EXPECT_EQ(encrypted.usm.privacy_parameters.size(), 8u);
  ASSERT_TRUE(encrypted.encrypted_scoped_pdu.has_value());
  EXPECT_TRUE(encrypted.scoped_pdu.pdu.bindings.empty());

  const auto decrypted = snmp::decrypt_scoped_pdu(priv_key, encrypted);
  ASSERT_TRUE(decrypted.ok()) << decrypted.error();
  ASSERT_EQ(decrypted.value().scoped_pdu.pdu.bindings.size(), 1u);
  EXPECT_EQ(decrypted.value().scoped_pdu.pdu.bindings[0].oid,
            snmp::kOidSysDescr);
  EXPECT_EQ(decrypted.value().scoped_pdu.context_engine_id, engine_id.raw());
}

TEST(Privacy, EncryptedMessageSurvivesWire) {
  const auto engine_id = snmp::EngineId::make_netsnmp(0xc0ffee);
  const auto priv_key = snmp::derive_privacy_key(
      snmp::AuthProtocol::kHmacSha1_96, "privpass", engine_id);
  const auto encrypted =
      snmp::encrypt_scoped_pdu(priv_key, 42, plain_get(engine_id));
  const auto wire = encrypted.encode();
  const auto decoded = snmp::V3Message::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_TRUE(decoded.value().encrypted_scoped_pdu.has_value());
  const auto decrypted = snmp::decrypt_scoped_pdu(priv_key, decoded.value());
  ASSERT_TRUE(decrypted.ok()) << decrypted.error();
  EXPECT_EQ(decrypted.value().scoped_pdu.pdu.request_id, 9200);
}

TEST(Privacy, WrongKeyFailsToParse) {
  const auto engine_id = snmp::EngineId::make_netsnmp(0xc0ffee);
  const auto good = snmp::derive_privacy_key(snmp::AuthProtocol::kHmacSha1_96,
                                             "privpass", engine_id);
  const auto bad = snmp::derive_privacy_key(snmp::AuthProtocol::kHmacSha1_96,
                                            "wrong", engine_id);
  const auto encrypted =
      snmp::encrypt_scoped_pdu(good, 42, plain_get(engine_id));
  EXPECT_FALSE(snmp::decrypt_scoped_pdu(bad, encrypted).ok());
}

TEST(Privacy, CiphertextHidesPlaintextOids) {
  const auto engine_id = snmp::EngineId::make_netsnmp(0xc0ffee);
  const auto key = snmp::derive_privacy_key(snmp::AuthProtocol::kHmacSha1_96,
                                            "privpass", engine_id);
  const auto plain = plain_get(engine_id);
  // The BER encoding of sysDescr's OID appears in the plaintext message...
  const auto oid_wire = asn1::encode_oid(snmp::kOidSysDescr);
  const auto plain_wire = plain.encode();
  const auto contains = [](const Bytes& haystack, const Bytes& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end()) != haystack.end();
  };
  EXPECT_TRUE(contains(plain_wire, oid_wire));
  // ...but not in the encrypted one.
  const auto encrypted = snmp::encrypt_scoped_pdu(key, 42, plain);
  EXPECT_FALSE(contains(encrypted.encode(), oid_wire));
}

// ---------------------------------------------------------------------------
// End-to-end authPriv exchange with an agent
// ---------------------------------------------------------------------------

TEST(Privacy, AgentAnswersAuthPrivGet) {
  topo::OwnedDevice device;
  device.kind = topo::DeviceKind::kRouter;
  device.vendor = &topo::vendor_profile("Cisco");
  topo::Interface itf;
  itf.mac = net::MacAddress::from_oui(0x00000c, 0x42);
  itf.v4 = net::Ipv4(192, 0, 2, 9);
  device.set_interfaces({itf});
  device.snmpv3_enabled = true;
  device.engine_id = snmp::EngineId::make_mac(9, itf.mac);
  device.set_reboots({-util::kDay});
  device.boots_before_history = 1;
  device.set_usm({.name = "netops",
                  .auth_password = "authpass",
                  .priv_password = "privpass"});

  constexpr auto kProto = snmp::AuthProtocol::kHmacSha1_96;
  const auto auth_key =
      snmp::derive_localized_key(kProto, "authpass", device.engine_id);
  const auto priv_key =
      snmp::derive_privacy_key(kProto, "privpass", device.engine_id);

  auto request = plain_get(device.engine_id);
  request = snmp::encrypt_scoped_pdu(priv_key, 777, std::move(request));
  request = snmp::authenticate(kProto, auth_key, std::move(request));

  util::Rng rng(5);
  const auto responses = sim::handle_udp(device, request.encode(), 0, rng);
  ASSERT_EQ(responses.size(), 1u);

  const auto response = snmp::V3Message::decode(responses.front());
  ASSERT_TRUE(response.ok());
  // The response is authenticated AND encrypted.
  EXPECT_TRUE(response.value().header.msg_flags & snmp::kFlagAuth);
  EXPECT_TRUE(response.value().header.msg_flags & snmp::kFlagPriv);
  EXPECT_TRUE(snmp::verify_authentication(kProto, auth_key, response.value()));
  const auto decrypted = snmp::decrypt_scoped_pdu(priv_key, response.value());
  ASSERT_TRUE(decrypted.ok()) << decrypted.error();
  const auto& bindings = decrypted.value().scoped_pdu.pdu.bindings;
  ASSERT_EQ(bindings.size(), 1u);
  EXPECT_NE(bindings[0].value.as_string().value_or("").find("Cisco"),
            std::string::npos);

  // Tampered ciphertext fails authentication before decryption even runs.
  auto tampered = request;
  (*tampered.encrypted_scoped_pdu)[3] ^= 0x40;
  EXPECT_TRUE(sim::handle_udp(device, tampered.encode(), 0, rng).empty());
}

}  // namespace
}  // namespace snmpv3fp
