#include "sim/mib.hpp"

#include <algorithm>

namespace snmpv3fp::sim {

using asn1::Oid;
using snmp::VarBind;
using snmp::VarValue;

const Oid kOidSysObjectId = {1, 3, 6, 1, 2, 1, 1, 2, 0};
const Oid kOidSysContact = {1, 3, 6, 1, 2, 1, 1, 4, 0};
const Oid kOidSysName = {1, 3, 6, 1, 2, 1, 1, 5, 0};
const Oid kOidSysLocation = {1, 3, 6, 1, 2, 1, 1, 6, 0};
const Oid kOidIfNumber = {1, 3, 6, 1, 2, 1, 2, 1, 0};
const Oid kOidIfTable = {1, 3, 6, 1, 2, 1, 2, 2};

namespace {

Oid if_entry(std::uint32_t column, std::uint32_t index) {
  // ifEntry: 1.3.6.1.2.1.2.2.1.<column>.<ifIndex>
  Oid oid = kOidIfTable;
  oid.push_back(1);
  oid.push_back(column);
  oid.push_back(index);
  return oid;
}

}  // namespace

std::vector<VarBind> build_mib(const topo::Device& device, util::VTime now) {
  std::vector<VarBind> mib;

  const std::string name = device.vendor->name + "-" +
                           std::string(topo::to_string(device.kind)) + "-" +
                           std::to_string(device.index);
  mib.push_back({snmp::kOidSysDescr,
                 VarValue::string(device.vendor->name + " " +
                                  std::string(topo::to_string(device.kind)) +
                                  " (simulated)")});
  mib.push_back({kOidSysObjectId,
                 VarValue{.data = Oid{1, 3, 6, 1, 4, 1,
                                      device.vendor->enterprise_pen, 1}}});
  mib.push_back({snmp::kOidSysUpTime,
                 VarValue::timeticks(device.engine_time_at(now) * 100u)});
  mib.push_back({kOidSysContact, VarValue::string("noc@example.net")});
  mib.push_back({kOidSysName, VarValue::string(name)});
  mib.push_back({kOidSysLocation, VarValue::string("rack-sim")});
  mib.push_back({kOidIfNumber,
                 VarValue::integer(
                     static_cast<std::int64_t>(device.interfaces.size()))});

  // The ifTable one column at a time, each column in ifIndex order (1-based).
  // After the system group above, that is already OID order, which
  // mib_get and mib_next binary-search, so no sort pass is needed.
  const auto add_column = [&](std::uint32_t column, auto value_of) {
    for (std::uint32_t i = 0; i < device.interfaces.size(); ++i)
      mib.push_back({if_entry(column, i + 1), value_of(i)});
  };
  add_column(1, [](std::uint32_t i) {
    return VarValue::integer(static_cast<std::int64_t>(i + 1));
  });
  add_column(2, [](std::uint32_t i) {
    return VarValue::string("eth" + std::to_string(i));
  });
  add_column(6, [&](std::uint32_t i) {  // ifPhysAddress
    return VarValue::octets(device.interfaces[i].mac.to_bytes());
  });
  add_column(8, [](std::uint32_t) {  // ifOperStatus: up(1)
    return VarValue::integer(1);
  });
  return mib;
}

const VarBind* mib_get(const std::vector<VarBind>& mib, const Oid& oid) {
  const auto it =
      std::lower_bound(mib.begin(), mib.end(), oid,
                       [](const VarBind& vb, const Oid& o) { return vb.oid < o; });
  if (it == mib.end() || it->oid != oid) return nullptr;
  return &*it;
}

const VarBind* mib_next(const std::vector<VarBind>& mib, const Oid& oid) {
  const auto it =
      std::upper_bound(mib.begin(), mib.end(), oid,
                       [](const Oid& o, const VarBind& vb) { return o < vb.oid; });
  if (it == mib.end()) return nullptr;
  return &*it;
}

}  // namespace snmpv3fp::sim
