// Golden-digest anchor: the full Table-1 pipeline at the default seed must
// reproduce the output digest committed in perfbench/golden.json, both in
// RAM and store-backed under a 1 MiB resident cap.
//
// Unlike the path-A == path-B identity suites, this is an absolute anchor:
// a change that shifts every execution path the same way still fails here.
// The digest function is perfbench's own (perfbench/workload.cpp is
// compiled into this target), so the benchmark and tier-1 cannot drift
// apart on what "the output" means.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "unique_dir.hpp"
#include "workload.hpp"

namespace snmpv3fp {
namespace {

std::string golden_digest(std::string_view workload) {
  std::ifstream in(SNMPFP_GOLDEN_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const auto golden = obs::JsonValue::parse(text.str());
  if (!golden) return "unreadable " SNMPFP_GOLDEN_JSON;
  const obs::JsonValue* entry = golden->find(workload);
  const obs::JsonValue* digest = entry ? entry->find("digest") : nullptr;
  return digest ? digest->as_string() : "missing";
}

void expect_golden(perfbench::Workload workload, const std::string& store_dir) {
  const auto options = perfbench::pipeline_options(
      workload, perfbench::kDefaultSeed, store_dir, false);
  const auto digest =
      perfbench::digest_pipeline(core::run_full_pipeline(options));
  const auto name = perfbench::workload_name(workload);
  EXPECT_TRUE(digest.consistent) << name;
  EXPECT_EQ(perfbench::hex64(digest.digest), golden_digest(name)) << name;
}

TEST(GoldenDigest, Table1InRam) {
  expect_golden(perfbench::Workload::kTable1, "");
}

TEST(GoldenDigest, Table1StoreBacked) {
  const testing_util::UniqueDir dir("golden_table1_store");
  expect_golden(perfbench::Workload::kTable1Store, dir.path());
}

}  // namespace
}  // namespace snmpv3fp
