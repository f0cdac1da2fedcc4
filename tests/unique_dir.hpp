// A fresh directory under the gtest temp dir, made with mkdtemp and removed
// with everything in it when the object goes away. Tests that checkpoint
// or spill through one never share a path with another test, or with the
// same test running from a second build tree at the same time.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace snmpv3fp::testing_util {

class UniqueDir {
 public:
  explicit UniqueDir(std::string_view prefix = "snmpfp") {
    path_ = ::testing::TempDir() + std::string(prefix) + "_XXXXXX";
    if (::mkdtemp(path_.data()) == nullptr)
      ADD_FAILURE() << "mkdtemp failed for " << path_;
  }
  ~UniqueDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  UniqueDir(const UniqueDir&) = delete;
  UniqueDir& operator=(const UniqueDir&) = delete;

  const std::string& path() const { return path_; }
  std::string operator/(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace snmpv3fp::testing_util
