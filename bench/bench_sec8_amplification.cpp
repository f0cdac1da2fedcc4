// §8: the amplification anomaly — some SNMPv3 agents answer one discovery
// request with many (identical) responses.
// Paper: 182k IPv4 addresses responded more than once in scan 1; 48
// returned over 1,000 responses; the worst single address sent 48.5M
// packets over two hours.
#include "common.hpp"

using namespace snmpv3fp;

int main() {
  benchx::print_header("§8", "multi-response / amplification census");
  const auto& r = benchx::full_pipeline();

  const auto census = [](const scan::ScanResult& scan) {
    std::size_t multi = 0, over_10 = 0, over_100 = 0;
    std::size_t max_count = 0;
    (void)scan.for_each_record([&](const scan::ScanRecord& record) {
      if (record.response_count > 1) ++multi;
      if (record.response_count > 10) ++over_10;
      if (record.response_count > 100) ++over_100;
      max_count = std::max(max_count, record.response_count);
    });
    std::printf("  responsive IPs: %zu; multi-response: %zu (%.2f%%); "
                ">10 responses: %zu; >100: %zu; max: %zu\n",
                scan.responsive(), multi,
                100.0 * static_cast<double>(multi) /
                    static_cast<double>(scan.responsive()),
                over_10, over_100, max_count);
    return multi;
  };
  std::cout << "IPv4 scan 1:\n";
  const std::size_t multi1 = census(r.v4_campaign.scan1);
  std::cout << "IPv4 scan 2:\n";
  census(r.v4_campaign.scan2);

  // Amplification factor: response bytes received per probe byte sent for
  // the worst offender.
  std::size_t worst = 0;
  net::IpAddress worst_addr;
  (void)r.v4_campaign.scan1.for_each_record(
      [&](const scan::ScanRecord& record) {
        if (record.response_count > worst) {
          worst = record.response_count;
          worst_addr = record.target;
        }
      });
  std::cout << "\nShape checks:\n";
  benchx::print_paper_row(
      "IPs answering more than once (scan 1)", "~0.6%",
      util::fmt_percent(static_cast<double>(multi1) /
                        static_cast<double>(
                            r.v4_campaign.scan1.responsive())));
  benchx::print_paper_row("worst amplifier (responses to one probe)",
                          "48.5M over 2h (1 host)",
                          util::fmt_count(worst) + " from " +
                              worst_addr.to_string());
  std::cout << "\n(UDP + spoofable source + >1 response per request = "
               "reflective amplification primitive; the paper reported this "
               "to vendors.)\n";
  return 0;
}
