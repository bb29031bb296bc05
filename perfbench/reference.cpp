#include "perfbench/reference.hpp"

#include <map>
#include <stdexcept>

namespace perfbench {

std::optional<double> check_reference(const std::string& job,
                                      std::size_t index) {
  // Jobs whose fixture does not depend on the seed. wsn-jitter-1e5 and the
  // queue rates do; queue-300 still reaches "full" with probability 1.
  static const std::map<std::string, std::vector<double>> kValues = {
      {"wsn-1e6-quotient", {0.99997028670902366}},
      {"grid-300", {1.0}},
      {"queue-300", {1.0}},
  };
  const auto it = kValues.find(job);
  if (it == kValues.end() || index >= it->second.size()) return std::nullopt;
  return it->second[index];
}

const std::vector<std::string>& table_reference(const std::string& table) {
  // Cells as printed by bench/table_car_reward_repair,
  // bench/table_wsn_model_repair and bench/table_wsn_data_repair.
  static const std::map<std::string, std::vector<std::string>> kTables = {
      {"car_reward_repair",
       {"0.0652", "0.317", "0.946", "UNSAFE",    // IRL (learned)
        "0.0652", "3.86", "0.946", "safe",       // Reward Repair
        "-0.305", "0.362", "0.781", "safe",      // Reward Repair (all free)
        "0.0009991", "12.53",                    // slack, ||dTheta||^2
        "0.1792", "0.9985", "0.6405",            // projection satisfaction
        "1.705", "-0.677", "1.22", "1.52", "safe"}},  // KL, theta, policy
      {"wsn_model_repair",
       {"66.667", "satisfied",                              // X = 100
        "66.667", "0.0557", "0.0366", "39.826", "yes",      // X = 40
        "66.667", "INFEASIBLE", "32.143",                   // X = 19
        "0.0557"}},                                         // eps
      {"wsn_data_repair",
       {"66.635", "0.2271", "0.7729", "0.2271", "0.7729", "0.2271", "0.7729",
        "optimal", "18.999", "passed"}},
  };
  const auto it = kTables.find(table);
  if (it == kTables.end()) throw std::runtime_error("no table " + table);
  return it->second;
}

}  // namespace perfbench
