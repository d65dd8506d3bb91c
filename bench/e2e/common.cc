#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "service/service.h"

namespace aqv_e2e {

const char* ClsName(Cls cls) {
  switch (cls) {
    case Cls::kLoad:
      return "load";
    case Cls::kAnswer:
      return "answer";
    case Cls::kRewrite:
      return "rewrite";
    case Cls::kMutation:
      return "mutation";
    case Cls::kPersist:
      return "persist";
    case Cls::kQuit:
      return "quit";
  }
  return "unknown";
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

double Percentile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  return aqv::NearestRankPercentile(sample, q);
}

double Median(std::vector<double> sample) {
  return Percentile(std::move(sample), 0.5);
}

double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

void MetricTable::Add(std::string name, double value, std::string unit,
                      std::string better, std::optional<double> bound,
                      uint64_t n) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                            std::move(better), bound, n});
}

void MetricTable::AddLatency(const std::string& prefix,
                             const std::vector<double>& us,
                             const std::string& unit,
                             std::optional<double> bound, bool gate_p90) {
  if (us.empty()) return;
  const double scale = unit == "ms" ? 1e-3 : 1.0;
  std::vector<double> sorted = us;
  std::sort(sorted.begin(), sorted.end());
  double log_sum = 0;
  for (double v : sorted) log_sum += std::log(v);
  const uint64_t n = sorted.size();
  auto add = [&](const char* stat, double value, std::optional<double> b) {
    Add(prefix + "_" + stat + "_" + unit, value * scale, unit, "lower", b, n);
  };
  add("gmean", std::exp(log_sum / static_cast<double>(n)), bound);
  add("p90", aqv::NearestRankPercentile(sorted, 0.9),
      gate_p90 ? bound : std::nullopt);
  add("p50", aqv::NearestRankPercentile(sorted, 0.5), std::nullopt);
  add("p99", aqv::NearestRankPercentile(sorted, 0.99), std::nullopt);
  add("max", sorted.back(), std::nullopt);
}

void MetricTable::AddCommandP90(
    const std::string& prefix,
    const std::map<std::string, std::vector<double>>& us_by_cmd,
    const std::string& unit, std::optional<double> bound) {
  double log_sum = 0;
  uint64_t n = 0;
  for (const auto& [cmd, us] : us_by_cmd) {
    log_sum += std::log(Percentile(us, 0.9));
    n += us.size();
  }
  if (n == 0) return;
  const double scale = unit == "ms" ? 1e-3 : 1.0;
  Add(prefix + "_cmd_p90_" + unit,
      std::exp(log_sum / static_cast<double>(us_by_cmd.size())) * scale, unit,
      "lower", bound, n);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace aqv_e2e
