// Shared vocabulary of the end-to-end benchmark: command classes, the
// timed unit of work, sessions, percentiles and the metric table every
// result file is written from.

#ifndef AQV_BENCH_E2E_COMMON_H_
#define AQV_BENCH_E2E_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace aqv_e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The command classes latency is reported for.
enum class Cls { kLoad, kAnswer, kRewrite, kMutation, kPersist, kQuit };
inline constexpr int kNumCls = 6;

const char* ClsName(Cls cls);
inline bool IsProbe(Cls cls) { return cls == Cls::kAnswer || cls == Cls::kRewrite; }

/// One timed request: `text` holds `lines` '\n'-terminated command lines,
/// sent in one write and timed until the last terminator arrives.
struct Unit {
  Cls cls = Cls::kMutation;
  std::string text;
  int lines = 1;
};

/// One client session: the units it sends, in order.
struct SessionScript {
  std::vector<Unit> units;
  /// True when the session opens a connection of its own and ends with
  /// `quit`; false when it reuses its client's connection (and begins
  /// with `reset`).
  bool own_connection = false;
  /// The database directory its save/open lines name, or empty.
  std::string persist_dir;
};

/// `text` split into lines (no trailing empty line).
std::vector<std::string> SplitLines(const std::string& text);

/// Nearest-rank percentile (service.h NearestRankPercentile) of an
/// unsorted sample; 0 for an empty one.
double Percentile(std::vector<double> sample, double q);
double Median(std::vector<double> sample);
double Mean(const std::vector<double>& sample);

/// One reported number. `bound` is the share by which it may worsen
/// before a comparison calls it a regression; unset = not gated.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string better;  // "lower" or "higher"
  std::optional<double> bound;
  uint64_t n = 0;
};

class MetricTable {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string better, std::optional<double> bound, uint64_t n);
  /// Adds the geometric mean and p90 (gated by `bound`; the p90 only when
  /// `gate_p90`) and p50, p99 and max (not gated) of a latency sample in
  /// microseconds, reported in `unit` ("ms" or "us"). Nothing is added for
  /// an empty sample.
  void AddLatency(const std::string& prefix, const std::vector<double>& us,
                  const std::string& unit, std::optional<double> bound,
                  bool gate_p90);
  /// Adds `<prefix>_cmd_p90_<unit>`, gated by `bound`: the geometric mean,
  /// over the distinct command lines of one class, of each line's p90.
  /// Nothing is added when there are no samples.
  void AddCommandP90(const std::string& prefix,
                     const std::map<std::string, std::vector<double>>& us_by_cmd,
                     const std::string& unit, std::optional<double> bound);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// JSON string literal of `s`.
std::string JsonString(const std::string& s);
/// A finite double with every significant digit.
std::string JsonNumber(double v);

}  // namespace aqv_e2e

#endif  // AQV_BENCH_E2E_COMMON_H_
