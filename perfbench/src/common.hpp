// Shared vocabulary of the end-to-end benchmark: run arguments, the
// per-run report, exact sample statistics, the benchmark's own span
// recorder, and the distortion / domination measurement every workload
// uses.
//
// Everything here talks to the library only through its public headers;
// layer timings are taken by timing calls into those headers from the
// outside (see README.md for the metric definitions).
#pragma once

#include <atomic>
#include <cstddef>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "geometry/point_set.hpp"
#include "tree/hst.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports. `metrics` holds the end-to-end set (untraced
/// run) or the per-layer set (traced run); `details` holds supporting
/// numbers (sample counts, environment) that go to the results file only.
struct Report {
  std::uint64_t attempted = 0;
  /// Failed operations or requests.
  std::uint64_t failed_ops = 0;
  /// Output checks run and failed (each failed check also counts as a
  /// failure against `attempted`).
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> details;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one output check; a failure keeps its description (the first
  /// few) for the results file.
  void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failed_checks;
    if (check_failures.size() < 16) check_failures.push_back(what);
  }
  std::uint64_t failed() const { return failed_ops + failed_checks; }
};

/// Exact order statistics over raw samples (no bucketing).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  double sum() const;

 private:
  std::vector<double> values_;
};

/// The benchmark's own spans: name, start, end, parent span and request
/// id, kept in memory and written out at exit. Times are microseconds on
/// the obs::Tracer clock, so the program's own spans (emb/*, mpc/round/*,
/// ipc/round/*, serve/batch) nest under these in one timeline.
struct BenchSpanEvent {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = top level
  std::uint64_t request = 0;  // 0 = not tied to one request
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;
};

class SpanLog {
 public:
  static SpanLog& global();

  /// Spans are recorded only while enabled (the traced half of a traced
  /// run); disabled spans cost one relaxed load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(BenchSpanEvent event);
  std::vector<BenchSpanEvent> snapshot() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<BenchSpanEvent> events_;
};

/// Microseconds on the obs::Tracer clock.
std::uint64_t trace_now_us();

/// RAII benchmark span; the innermost open span on a thread is the parent
/// of the next one opened there.
class BenchSpan {
 public:
  explicit BenchSpan(std::string name, std::uint64_t request = 0);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  bool armed_ = false;
  BenchSpanEvent event_;
  std::uint64_t saved_parent_ = 0;
};

/// Records a span whose interval the caller measured itself (client-side
/// request latencies, whose start and end are seen in different loops);
/// `event.id` must come from SpanLog::next_id(). No-op while disabled.
void record_span(BenchSpanEvent event);

/// Sum of durations (seconds) of the program's obs::Tracer spans with this
/// category and name, and their count.
std::pair<double, std::size_t> program_span_seconds(const std::string& category,
                                                    const std::string& name);

/// A fixed sample of distinct point pairs drawn from `seed`.
std::vector<std::pair<std::size_t, std::size_t>> sample_pairs(
    std::size_t n, std::size_t count, std::uint64_t seed);

/// Distortion of one tree against input-space L2 on the pair sample, in
/// input units (tree distance * scale_to_input / L2). Also checks
/// domination within the pipeline's tolerance:
///   d_T * scale >= (1 - xi) * L2 - sqrt(dim_used) * scale,
/// xi being the FJLT distortion parameter when the transform was applied
/// (0 otherwise) and the additive term the grid-snap rounding bound.
struct DistortionSample {
  double mean_ratio = 0.0;
  std::size_t domination_violations = 0;
};
DistortionSample measure_tree(
    const mpte::Hst& tree, double scale_to_input, std::size_t dim_used,
    double xi, const mpte::PointSet& input,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Shared by all workloads: pairs per distortion sample.
inline constexpr std::size_t kDistortionPairs = 2000;

/// CPU seconds (user + system) used by this process and by its reaped
/// child processes (the MPC worker processes) so far.
double process_cpu_seconds();

/// CPU seconds used by the calling thread so far.
double thread_cpu_seconds();

/// Records the end-to-end set: setup_s (median of the set-up
/// repetitions), op_p50_ms over the primary operation's exact wall-clock
/// latency samples, op_cpu_ms (CPU time the program spent per primary
/// operation), distortion_mean, and peak_rss_mb — the peak resident set
/// once set-up (with its warm-up operations) is done, read before the
/// timed phase so the benchmark's own sample buffers do not count.
void report_end_to_end(Report& report, const Samples& setup_seconds,
                       double setup_peak_rss_mb, const Samples& op_seconds,
                       double op_cpu_seconds, double distortion_mean);

/// Records every per-layer metric as 0 with its unit; a workload then
/// overwrites the layers it exercises, so every traced run reports the
/// full set (0 = the layer does no work on this workload).
void init_layer_metrics(Report& report);

/// Switches a traced run from its untraced first half to its traced second
/// half: enables the program's obs::Tracer (ring large enough that nothing
/// is overwritten) and the benchmark's own span log.
class TraceSwitch {
 public:
  TraceSwitch(const Args& args, Clock::time_point start)
      : enabled_(args.trace), half_(args.seconds / 2), start_(start) {}

  /// True once the traced half has begun (never on untraced runs).
  bool poll();

 private:
  bool enabled_;
  double half_;
  Clock::time_point start_;
  bool on_ = false;
};

/// obs.trace_overhead and obs.spans_dropped from the two halves' samples.
void report_trace_overhead(Report& report, const Samples& untraced,
                           const Samples& traced);

/// How many times each workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 3;

/// Writes the run's results file and (traced runs) its span file under
/// .bench_out/, then prints the one-line JSON result as the last line of
/// standard output.
void emit(const Args& args, const Report& report);

}  // namespace perfbench
