// Sample statistics, span recording and the traced-half switch, distortion
// measurement and result output shared by all workloads.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

void SpanLog::record(BenchSpanEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<BenchSpanEvent> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t trace_now_us() { return mpte::obs::Tracer::global().now_us(); }

namespace {
thread_local std::uint64_t current_parent = 0;
}  // namespace

BenchSpan::BenchSpan(std::string name, std::uint64_t request) {
  SpanLog& log = SpanLog::global();
  if (!log.enabled()) return;
  armed_ = true;
  event_.name = std::move(name);
  event_.id = log.next_id();
  event_.parent = current_parent;
  event_.request = request;
  event_.start_us = trace_now_us();
  saved_parent_ = current_parent;
  current_parent = event_.id;
}

BenchSpan::~BenchSpan() {
  if (!armed_) return;
  event_.end_us = trace_now_us();
  current_parent = saved_parent_;
  SpanLog::global().record(std::move(event_));
}

void record_span(BenchSpanEvent event) {
  SpanLog& log = SpanLog::global();
  if (log.enabled()) log.record(std::move(event));
}

std::pair<double, std::size_t> program_span_seconds(
    const std::string& category, const std::string& name) {
  double total_us = 0.0;
  std::size_t count = 0;
  for (const auto& event : mpte::obs::Tracer::global().snapshot()) {
    if (event.category == category && event.name == name) {
      total_us += static_cast<double>(event.duration_us);
      ++count;
    }
  }
  return {total_us * 1e-6, count};
}

std::vector<std::pair<std::size_t, std::size_t>> sample_pairs(
    std::size_t n, std::size_t count, std::uint64_t seed) {
  mpte::Rng rng(mpte::hash_combine(seed, 0x9a1f));
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const auto p = static_cast<std::size_t>(rng.uniform_u64(n));
    const auto q = static_cast<std::size_t>(rng.uniform_u64(n));
    if (p != q) pairs.emplace_back(p, q);
  }
  return pairs;
}

namespace {

double l2(const mpte::PointSet& points, std::size_t p, std::size_t q) {
  double sum = 0.0;
  const auto a = points[p];
  const auto b = points[q];
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] - b[j];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

}  // namespace

DistortionSample measure_tree(
    const mpte::Hst& tree, double scale_to_input, std::size_t dim_used,
    double xi, const mpte::PointSet& input,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
  DistortionSample out;
  double sum = 0.0;
  std::size_t counted = 0;
  const double slack = std::sqrt(static_cast<double>(dim_used)) *
                       scale_to_input;
  for (const auto& [p, q] : pairs) {
    const double truth = l2(input, p, q);
    const double tree_dist = tree.distance(p, q) * scale_to_input;
    if (tree_dist < (1.0 - xi) * truth - slack) ++out.domination_violations;
    if (truth <= 0.0) continue;  // duplicate input points carry no ratio
    sum += tree_dist / truth;
    ++counted;
  }
  out.mean_ratio = counted > 0 ? sum / static_cast<double>(counted) : 0.0;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += seconds(usage.ru_utime) + seconds(usage.ru_stime);
  }
  return total;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// Ring capacity for the traced half: far above the span count of any
/// workload's traced half, so obs.spans_dropped stays 0.
constexpr std::size_t kTraceCapacity = 1 << 18;

}  // namespace

bool TraceSwitch::poll() {
  if (!enabled_ || on_) return on_;
  if (seconds_since(start_) >= half_) {
    mpte::obs::Tracer::global().enable(kTraceCapacity);
    SpanLog::global().set_enabled(true);
    on_ = true;
  }
  return on_;
}

void report_trace_overhead(Report& report, const Samples& untraced,
                           const Samples& traced) {
  if (!untraced.empty() && !traced.empty() && untraced.median() > 0.0) {
    report.metric("obs.trace_overhead",
                  traced.median() / untraced.median() - 1.0, "ratio");
  }
  report.metric(
      "obs.spans_dropped",
      static_cast<double>(mpte::obs::Tracer::global().overwritten()), "count");
  report.details["traced_samples"] = static_cast<double>(traced.size());
  report.details["untraced_samples"] = static_cast<double>(untraced.size());
}

void report_end_to_end(Report& report, const Samples& setup_seconds,
                       double setup_peak_rss_mb, const Samples& op_seconds,
                       double op_cpu_seconds, double distortion_mean) {
  report.metric("setup_s", setup_seconds.median(), "s");
  report.metric("op_p50_ms", op_seconds.median() * 1e3, "ms");
  report.metric("op_cpu_ms", op_cpu_seconds * 1e3, "ms");
  report.metric("distortion_mean", distortion_mean, "ratio");
  report.metric("peak_rss_mb", setup_peak_rss_mb, "MB");
  report.details["setup_samples"] = static_cast<double>(setup_seconds.size());
  report.details["op_samples"] = static_cast<double>(op_seconds.size());
  report.details["op_p90_ms"] = op_seconds.quantile(0.90) * 1e3;
  report.details["op_p99_ms"] = op_seconds.quantile(0.99) * 1e3;
  report.details["peak_rss_end_mb"] = peak_rss_mb();
}

void init_layer_metrics(Report& report) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"geometry.delta_s", "s"},       {"geometry.quantize_s", "s"},
      {"transform.fjlt_s", "s"},       {"transform.out_dim", "count"},
      {"partition.hierarchy_s", "s"},  {"partition.retries", "count"},
      {"partition.levels", "count"},   {"partition.grids", "count"},
      {"tree.assemble_s", "s"},        {"tree.nodes", "count"},
      {"tree.lca_build_ms", "ms"},     {"tree.lca_distance_ns", "ns"},
      {"core.embed_other_s", "s"},     {"core.mpc_host_s", "s"},
      {"mpc.rounds", "count"},         {"mpc.bytes", "B"},
      {"mpc.peak_local_bytes", "B"},   {"mpc.compute_s", "s"},
      {"mpc.audit_s", "s"},            {"mpc.deliver_s", "s"},
      {"mpc.paths_s", "s"},            {"mpc.dedup_s", "s"},
      {"ipc.step_frames", "count"},    {"ipc.wire_bytes", "B"},
      {"ipc.shm_bytes", "B"},          {"ipc.ring_full_waits", "count"},
      {"ipc.fallback_frames", "count"}, {"ipc.workers_spawned", "count"},
      {"ipc.barrier_s", "s"},          {"serve.parse_us", "us"},
      {"serve.format_us", "us"},       {"serve.eval_dist_us", "us"},
      {"serve.eval_knn_us", "us"},     {"serve.eval_range_us", "us"},
      {"serve.queue_wait_us", "us"},   {"serve.batches", "count"},
      {"serve.batch_size_mean", "count"}, {"serve.cache_hit_rate", "ratio"},
      {"serve.rejected", "count"},     {"dyn.insert_us", "us"},
      {"dyn.erase_us", "us"},          {"dyn.publish_ms", "ms"},
      {"dyn.nodes_reembedded", "count"}, {"dyn.epochs", "count"},
      {"dyn.query_p50_us", "us"},      {"dyn.query_p99_us", "us"},
      {"obs.trace_overhead", "ratio"}, {"obs.spans_dropped", "count"},
      {"unattributed_share", "ratio"},
  };
  for (const auto& [name, unit] : kLayers) report.metric(name, 0.0, unit);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += mpte::obs::json_escape(s);
  out += '"';
  return out;
}

std::string metrics_json(const Report& report) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value_unit] : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(value_unit.first) +
           ", \"unit\": " + quoted(value_unit.second) + "}";
  }
  return out + "}";
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string spans_json() {
  std::string out = "{\"bench_spans\": [";
  bool first = true;
  for (const auto& span : SpanLog::global().snapshot()) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": " + quoted(span.name) +
           ", \"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) +
           ", \"request\": " + std::to_string(span.request) +
           ", \"start_us\": " + std::to_string(span.start_us) +
           ", \"end_us\": " + std::to_string(span.end_us) + "}";
  }
  out += "],\n\"program_trace\": ";
  out += mpte::obs::Tracer::global().chrome_trace_json();
  return out + "}\n";
}

}  // namespace

void emit(const Args& args, const Report& report) {
  Report final_report = report;
  // A metric that is not a finite number is a benchmark or program bug;
  // it fails the run rather than printing a value the caller cannot use.
  for (const auto& [name, value_unit] : report.metrics) {
    final_report.check(std::isfinite(value_unit.first),
                       "metric " + name + " is not finite");
  }
  const bool correct = final_report.failed() == 0;
  // Checks count as attempts, so error_rate = failures / attempts stays a
  // share even when a check fails on a run with few operations.
  const std::uint64_t attempted = final_report.attempted + final_report.checks;

  const std::string stem = args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::filesystem::path dir = ".bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  std::ostringstream results;
  results << "{\"workload\": " << quoted(args.workload)
          << ", \"seed\": " << args.seed
          << ", \"seconds\": " << number(args.seconds)
          << ", \"trace\": " << (args.trace ? 1 : 0)
          << ", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"simd_backend\": "
          << quoted(mpte::simd::backend_name(mpte::simd::active_backend()))
          << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
          << ", \"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << attempted
          << ", \"failed_ops\": " << final_report.failed_ops
          << ", \"checks\": " << final_report.checks
          << ", \"failed_checks\": " << final_report.failed_checks
          << ", \"error_rate\": "
          << number(attempted > 0 ? static_cast<double>(final_report.failed()) /
                                        static_cast<double>(attempted)
                                  : 1.0)
          << ", \"check_failures\": [";
  for (std::size_t i = 0; i < final_report.check_failures.size(); ++i) {
    results << (i ? ", " : "") << quoted(final_report.check_failures[i]);
  }
  results << "], \"details\": {";
  bool first = true;
  for (const auto& [name, value] : final_report.details) {
    results << (first ? "" : ", ") << quoted(name) << ": " << number(value);
    first = false;
  }
  results << "}, \"metrics\": " << metrics_json(final_report) << "}\n";
  write_text(dir / (stem + ".json"), results.str());
  if (args.trace) write_text(dir / (stem + ".spans.json"), spans_json());

  for (const std::string& failure : final_report.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  std::printf("# workload=%s seed=%llu nproc=%u simd=%s build=%s "
              "attempted=%llu failed=%llu checks=%llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(),
              mpte::simd::backend_name(mpte::simd::active_backend()),
              PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(final_report.failed()),
              static_cast<unsigned long long>(final_report.checks));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(final_report.failed()),
              metrics_json(final_report).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
