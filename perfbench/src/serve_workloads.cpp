// serve_read and serve_update: a served ensemble behind SocketServer on
// loopback, driven by in-process LineClient connections (closed loop, each
// connection pipelining windows of kWindow request lines).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/ensemble.hpp"
#include "dyn/dynamic_ensemble.hpp"
#include "geometry/bounding_box.hpp"
#include "geometry/generators.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "tree/hst_io.hpp"
#include "tree/lca_index.hpp"
#include "workloads.hpp"

namespace perfbench {

using mpte::PointSet;
namespace serve = mpte::serve;

namespace {

constexpr std::size_t kTrees = 4;
constexpr std::size_t kPoints = 8192;
constexpr std::size_t kWindow = 64;
constexpr std::size_t kHotSet = 64;
constexpr double kRangeRadius = 50.0;
/// Random think time between a connection's windows: without it the two
/// closed-loop connections lock into one relative phase for a whole run
/// (both windows in one batch, or alternating), and which phase a run
/// lands in moves its latency by a third.
constexpr std::uint64_t kMaxThinkUs = 200;
/// Every kCheckEvery-th served answer is re-derived with evaluate().
constexpr std::size_t kCheckEvery = 16;
/// Requests replayed off the wire to time parse / evaluate / format.
constexpr std::size_t kReplayRequests = 4096;
/// Updates replayed on a private DynamicEnsemble to time insert / erase /
/// publish.
constexpr std::size_t kReplayUpdates = 24;

PointSet serve_points(std::uint64_t seed) {
  return mpte::generate_gaussian_clusters(kPoints, 8, 16, 100.0, 4.0, seed);
}

/// The query mix of one connection: 90% dist (half of them on a 64-point
/// hot set, so the answer cache sees repeats), 9% knn with k <= 8, 1%
/// range. Line i is a pure function of (seed, client, i), and every index
/// is below `n` — the initial point count, because wire queries address
/// dense indexes and those shift under remove.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t client, std::size_t n)
      : rng_(mpte::hash_combine(seed, 0x5e17e + client)), n_(n) {
    mpte::Rng hot_rng(mpte::hash_combine(seed, 0x40));
    for (std::size_t i = 0; i < kHotSet; ++i) {
      hot_.push_back(static_cast<std::size_t>(hot_rng.uniform_u64(n)));
    }
  }

  /// Think time before the next window, uniform in [0, kMaxThinkUs).
  std::chrono::microseconds think() {
    return std::chrono::microseconds(rng_.uniform_u64(kMaxThinkUs));
  }

  std::string next() {
    const std::uint64_t roll = rng_.uniform_u64(1000);
    if (roll < 900) {
      const bool hot = roll < 450;
      std::size_t p = pick(hot), q = pick(hot);
      while (q == p) q = pick(hot);
      return "dist " + std::to_string(p) + " " + std::to_string(q);
    }
    if (roll < 990) {
      return "knn " + std::to_string(pick(false)) + " " +
             std::to_string(1 + rng_.uniform_u64(8));
    }
    char radius[32];
    std::snprintf(radius, sizeof(radius), "%.1f", kRangeRadius);
    return "range " + std::to_string(pick(false)) + " " + radius;
  }

 private:
  std::size_t pick(bool hot) {
    return hot ? hot_[rng_.uniform_u64(hot_.size())]
               : static_cast<std::size_t>(rng_.uniform_u64(n_));
  }

  mpte::Rng rng_;
  std::size_t n_;
  std::vector<std::size_t> hot_;
};

const char* kind_of(const std::string& line) {
  return line[0] == 'd' ? "dist" : (line[0] == 'k' ? "knn" : "range");
}

/// What one query connection saw during the timed phase.
struct QueryClientResult {
  Samples untraced_s;
  Samples traced_s;
  /// CPU seconds the client thread itself used (the load generator runs
  /// in-process; op_cpu_ms charges only the program's share).
  double client_cpu_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;
  /// (request line, response line) for every kCheckEvery-th request.
  std::vector<std::pair<std::string, std::string>> sampled;
  std::uint64_t epoch_regressions = 0;
  std::uint64_t last_epoch = 0;
};

/// Closed-loop pipelined client: writes a window of kWindow lines in one
/// send, then reads the window's responses; a request's latency runs from
/// the send to the read of its own response line. With `watch_epochs` an
/// `info` line closes each window so the connection sees the epoch and can
/// check it never goes backwards.
void drive_queries(serve::LineClient& client, RequestStream& stream,
                   std::size_t client_id, Clock::time_point deadline,
                   const std::atomic<bool>& traced, bool watch_epochs,
                   QueryClientResult* out) {
  std::vector<std::string> lines(kWindow);
  std::uint64_t request_no = 0;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(stream.think());
    std::string payload;
    for (std::string& line : lines) {
      line = stream.next();
      payload += line + "\n";
    }
    if (watch_epochs) payload += "info\n";
    payload.pop_back();
    const bool traced_window = traced.load(std::memory_order_relaxed);
    const std::uint64_t window_id =
        traced_window ? SpanLog::global().next_id() : 0;
    const std::uint64_t window_start_us = traced_window ? trace_now_us() : 0;
    const auto sent_at = Clock::now();
    if (!client.send_line(payload).ok()) {
      out->sent += kWindow;
      out->errors += kWindow;
      break;
    }
    for (std::size_t i = 0; i < kWindow; ++i) {
      const auto reply = client.read_line();
      const double latency = seconds_since(sent_at);
      ++out->sent;
      ++request_no;
      if (!reply.ok() || !serve::is_ok_line(*reply)) {
        ++out->errors;
        if (!reply.ok()) return;
        continue;
      }
      (traced_window ? out->traced_s : out->untraced_s).add(latency);
      if (request_no % kCheckEvery == 0) out->sampled.emplace_back(lines[i], *reply);
      if (traced_window) {
        const std::uint64_t request_id =
            (static_cast<std::uint64_t>(client_id + 1) << 40) | request_no;
        record_span({std::string("request/") + kind_of(lines[i]),
                     SpanLog::global().next_id(), window_id, request_id,
                     window_start_us,
                     window_start_us +
                         static_cast<std::uint64_t>(latency * 1e6)});
      }
    }
    if (watch_epochs) {
      const auto info = client.read_line();
      unsigned long long points = 0, trees = 0, epoch = 0, dim = 0;
      if (!info.ok() ||
          std::sscanf(info->c_str(),
                      "ok info points=%llu trees=%llu epoch=%llu dim=%llu",
                      &points, &trees, &epoch, &dim) != 4) {
        ++out->errors;
        return;
      }
      if (epoch < out->last_epoch) ++out->epoch_regressions;
      out->last_epoch = epoch;
    }
    if (traced_window) {
      record_span({"client/window", window_id, 0, 0, window_start_us,
                   trace_now_us()});
    }
  }
}

void run_query_client(serve::LineClient& client, RequestStream& stream,
                      std::size_t client_id, Clock::time_point deadline,
                      const std::atomic<bool>& traced, bool watch_epochs,
                      QueryClientResult* out) {
  const double cpu_start = thread_cpu_seconds();
  drive_queries(client, stream, client_id, deadline, traced, watch_epochs, out);
  out->client_cpu_s += thread_cpu_seconds() - cpu_start;
}

/// One live server: the service, its socket front end, and the client
/// connections (declared last so they close before the server stops).
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  std::unique_ptr<serve::EmbeddingService> service;
  std::unique_ptr<serve::SocketServer> server;
  std::vector<std::unique_ptr<serve::LineClient>> clients;

  ~Deployment() {
    clients.clear();
    if (server) server->stop();
  }
};

/// Starts the server and connects `connections` clients, each sending one
/// warm-up window. Returns false (and counts a failure) if any step fails.
bool start_deployment(Deployment& d, std::size_t connections,
                      std::size_t n, Report& report) {
  d.server = std::make_unique<serve::SocketServer>(*d.service);
  const auto port = d.server->start();
  if (!port.ok()) {
    report.check(false, "server start: " + port.status().to_string());
    return false;
  }
  for (std::size_t c = 0; c < connections; ++c) {
    auto client = std::make_unique<serve::LineClient>();
    const mpte::Status connected = client->connect("127.0.0.1", *port);
    report.check(connected.ok(), "connect: " + connected.to_string());
    if (!connected.ok()) return false;
    RequestStream warm(0xa11ce, c, n);
    for (std::size_t i = 0; i < kWindow; ++i) {
      const auto reply = client->roundtrip(warm.next());
      ++report.attempted;
      if (!reply.ok() || !serve::is_ok_line(*reply)) ++report.failed_ops;
    }
    d.clients.push_back(std::move(client));
  }
  return true;
}

/// Re-derives sampled served answers with evaluate() (the service's own
/// unbatched, uncached oracle) and compares the formatted lines.
void check_sampled_answers(
    const serve::EmbeddingService& service,
    const std::vector<std::pair<std::string, std::string>>& sampled,
    const std::string& where, Report& report) {
  std::uint64_t mismatches = 0;
  std::string first;
  for (const auto& [line, reply] : sampled) {
    const auto request = serve::parse_request(line);
    const std::string expected =
        request.ok() ? serve::format_response(service.evaluate(*request))
                     : std::string("(unparsable)");
    if (expected != reply) {
      if (mismatches++ == 0) first = line + " -> " + reply + " != " + expected;
    }
  }
  report.check(mismatches == 0, where + ": " + std::to_string(mismatches) +
                                    " served answers differ from evaluate(), "
                                    "first: " + first);
  report.details["answers_checked"] += static_cast<double>(sampled.size());
}

/// Distortion of the served members (input units) plus their domination
/// check.
double served_distortion(const mpte::EmbeddingEnsemble& ensemble,
                         const PointSet& points, std::uint64_t seed,
                         Report& report) {
  const auto pairs = sample_pairs(points.size(), kDistortionPairs, seed);
  const double xi = mpte::EmbedOptions{}.fjlt_xi;
  Samples ratios;
  for (std::size_t t = 0; t < ensemble.size(); ++t) {
    const mpte::Embedding& member = ensemble.member(t);
    const DistortionSample sample =
        measure_tree(member.tree, member.scale_to_input, member.dim_used,
                     member.fjlt_applied ? xi : 0.0, points, pairs);
    ratios.add(sample.mean_ratio);
    report.check(sample.domination_violations == 0,
                 "member " + std::to_string(t) + ": " +
                     std::to_string(sample.domination_violations) +
                     " pairs violate domination");
  }
  return ratios.mean();
}

/// Per-layer serve numbers shared by both serving workloads.
void report_serve_layers(const serve::EmbeddingService& service,
                         const std::vector<QueryClientResult>& clients,
                         std::uint64_t seed, std::size_t n, Report& report) {
  mpte::obs::Registry registry;
  service.export_metrics(&registry);
  const serve::ServiceStats stats = service.stats();
  report.metric("serve.batches", static_cast<double>(stats.batches), "count");
  report.metric("serve.batch_size_mean",
                stats.batches > 0 ? static_cast<double>(stats.submitted) /
                                        static_cast<double>(stats.batches)
                                  : 0.0,
                "count");
  report.metric("serve.cache_hit_rate", stats.cache_hit_rate, "ratio");
  report.metric("serve.rejected",
                static_cast<double>(stats.rejected_queue_full +
                                    stats.rejected_deadline),
                "count");

  // Service-side latency (submit to completion, exact mean from the
  // histogram's sum and count) minus the part spent inside the batch that
  // evaluated the request = time it waited for the batcher. A request
  // completes on average half-way through its batch's serve/batch span.
  const auto& latency = registry.histogram("mpte_serve_latency_us", "");
  const double service_mean_us =
      latency.count() > 0 ? static_cast<double>(latency.sum()) /
                                static_cast<double>(latency.count())
                          : 0.0;
  const auto [batch_s, batch_count] = program_span_seconds("serve", "batch");
  const double batch_mean_us =
      batch_count > 0 ? batch_s * 1e6 / static_cast<double>(batch_count) : 0.0;
  report.metric("serve.queue_wait_us",
                std::max(0.0, service_mean_us - batch_mean_us / 2), "us");
  report.details["serve.service_latency_mean_us"] = service_mean_us;
  report.details["serve.batch_span_mean_us"] = batch_mean_us;

  // Replay the first requests of the same stream through the wire codec
  // and evaluate(), one layer at a time.
  RequestStream stream(seed, 0, n);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kReplayRequests; ++i) lines.push_back(stream.next());
  std::vector<serve::Request> requests;
  double parse_s = 0.0;
  {
    BenchSpan span("replay/parse_request");
    const auto start = Clock::now();
    for (const std::string& line : lines) {
      auto parsed = serve::parse_request(line);
      if (parsed.ok()) requests.push_back(*parsed);
    }
    parse_s = seconds_since(start);
  }
  report.check(requests.size() == lines.size(), "replayed lines failed to parse");
  std::map<std::string, Samples> eval_us;
  std::vector<mpte::Result<serve::Response>> responses;
  {
    BenchSpan span("replay/evaluate");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto start = Clock::now();
      responses.push_back(service.evaluate(requests[i]));
      eval_us[kind_of(lines[i])].add(seconds_since(start) * 1e6);
    }
  }
  double format_s = 0.0;
  {
    BenchSpan span("replay/format_response");
    std::size_t bytes = 0;
    const auto start = Clock::now();
    for (const auto& response : responses) {
      bytes += serve::format_response(response).size();
    }
    format_s = seconds_since(start);
    report.check(bytes > 0, "replayed responses formatted empty");
  }
  const double replayed = static_cast<double>(std::max<std::size_t>(1, lines.size()));
  const double parse_us = parse_s * 1e6 / replayed;
  const double format_us = format_s * 1e6 / replayed;
  report.metric("serve.parse_us", parse_us, "us");
  report.metric("serve.format_us", format_us, "us");
  report.metric("serve.eval_dist_us", eval_us["dist"].mean(), "us");
  report.metric("serve.eval_knn_us", eval_us["knn"].mean(), "us");
  report.metric("serve.eval_range_us", eval_us["range"].mean(), "us");

  // LcaIndex build and query cost over the served members.
  const auto epoch = service.epoch_snapshot();
  const mpte::EmbeddingEnsemble& ensemble = *epoch->ensemble;
  const auto pairs = sample_pairs(n, kDistortionPairs, seed);
  Samples build_ms, query_ns;
  double sink = 0.0;
  for (std::size_t t = 0; t < ensemble.size(); ++t) {
    BenchSpan span("replay/lca_index");
    const auto start = Clock::now();
    const mpte::LcaIndex index(ensemble.member(t).tree);
    build_ms.add(seconds_since(start) * 1e3);
    const auto query_start = Clock::now();
    for (const auto& [p, q] : pairs) sink += ensemble.index(t).distance(p, q);
    query_ns.add(seconds_since(query_start) * 1e9 /
                 static_cast<double>(pairs.size()));
  }
  report.check(std::isfinite(sink), "LcaIndex distances not finite");
  report.metric("tree.lca_build_ms", build_ms.median(), "ms");
  report.metric("tree.lca_distance_ns", query_ns.median(), "ns");
  report.metric("tree.nodes",
                static_cast<double>(ensemble.member(0).tree.num_nodes()),
                "count");

  // Unattributed share of a traced query's latency: what the parse and
  // format of its window (the connection thread handles the whole window
  // before and after the submit) and the service-side latency leave over.
  Samples traced;
  for (const QueryClientResult& c : clients) traced.append(c.traced_s);
  const double client_mean_us = traced.mean() * 1e6;
  const double attributed_us =
      static_cast<double>(kWindow) * (parse_us + format_us) + service_mean_us;
  report.metric("unattributed_share",
                client_mean_us > 0.0 ? 1.0 - attributed_us / client_mean_us
                                     : 0.0,
                "ratio");
}

/// Set-up attribution for the serving workloads: one member-equivalent
/// embed recomposed layer by layer (what building the served trees costs
/// per tree).
void report_setup_layers(const PointSet& points,
                         const mpte::EmbedOptions& options, std::uint64_t seed,
                         Report& report) {
  const auto reference = mpte::embed(points, options);
  report.check(reference.ok(), "set-up reference embed failed");
  if (!reference.ok()) return;
  const auto pairs = sample_pairs(points.size(), kDistortionPairs, seed);
  const EmbedLayers layers =
      recompose_embed(points, options, reference->tree, pairs, report);
  const double lca_build_ms = report.metrics["tree.lca_build_ms"].first;
  const double lca_distance_ns = report.metrics["tree.lca_distance_ns"].first;
  const double nodes = report.metrics["tree.nodes"].first;
  report_embed_layers(report, {layers});
  // The served members' own index numbers take precedence over the
  // single recomposed tree's.
  report.metric("tree.lca_build_ms", lca_build_ms, "ms");
  report.metric("tree.lca_distance_ns", lca_distance_ns, "ns");
  report.metric("tree.nodes", nodes, "count");
}

Samples merged_latency(const std::vector<QueryClientResult>& clients,
                       bool traced) {
  Samples all;
  for (const QueryClientResult& c : clients) {
    all.append(traced ? c.traced_s : c.untraced_s);
  }
  return all;
}

/// Runs the timed phase: `run` drives the load on up to two client
/// threads; on traced runs the main thread flips tracing on at half time.
/// Returns the CPU seconds the process used during the phase.
template <typename Run>
double timed_phase(const Args& args, std::atomic<bool>& traced, Run run) {
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> threads = run(deadline);
  if (args.trace) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds / 2)));
    TraceSwitch(args, start).poll();
    traced.store(true, std::memory_order_relaxed);
  }
  for (std::thread& thread : threads) thread.join();
  return process_cpu_seconds() - cpu_start;
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_read: static EmbeddingService (T = 4, default ServiceOptions) over
// 8192 clustered points in R^8; 2 pipelining query connections.

Report run_serve_read(const Args& args) {
  Report report;
  const PointSet points = serve_points(args.seed);
  mpte::EmbedOptions options;
  options.seed = args.seed;

  Samples setup;
  std::unique_ptr<Deployment> live;
  for (int r = 0; r < kSetupRepeats; ++r) {
    auto d = std::make_unique<Deployment>();
    BenchSpan span("setup");
    const auto start = Clock::now();
    auto ensemble = mpte::EmbeddingEnsemble::build(points, options, kTrees);
    ++report.attempted;
    if (!ensemble.ok()) {
      ++report.failed_ops;
      report.check(false, "ensemble build: " + ensemble.status().to_string());
      return report;
    }
    d->service = std::make_unique<serve::EmbeddingService>(std::move(*ensemble));
    if (!start_deployment(*d, 2, points.size(), report)) return report;
    setup.add(seconds_since(start));
    if (r + 1 == kSetupRepeats) live = std::move(d);
  }
  const double setup_rss_mb = peak_rss_mb();

  std::vector<QueryClientResult> results(2);
  std::atomic<bool> traced{false};
  std::vector<RequestStream> streams;
  for (std::size_t c = 0; c < 2; ++c) streams.emplace_back(args.seed, c, points.size());
  const double phase_cpu_s =
      timed_phase(args, traced, [&](Clock::time_point deadline) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        run_query_client(*live->clients[c], streams[c], c, deadline, traced,
                         false, &results[c]);
      });
    }
    return threads;
  });

  std::vector<std::pair<std::string, std::string>> sampled;
  double client_cpu_s = 0.0;
  for (const QueryClientResult& c : results) {
    report.attempted += c.sent;
    report.failed_ops += c.errors;
    sampled.insert(sampled.end(), c.sampled.begin(), c.sampled.end());
    client_cpu_s += c.client_cpu_s;
  }
  check_sampled_answers(*live->service, sampled, "serve_read", report);
  const double distortion =
      served_distortion(live->service->ensemble(), points, args.seed, report);

  const Samples untraced = merged_latency(results, false);
  report.details["query_qps"] =
      static_cast<double>(untraced.size() +
                          merged_latency(results, true).size()) /
      args.seconds;
  if (!args.trace) {
    const double server_cpu_s = phase_cpu_s - client_cpu_s;
    report_end_to_end(report, setup, setup_rss_mb, untraced,
                      server_cpu_s / static_cast<double>(untraced.size()),
                      distortion);
    return report;
  }
  init_layer_metrics(report);
  report_serve_layers(*live->service, results, args.seed, points.size(),
                      report);
  report_setup_layers(points, options, args.seed, report);
  report_trace_overhead(report, untraced, merged_latency(results, true));
  return report;
}

// ---------------------------------------------------------------------------
// serve_update: the same points served in dynamic mode (DynamicEnsemble,
// T = 4). One query connection runs the same pipelined mix; one updater
// connection does upsert -> remove round trips with points inside the
// pinned frame.
//
// Queries address only the initial dense indexes (< n0): wire queries use
// dense indexes, and those shift under remove, so a generator reading the
// live point count would ask for indexes that no longer exist
// ("point index out of range"). Revisit once queries can name stable ids.

namespace {

/// What the updater connection saw.
struct UpdaterResult {
  Samples latency_s;
  double client_cpu_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t errors = 0;
  std::uint64_t epoch_regressions = 0;
  std::uint64_t last_epoch = 0;
  /// Coordinates of the first upserts, replayed for the dyn layer timings.
  std::vector<std::vector<double>> replay;
  /// Upserted ids whose remove failed (still live at the end).
  std::map<std::uint64_t, std::vector<double>> live_upserts;
};

std::string upsert_line(const std::vector<double>& coords) {
  std::string line = "upsert";
  char buf[40];
  for (const double c : coords) {
    std::snprintf(buf, sizeof(buf), " %.17g", c);
    line += buf;
  }
  return line;
}

void run_updater(serve::LineClient& client, const PointSet& points,
                 std::uint64_t seed, Clock::time_point deadline,
                 UpdaterResult* out) {
  const double cpu_start = thread_cpu_seconds();
  const mpte::BoundingBox box = mpte::BoundingBox::of(points);
  mpte::Rng rng(mpte::hash_combine(seed, 0xd1a));
  const auto roundtrip = [&](const std::string& line, const char* format,
                             unsigned long long* id) {
    const auto start = Clock::now();
    const auto reply = client.roundtrip(line);
    const double latency = seconds_since(start);
    ++out->sent;
    unsigned long long epoch = 0;
    if (!reply.ok() || std::sscanf(reply->c_str(), format, id, &epoch) != 2) {
      ++out->errors;
      return false;
    }
    out->latency_s.add(latency);
    if (epoch < out->last_epoch) ++out->epoch_regressions;
    out->last_epoch = epoch;
    return true;
  };
  while (Clock::now() < deadline) {
    // A jittered copy of an existing point, clamped into the pinned frame.
    const auto base = points[rng.uniform_u64(points.size())];
    std::vector<double> coords(base.begin(), base.end());
    for (std::size_t j = 0; j < coords.size(); ++j) {
      coords[j] = std::clamp(coords[j] + rng.normal(0.0, 1.0), box.lo()[j],
                             box.hi()[j]);
    }
    if (out->replay.size() < kReplayUpdates) out->replay.push_back(coords);
    unsigned long long id = 0;
    if (!roundtrip(upsert_line(coords), "ok upsert id=%llu epoch=%llu", &id)) {
      continue;
    }
    unsigned long long removed = 0;
    if (!roundtrip("remove " + std::to_string(id),
                   "ok remove id=%llu epoch=%llu", &removed) ||
        removed != id) {
      out->live_upserts[id] = coords;
    }
  }
  out->client_cpu_s += thread_cpu_seconds() - cpu_start;
}

}  // namespace

Report run_serve_update(const Args& args) {
  Report report;
  const PointSet points = serve_points(args.seed);
  const std::size_t n0 = points.size();
  mpte::dyn::DynamicEnsemble::Options dyn_options;
  dyn_options.trees = kTrees;
  dyn_options.member.seed = args.seed;

  Samples setup;
  std::unique_ptr<Deployment> live;
  mpte::EmbedOptions static_options;
  std::shared_ptr<const mpte::dyn::EnsembleEpoch> first_epoch;
  for (int r = 0; r < kSetupRepeats; ++r) {
    auto d = std::make_unique<Deployment>();
    BenchSpan span("setup");
    const auto start = Clock::now();
    auto dynamic = mpte::dyn::DynamicEnsemble::create(points, dyn_options);
    ++report.attempted;
    if (!dynamic.ok()) {
      ++report.failed_ops;
      report.check(false, "dynamic create: " + dynamic.status().to_string());
      return report;
    }
    static_options = (*dynamic)->member(0).static_equivalent_options();
    static_options.seed = args.seed;
    d->service = std::make_unique<serve::EmbeddingService>(std::move(*dynamic));
    if (!start_deployment(*d, 2, n0, report)) return report;
    setup.add(seconds_since(start));
    if (r + 1 == kSetupRepeats) {
      first_epoch = d->service->epoch_snapshot();
      live = std::move(d);
    }
  }
  const double setup_rss_mb = peak_rss_mb();

  std::vector<QueryClientResult> queries(1);
  UpdaterResult updates;
  std::atomic<bool> traced{false};
  RequestStream stream(args.seed, 0, n0);
  const double phase_cpu_s =
      timed_phase(args, traced, [&](Clock::time_point deadline) {
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      run_query_client(*live->clients[0], stream, 0, deadline, traced, true,
                       &queries[0]);
    });
    threads.emplace_back([&] {
      run_updater(*live->clients[1], points, args.seed, deadline, &updates);
    });
    return threads;
  });

  const QueryClientResult& q = queries[0];
  report.attempted += q.sent + updates.sent;
  report.failed_ops += q.errors + updates.errors;
  report.check(q.epoch_regressions == 0 && updates.epoch_regressions == 0,
               "epochs went backwards on a connection");
  report.check(updates.sent > 0, "no update completed in the timed phase");

  // Quiescent now: served answers must equal evaluate() on the final epoch.
  {
    QueryClientResult verify;
    RequestStream verify_stream(args.seed, 7, n0);
    std::atomic<bool> off{false};
    run_query_client(*live->clients[0], verify_stream, 7,
                     Clock::now() + std::chrono::milliseconds(200), off, false,
                     &verify);
    report.attempted += verify.sent;
    report.failed_ops += verify.errors;
    check_sampled_answers(*live->service, verify.sampled, "serve_update",
                          report);
  }

  // Every member must be byte-identical to a static rebuild over the final
  // point set (ascending stable ids = the dense order the epoch serves).
  const auto final_epoch = live->service->epoch_snapshot();
  PointSet final_points;
  std::size_t unknown_ids = 0;
  for (const std::uint64_t id : final_epoch->point_ids) {
    const auto upserted = updates.live_upserts.find(id);
    if (id < n0) {
      final_points.push_back(points[id]);
    } else if (upserted != updates.live_upserts.end()) {
      final_points.push_back(upserted->second);
    } else {
      ++unknown_ids;
    }
  }
  report.check(unknown_ids == 0, "final epoch serves " +
                                     std::to_string(unknown_ids) +
                                     " ids no update created");
  const auto rebuilt =
      mpte::EmbeddingEnsemble::build(final_points, static_options, kTrees);
  report.check(rebuilt.ok(), "static rebuild failed");
  if (rebuilt.ok()) {
    for (std::size_t t = 0; t < kTrees; ++t) {
      report.check(mpte::hst_to_bytes(final_epoch->ensemble->member(t).tree) ==
                       mpte::hst_to_bytes(rebuilt->member(t).tree),
                   "member " + std::to_string(t) +
                       " differs from its static rebuild");
    }
  }
  const double distortion =
      served_distortion(*first_epoch->ensemble, points, args.seed, report);
  report.details["queries"] = static_cast<double>(q.sent);
  report.details["query_p50_us"] = merged_latency(queries, false).median() * 1e6;
  report.details["query_p99_us"] =
      merged_latency(queries, false).quantile(0.99) * 1e6;
  report.details["final_epoch"] = static_cast<double>(final_epoch->version);

  // The operation here is one update round trip (upsert or remove): each
  // publishes an epoch, and the queries beside it are the read load.
  if (!args.trace) {
    report_end_to_end(
        report, setup, setup_rss_mb, updates.latency_s,
        (phase_cpu_s - q.client_cpu_s - updates.client_cpu_s) /
            static_cast<double>(updates.latency_s.size()),
        distortion);
    return report;
  }
  init_layer_metrics(report);
  report_serve_layers(*live->service, queries, args.seed, n0, report);
  // Set-up attribution with the options DynamicEnsemble::create resolves
  // from (auto Delta over the initial set), like serve_read's build.
  mpte::EmbedOptions build_options;
  build_options.seed = args.seed;
  report_setup_layers(points, build_options, args.seed, report);
  const Samples query_latency = merged_latency(queries, false);
  report.metric("dyn.query_p50_us", query_latency.median() * 1e6, "us");
  report.metric("dyn.query_p99_us", query_latency.quantile(0.99) * 1e6, "us");
  {
    mpte::obs::Registry registry;
    live->service->export_metrics(&registry);
    const double applied = static_cast<double>(
        registry.counter_value("mpte_dyn_updates_total"));
    report.metric("dyn.nodes_reembedded",
                  applied > 0 ? static_cast<double>(registry.counter_value(
                                    "mpte_dyn_nodes_reembedded_total")) /
                                    applied
                              : 0.0,
                  "count");
    report.metric("dyn.epochs",
                  static_cast<double>(registry.counter_value(
                      "mpte_dyn_epochs_published_total")),
                  "count");
  }
  // The dyn layer on its own: a private replica fed the same update stream,
  // publishing after every update as the server does for a lone update.
  auto replica = mpte::dyn::DynamicEnsemble::create(points, dyn_options);
  report.check(replica.ok(), "replica create failed");
  if (replica.ok()) {
    Samples insert_us, erase_us, publish_ms;
    for (const std::vector<double>& coords : updates.replay) {
      BenchSpan span("replay/update");
      auto start = Clock::now();
      const auto id = (*replica)->insert(coords);
      insert_us.add(seconds_since(start) * 1e6);
      report.check(id.ok(), "replica insert failed");
      if (!id.ok()) break;
      start = Clock::now();
      report.check((*replica)->publish().ok(), "replica publish failed");
      publish_ms.add(seconds_since(start) * 1e3);
      start = Clock::now();
      report.check((*replica)->erase(*id).ok(), "replica erase failed");
      erase_us.add(seconds_since(start) * 1e6);
      start = Clock::now();
      report.check((*replica)->publish().ok(), "replica publish failed");
      publish_ms.add(seconds_since(start) * 1e3);
    }
    report.metric("dyn.insert_us", insert_us.median(), "us");
    report.metric("dyn.erase_us", erase_us.median(), "us");
    report.metric("dyn.publish_ms", publish_ms.median(), "ms");
  }
  report_trace_overhead(report, query_latency, merged_latency(queries, true));
  return report;
}

}  // namespace perfbench
