// Tests for the live-inspection plane: the Prometheus text encoder, the
// RunStatus /status snapshot, the embedded ObsServer (real loopback
// sockets), the HostProfiler wall plane, trace-drop surfacing, and the
// determinism contract — a hammered scrape server must not change run
// results by a single bit.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/platform.h"
#include "src/obs/host_profiler.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/obs/prometheus.h"
#include "src/obs/run_status.h"
#include "src/obs/trace.h"

namespace flb {
namespace {

using obs::HistogramBucket;
using obs::MetricsRegistry;
using obs::MetricType;
using obs::MetricValue;
using obs::ObsServer;
using obs::RunStatus;
using obs::TraceRecorder;

// ---------------------------------------------------------------------------
// Prometheus encoder
// ---------------------------------------------------------------------------

TEST(PrometheusEncoder, SanitizesNames) {
  EXPECT_EQ(obs::PrometheusName("flb.net.reliable.retransmits"),
            "flb_net_reliable_retransmits");
  EXPECT_EQ(obs::PrometheusName("already_fine:ok"), "already_fine:ok");
  EXPECT_EQ(obs::PrometheusName("7seconds"), "_7seconds");
  EXPECT_EQ(obs::PrometheusName(""), "_");
  EXPECT_EQ(obs::PrometheusName("a-b c"), "a_b_c");
  // Label names additionally reject ':'.
  EXPECT_EQ(obs::PrometheusLabelName("le:gacy"), "le_gacy");
}

TEST(PrometheusEncoder, EscapesLabelValues) {
  EXPECT_EQ(obs::PrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(obs::PrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::PrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusLabelValue("a\nb"), "a\\nb");
}

TEST(PrometheusEncoder, ParsesCanonicalLabels) {
  const auto pairs = obs::ParseLabels("engine=FLBooster,key_bits=1024");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, "engine");
  EXPECT_EQ(pairs[0].second, "FLBooster");
  EXPECT_EQ(pairs[1].first, "key_bits");
  EXPECT_EQ(pairs[1].second, "1024");
  EXPECT_EQ(obs::PrometheusLabelSet(""), "");
  EXPECT_EQ(obs::PrometheusLabelSet("model=Homo LR"),
            "{model=\"Homo LR\"}");
}

TEST(PrometheusEncoder, RendersCountersAndGauges) {
  std::vector<MetricValue> metrics;
  MetricValue c;
  c.name = "flb.fl.epochs";
  c.labels = "model=homo_lr";
  c.type = MetricType::kCounter;
  c.value = 3;
  metrics.push_back(c);
  c.labels = "model=hetero_lr";
  c.value = 5;
  metrics.push_back(c);
  MetricValue g;
  g.name = "flb.host.queue_depth";
  g.type = MetricType::kGauge;
  g.value = 7;
  metrics.push_back(g);

  const std::string text = obs::RenderPrometheus(metrics);
  // One TYPE line per name, not per sample.
  EXPECT_NE(text.find("# TYPE flb_fl_epochs counter\n"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE flb_fl_epochs counter",
                      text.find("# TYPE flb_fl_epochs counter") + 1),
            std::string::npos);
  EXPECT_NE(text.find("flb_fl_epochs{model=\"homo_lr\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("flb_fl_epochs{model=\"hetero_lr\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE flb_host_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("flb_host_queue_depth 7\n"), std::string::npos);
}

TEST(PrometheusEncoder, RendersHistogramsCumulativeWithInf) {
  // Sparse registry-style snapshot: empty buckets omitted, no overflow
  // bucket recorded.
  MetricValue h;
  h.name = "flb.fl.epoch_seconds";
  h.type = MetricType::kHistogram;
  h.count = 6;
  h.value = 12.5;  // sum
  h.buckets.push_back(HistogramBucket{0.01, 2});
  h.buckets.push_back(HistogramBucket{1.0, 3});
  h.buckets.push_back(HistogramBucket{10.0, 1});

  const std::string text = obs::RenderPrometheus({h});
  EXPECT_NE(text.find("# TYPE flb_fl_epoch_seconds histogram\n"),
            std::string::npos);
  // Cumulative, not per-bucket: 2, 5, 6.
  EXPECT_NE(text.find("flb_fl_epoch_seconds_bucket{le=\"0.01\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("flb_fl_epoch_seconds_bucket{le=\"1\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("flb_fl_epoch_seconds_bucket{le=\"10\"} 6\n"),
            std::string::npos);
  // Explicit +Inf bucket synthesized with the total count.
  EXPECT_NE(text.find("flb_fl_epoch_seconds_bucket{le=\"+Inf\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("flb_fl_epoch_seconds_sum 12.5\n"), std::string::npos);
  EXPECT_NE(text.find("flb_fl_epoch_seconds_count 6\n"), std::string::npos);
}

TEST(PrometheusEncoder, RegistrySnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.Count("flb.test.ops", 2, "kind=a");
  registry.Set("flb.test.gauge", 4.25);
  registry.Observe("flb.test.lat", 0.5);
  registry.Observe("flb.test.lat", 2.0);

  const std::string text = obs::RenderPrometheus(registry.Collect());
  EXPECT_NE(text.find("flb_test_ops{kind=\"a\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("flb_test_gauge 4.25\n"), std::string::npos);
  EXPECT_NE(text.find("flb_test_lat_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("flb_test_lat_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  // Every histogram bucket series must be monotonically non-decreasing in
  // cumulative count; spot-check by scanning the rendered lines.
  size_t pos = 0;
  long last = -1;
  while ((pos = text.find("flb_test_lat_bucket", pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const long v = std::stol(text.substr(space + 1));
    EXPECT_GE(v, last);
    last = v;
    pos = space;
  }
}

// ---------------------------------------------------------------------------
// RunStatus
// ---------------------------------------------------------------------------

TEST(RunStatusTest, SnapshotLifecycle) {
  RunStatus status;
  EXPECT_EQ(status.phase(), "idle");

  obs::RunInfo info;
  info.engine = "FLBooster";
  info.model = "Homo LR";
  info.key_bits = 1024;
  info.parties = 4;
  info.seed = 42;
  status.BeginRun(info);
  EXPECT_EQ(status.phase(), "setup");
  const uint64_t gen_after_begin = status.generation();

  obs::EpochStatus epoch;
  epoch.epoch = 1;
  epoch.max_epochs = 5;
  epoch.loss = 0.25;
  obs::HeOpsStatus he;
  he.encrypts = 10;
  status.UpdateEpoch(epoch, he);
  EXPECT_EQ(status.phase(), "train");
  EXPECT_GT(status.generation(), gen_after_begin);

  obs::RunTotals totals;
  totals.total_seconds = 12.0;
  status.EndRun(totals, he);
  EXPECT_EQ(status.phase(), "done");

  status.NoteScrape("status");
  status.NoteScrape("bogus");
  const std::string json = status.ToJson();
  EXPECT_NE(json.find("\"phase\":\"done\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\":\"FLBooster\""), std::string::npos);
  EXPECT_NE(json.find("\"key_bits\":1024"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":{\"epoch\":1,\"max_epochs\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"encrypts\":10"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\":12"), std::string::npos);
  EXPECT_NE(json.find("\"status\":1"), std::string::npos);
  EXPECT_NE(json.find("\"other\":1"), std::string::npos);

  status.Reset();
  EXPECT_EQ(status.phase(), "idle");
  EXPECT_NE(status.ToJson().find("\"status\":0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ObsServer
// ---------------------------------------------------------------------------

// Minimal loopback HTTP client (blocking; Connection: close).
std::string HttpRequest(int port, const std::string& method,
                        const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) < 0) {
    ::close(fd);
    return "";
  }
  std::string response;
  char buf[4096];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ObsServerTest, HandleRoutesWithoutSockets) {
  EXPECT_EQ(ObsServer::Handle("GET", "/healthz").status, 200);
  EXPECT_EQ(ObsServer::Handle("GET", "/metrics").status, 200);
  EXPECT_EQ(ObsServer::Handle("GET", "/status").status, 200);
  EXPECT_EQ(ObsServer::Handle("GET", "/trace").status, 200);
  EXPECT_EQ(ObsServer::Handle("GET", "/metrics?x=1").status, 200);
  EXPECT_EQ(ObsServer::Handle("GET", "/nope").status, 404);
  EXPECT_EQ(ObsServer::Handle("POST", "/metrics").status, 405);
  EXPECT_EQ(
      ObsServer::Handle("GET", "/metrics").content_type,
      "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(ObsServer::Handle("GET", "/status").content_type,
            "application/json");
}

TEST(ObsServerTest, ServesAllEndpointsOverLoopback) {
  ObsServer::Options options;
  options.port = 0;  // ephemeral
  auto server = ObsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  ASSERT_GT(port, 0);

  const std::string healthz = HttpRequest(port, "GET", "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(Body(healthz), "ok\n");

  MetricsRegistry::Global().Count("flb.test.served", 1);
  const std::string metrics = HttpRequest(port, "GET", "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE flb_test_served counter"),
            std::string::npos);
  // Drop gauge folded into every /metrics scrape.
  EXPECT_NE(metrics.find("flb_obs_trace_dropped_events"), std::string::npos);

  const std::string status = HttpRequest(port, "GET", "/status");
  EXPECT_NE(status.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(status.find("application/json"), std::string::npos);
  EXPECT_NE(Body(status).find("\"phase\":"), std::string::npos);
  EXPECT_NE(Body(status).find("\"server\":{\"requests\":"),
            std::string::npos);

  const std::string trace = HttpRequest(port, "GET", "/trace");
  EXPECT_NE(trace.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(Body(trace).find("\"traceEvents\""), std::string::npos);

  EXPECT_NE(HttpRequest(port, "GET", "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(HttpRequest(port, "POST", "/metrics").find("HTTP/1.1 405"),
            std::string::npos);

  (*server)->Stop();
}

TEST(ObsServerTest, StartFailsCleanlyOnPortCollision) {
  ObsServer::Options options;
  options.port = 0;
  auto first = ObsServer::Start(options);
  ASSERT_TRUE(first.ok());
  options.port = (*first)->port();
  auto second = ObsServer::Start(options);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsIoError());
  (*first)->Stop();
}

// ---------------------------------------------------------------------------
// HostProfiler wall plane
// ---------------------------------------------------------------------------

TEST(HostProfilerTest, RecordsWallSpansAndMetrics) {
  auto& recorder = TraceRecorder::Global();
  const bool was_enabled = recorder.enabled();
  recorder.set_enabled(true);
  recorder.Clear();

  auto& profiler = obs::HostProfiler::Global();
  profiler.Enable();
  ASSERT_TRUE(profiler.enabled());
  ASSERT_EQ(common::ThreadPool::observer(), &profiler);

  // Tasks the profiler has seen so far, summed over workers (the global
  // profiler may already hold counts from earlier pools in this process).
  const auto profiled_tasks = [] {
    double total = 0.0;
    for (const auto& m : MetricsRegistry::Global().Collect()) {
      if (m.name == "flb.host.profiled_tasks") total += m.value;
    }
    return total;
  };
  const double tasks_before = profiled_tasks();

  common::ThreadPool pool(4);
  std::vector<double> out(4096, 0.0);
  pool.ParallelFor(static_cast<int64_t>(out.size()),
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       out[static_cast<size_t>(i)] =
                           std::sqrt(static_cast<double>(i));
                     }
                   });

  // Wall spans landed on the host.wall process.
  const std::string trace = recorder.ToJson();
  EXPECT_NE(trace.find("host.wall"), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"wall\""), std::string::npos);

  // Metrics source contributes the per-worker counters + contention plane.
  // Every chunk the ParallelFor issued (4096 elements over 4 workers = 16
  // chunks) is counted exactly once, whichever workers ran or stole it:
  // which worker runs any given chunk depends on scheduling.
  EXPECT_EQ(profiled_tasks() - tasks_before, 16.0);
  const std::string metrics =
      obs::RenderPrometheus(MetricsRegistry::Global().Collect());
  EXPECT_NE(metrics.find("flb_host_busy_ms{worker=\""), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE flb_host_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE flb_host_lock_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("flb_host_lock_wait_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);

  profiler.Disable();
  EXPECT_EQ(common::ThreadPool::observer(), nullptr);
  recorder.Clear();
  recorder.set_enabled(was_enabled);
}

TEST(HostProfilerTest, ObserverDoesNotChangeResults) {
  common::ThreadPool pool(3);
  const auto work = [](int64_t begin, int64_t end, std::vector<double>* out) {
    for (int64_t i = begin; i < end; ++i) {
      (*out)[static_cast<size_t>(i)] = std::sin(static_cast<double>(i)) * i;
    }
  };
  std::vector<double> baseline(10000, 0.0);
  pool.ParallelFor(10000, [&](int64_t b, int64_t e) { work(b, e, &baseline); });

  auto& profiler = obs::HostProfiler::Global();
  profiler.Enable();
  std::vector<double> observed(10000, 0.0);
  pool.ParallelFor(10000, [&](int64_t b, int64_t e) { work(b, e, &observed); });
  profiler.Disable();

  EXPECT_EQ(baseline, observed);  // bit-identical doubles
}

// ---------------------------------------------------------------------------
// Trace drop surfacing
// ---------------------------------------------------------------------------

TEST(TraceDropTest, DropsAreCountedAndPublished) {
  auto& recorder = TraceRecorder::Global();
  const bool was_enabled = recorder.enabled();
  recorder.set_enabled(true);
  recorder.Clear();
  recorder.set_max_events(4);

  const obs::Track track = recorder.RegisterTrack("test", "drops");
  for (int i = 0; i < 10; ++i) {
    recorder.Instant(track, "e" + std::to_string(i), "test",
                     static_cast<double>(i));
  }
  EXPECT_EQ(recorder.dropped_events(), 6u);
  EXPECT_NE(recorder.ToJson().find("\"dropped_events\":6"),
            std::string::npos);

  obs::PublishDropMetrics();
  bool found = false;
  for (const MetricValue& m : MetricsRegistry::Global().Collect()) {
    if (m.name == "flb.obs.trace.dropped_events") {
      found = true;
      EXPECT_EQ(m.type, MetricType::kGauge);
      EXPECT_DOUBLE_EQ(m.value, 6.0);
    }
  }
  EXPECT_TRUE(found);

  recorder.set_max_events(1000000);
  recorder.Clear();
  EXPECT_EQ(recorder.dropped_events(), 0u);
  recorder.set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Determinism: scraping a live run must not change its results
// ---------------------------------------------------------------------------

core::PlatformConfig ScrapeWorkload() {
  core::PlatformConfig cfg;
  cfg.engine = core::EngineKind::kFlBooster;
  cfg.model = core::FlModelKind::kHomoLr;
  cfg.key_bits = 256;
  cfg.modeled = true;
  cfg.num_parties = 4;
  cfg.host_threads = 4;
  cfg.train.max_epochs = 4;
  cfg.train.batch_size = 64;
  cfg.dataset.rows = 2048;
  cfg.dataset.cols = 64;
  cfg.dataset.nnz_per_row = 32;
  cfg.seed = 20230401;
  return cfg;
}

void ExpectIdenticalReports(const core::RunReport& a,
                            const core::RunReport& b) {
  ASSERT_EQ(a.train.epochs.size(), b.train.epochs.size());
  for (size_t i = 0; i < a.train.epochs.size(); ++i) {
    EXPECT_EQ(a.train.epochs[i].loss, b.train.epochs[i].loss);
    EXPECT_EQ(a.train.epochs[i].accuracy, b.train.epochs[i].accuracy);
    EXPECT_EQ(a.train.epochs[i].sim_seconds_cum,
              b.train.epochs[i].sim_seconds_cum);
    EXPECT_EQ(a.train.epochs[i].comm_bytes, b.train.epochs[i].comm_bytes);
  }
  EXPECT_EQ(a.train.final_loss, b.train.final_loss);
  EXPECT_EQ(a.train.converged, b.train.converged);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.he_seconds, b.he_seconds);
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  EXPECT_EQ(a.comm_messages, b.comm_messages);
  EXPECT_EQ(a.he_ops.encrypts, b.he_ops.encrypts);
  EXPECT_EQ(a.he_ops.decrypts, b.he_ops.decrypts);
  EXPECT_EQ(a.he_ops.values_encrypted, b.he_ops.values_encrypted);
  EXPECT_EQ(a.he_throughput, b.he_throughput);
  EXPECT_EQ(a.pack_ratio, b.pack_ratio);
}

TEST(ObsServerScrapeTest, LiveScrapesDoNotPerturbRun) {
  // Baseline: no server, no profiler.
  auto baseline = core::Platform::Run(ScrapeWorkload());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Same workload with the whole observability plane on and a client
  // hammering every endpoint from several threads for the duration.
  auto& recorder = TraceRecorder::Global();
  const bool was_enabled = recorder.enabled();
  recorder.set_enabled(true);
  ObsServer::Options options;
  options.port = 0;
  auto server = ObsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();
  obs::HostProfiler::Global().Enable();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::vector<std::thread> clients;
  const char* const kTargets[] = {"/metrics", "/status", "/trace",
                                  "/healthz"};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string response =
            HttpRequest(port, "GET", kTargets[c % 4]);
        if (!response.empty()) scrapes.fetch_add(1);
      }
    });
  }

  auto observed = core::Platform::Run(ScrapeWorkload());

  // The modeled run can outpace a scrape round-trip; the server stays up
  // after the run, so wait (bounded) until every endpoint was hit at least
  // once before releasing the clients.
  for (int i = 0; i < 500 && scrapes.load() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  obs::HostProfiler::Global().Disable();
  (*server)->Stop();
  recorder.Clear();
  recorder.set_enabled(was_enabled);

  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  EXPECT_GT(scrapes.load(), 0u);  // clients really did scrape mid-run
  ExpectIdenticalReports(*baseline, *observed);

  // The run left a coherent /status behind.
  const std::string status = RunStatus::Global().ToJson();
  EXPECT_NE(status.find("\"phase\":\"done\""), std::string::npos);
  EXPECT_NE(status.find("\"model\":\"Homo LR\""), std::string::npos);
}

TEST(ObsServerScrapeTest, ScrapesDuringCrashResumeAreBitIdentical) {
  // The resilience layer meets the observability plane: a chaos run whose
  // server crashes mid-training (forcing a checkpoint resume) while scrape
  // threads hammer every endpoint must produce the exact report of the
  // same chaos run with no scrapers — and the resume really happened.
  auto chaos_workload = [] {
    auto cfg = ScrapeWorkload();
    cfg.train.max_epochs = 6;
    // Server down across several mid-training rounds; a short per-message
    // retry budget makes the clients give up and ride the resume path.
    cfg.fault_plan = "seed=3;crash=server@0.3-1.2";
    cfg.reliable.deadline_sec = 0.05;
    cfg.run_deadline_sec = 600.0;  // simulated; bounds the run, never hit
    return cfg;
  };
  auto baseline = core::Platform::Run(chaos_workload());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GE(baseline->robustness.resumes, 1u);

  auto& recorder = TraceRecorder::Global();
  const bool was_enabled = recorder.enabled();
  recorder.set_enabled(true);
  ObsServer::Options options;
  options.port = 0;
  auto server = ObsServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = (*server)->port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::vector<std::thread> clients;
  const char* const kTargets[] = {"/metrics", "/status", "/trace",
                                  "/healthz"};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::string response =
            HttpRequest(port, "GET", kTargets[c % 4]);
        if (!response.empty()) scrapes.fetch_add(1);
      }
    });
  }

  auto observed = core::Platform::Run(chaos_workload());

  for (int i = 0; i < 500 && scrapes.load() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  (*server)->Stop();
  recorder.Clear();
  recorder.set_enabled(was_enabled);

  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  EXPECT_GT(scrapes.load(), 0u);
  ExpectIdenticalReports(*baseline, *observed);
  // The chaos accounting is part of the bit-identity contract too.
  EXPECT_EQ(baseline->robustness.resumes, observed->robustness.resumes);
  EXPECT_EQ(baseline->robustness.checkpoints, observed->robustness.checkpoints);
  EXPECT_EQ(baseline->robustness.transport_dropouts,
            observed->robustness.transport_dropouts);
  EXPECT_EQ(baseline->channel_stats.retransmits,
            observed->channel_stats.retransmits);
  EXPECT_EQ(baseline->breaker_stats.trips, observed->breaker_stats.trips);

  // The run left the resilience block behind in /status.
  const std::string status = RunStatus::Global().ToJson();
  EXPECT_NE(status.find("\"resilience\":{"), std::string::npos);
  EXPECT_NE(status.find("\"breaker_trips\":"), std::string::npos);
}

}  // namespace
}  // namespace flb
