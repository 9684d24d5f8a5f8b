// Stats-frame tests: StatsResponse encode/decode round trips and
// malformed-payload rejection, the scrape-only session over loopback
// and real TCP, a StatsRequest interleaved with probe batches, and the
// v1-peer rejection path. The suite name starts with "Distributed" so
// CI's TSan matrix picks it up (scrapes race serving threads).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assignment_test_util.h"
#include "distributed/transport/session.h"
#include "distributed/transport/transport.h"
#include "distributed/transport/wire.h"
#include "hosted_worker.h"
#include "obs/metrics.h"

namespace skewsearch {
namespace {

wire::StatsFrame SampleStats() {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.counter")->Increment(42);
  registry.GetGauge("b.gauge")->Set(-7);
  obs::Histogram* histogram = registry.GetHistogram("c.hist");
  histogram->Record(0);
  histogram->Record(5);
  histogram->Record(1000);
  wire::StatsFrame stats;
  stats.metrics = registry.Snapshot();
  return stats;
}

TEST(DistributedStatsTest, StatsResponseRoundTrip) {
  wire::StatsFrame stats = SampleStats();
  wire::Frame frame = wire::EncodeStatsResponse(stats);
  EXPECT_EQ(frame.type, wire::FrameType::kStatsResponse);

  wire::StatsFrame decoded;
  ASSERT_TRUE(wire::DecodeStatsResponse(frame, &decoded).ok());
  ASSERT_EQ(decoded.metrics.size(), 3u);

  EXPECT_EQ(decoded.metrics[0].name, "a.counter");
  EXPECT_EQ(decoded.metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(decoded.metrics[0].counter_value, 42u);

  EXPECT_EQ(decoded.metrics[1].name, "b.gauge");
  EXPECT_EQ(decoded.metrics[1].kind, obs::MetricKind::kGauge);
  EXPECT_EQ(decoded.metrics[1].gauge_value, -7);

  EXPECT_EQ(decoded.metrics[2].name, "c.hist");
  EXPECT_EQ(decoded.metrics[2].kind, obs::MetricKind::kHistogram);
  const obs::HistogramData& h = decoded.metrics[2].histogram;
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1005u);
  EXPECT_EQ(h.max, 1000u);
  ASSERT_EQ(h.buckets.size(), 3u);
  EXPECT_EQ(h.buckets[0], (std::pair<uint8_t, uint64_t>{0, 1}));
  EXPECT_EQ(h.buckets[1], (std::pair<uint8_t, uint64_t>{3, 1}));
  EXPECT_EQ(h.buckets[2], (std::pair<uint8_t, uint64_t>{10, 1}));

  // The rendered exposition survives the wire byte-for-byte.
  EXPECT_EQ(obs::RenderText(stats.metrics),
            obs::RenderText(decoded.metrics));
  EXPECT_EQ(obs::RenderJson(stats.metrics),
            obs::RenderJson(decoded.metrics));
}

TEST(DistributedStatsTest, EmptyStatsResponseRoundTrips) {
  wire::StatsFrame empty;
  wire::StatsFrame decoded;
  decoded.metrics.resize(3);  // must be cleared by the decoder
  ASSERT_TRUE(
      wire::DecodeStatsResponse(wire::EncodeStatsResponse(empty), &decoded)
          .ok());
  EXPECT_TRUE(decoded.metrics.empty());
}

TEST(DistributedStatsTest, DecodeRejectsUnsortedNames) {
  // The decoder enforces strictly increasing names — a frame with them
  // out of order (or duplicated) is corrupt, not just untidy.
  wire::StatsFrame stats = SampleStats();
  std::swap(stats.metrics[0], stats.metrics[1]);
  wire::StatsFrame decoded;
  EXPECT_FALSE(
      wire::DecodeStatsResponse(wire::EncodeStatsResponse(stats), &decoded)
          .ok());

  wire::StatsFrame duplicated = SampleStats();
  duplicated.metrics[1] = duplicated.metrics[0];
  EXPECT_FALSE(wire::DecodeStatsResponse(
                   wire::EncodeStatsResponse(duplicated), &decoded)
                   .ok());
}

TEST(DistributedStatsTest, DecodeRejectsTamperedPayload) {
  wire::Frame frame = wire::EncodeStatsResponse(SampleStats());
  wire::StatsFrame decoded;

  // Truncation anywhere must fail, never read out of bounds.
  for (size_t cut : {size_t{1}, frame.payload.size() / 2,
                     frame.payload.size() - 1}) {
    wire::Frame truncated = frame;
    truncated.payload.resize(cut);
    EXPECT_FALSE(wire::DecodeStatsResponse(truncated, &decoded).ok())
        << "cut at " << cut;
  }

  // Trailing garbage is rejected (the decoder checks full consumption).
  wire::Frame padded = frame;
  padded.payload.push_back(0);
  EXPECT_FALSE(wire::DecodeStatsResponse(padded, &decoded).ok());

  // A kind byte outside {counter, gauge, histogram}: the first metric's
  // kind sits right after the u32 count, u16 name length and name.
  wire::Frame bad_kind = frame;
  bad_kind.payload[4 + 2 + std::string("a.counter").size()] = 9;
  EXPECT_FALSE(wire::DecodeStatsResponse(bad_kind, &decoded).ok());
}

TEST(DistributedStatsTest, ScrapeOnlySessionOverLoopback) {
  obs::MetricsRegistry registry;
  registry.GetCounter("test.preexisting")->Increment(7);
  ServeOptions options;
  options.metrics = &registry;

  test::HostedWorker worker(options);
  std::unique_ptr<FrameConnection> scraper = worker.Connect();
  auto stats = ScrapeWorkerStats(scraper.get());
  scraper->Close();
  worker.Join();
  EXPECT_TRUE(worker.status().ok()) << worker.status().ToString();

  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  bool saw_preexisting = false, saw_scrapes = false;
  for (const obs::MetricSnapshot& m : stats->metrics) {
    if (m.name == "test.preexisting") {
      saw_preexisting = true;
      EXPECT_EQ(m.counter_value, 7u);
    }
    if (m.name == "worker.stats_scrapes") {
      saw_scrapes = true;
      EXPECT_EQ(m.counter_value, 1u);
    }
  }
  EXPECT_TRUE(saw_preexisting);
  EXPECT_TRUE(saw_scrapes);
}

TEST(DistributedStatsTest, ScrapeOnlySessionOverTcp) {
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.metrics = &registry;

  test::HostedWorker worker(options);
  std::unique_ptr<FrameConnection> client =
      worker.Connect(test::Transport::kTcp);
  auto stats = ScrapeWorkerStats(client.get());
  client->Close();
  worker.Join();
  EXPECT_TRUE(worker.status().ok()) << worker.status().ToString();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(registry.GetCounter("worker.stats_scrapes")->Value(), 1u);
}

TEST(DistributedStatsTest, StatsRequestInterleavesWithProbes) {
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.metrics = &registry;

  test::HostedWorker worker(options);
  const wire::Frame assignment =
      test::AssignmentFrame({{42, {1}}}, {{1, {3, 5}}});
  auto session =
      RemoteWorkerSession::Open(worker.Connect(), 0, 1, assignment);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Acknowledge(test::ExpectedAck(assignment)).ok());

  const std::vector<ItemId> probe_items = {3, 5};
  std::vector<ProbeRequest> batch(1);
  batch[0].left = 0;
  batch[0].items = probe_items;
  batch[0].keys = {42};
  ASSERT_TRUE(session->SendProbeBatch(batch).ok());
  auto responses = session->ReceiveResponses();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 1u);
  EXPECT_EQ((*responses)[0].matches.size(), 1u);

  // Mid-session scrape: the already-served batch must be visible.
  auto stats = session->QueryStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  bool saw_batches = false;
  for (const obs::MetricSnapshot& m : stats->metrics) {
    if (m.name == "worker.batches") {
      saw_batches = true;
      EXPECT_EQ(m.counter_value, 1u);
    }
  }
  EXPECT_TRUE(saw_batches);

  // The session keeps serving probes after the scrape.
  ASSERT_TRUE(session->SendProbeBatch(batch).ok());
  responses = session->ReceiveResponses();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_TRUE(session->Shutdown().ok());
  worker.Join();
  EXPECT_TRUE(worker.status().ok()) << worker.status().ToString();
  EXPECT_EQ(worker.stats().batches, 2u);
}

TEST(DistributedStatsTest, AssignmentTimeIsOneSamplePerAssignment) {
  // worker.assignment_ns times each Assignment's decode, validation and
  // adoption or rebuild: one sample after the attach, two after a re-ship.
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.metrics = &registry;
  test::HostedWorker worker(options);
  const wire::Frame assignment =
      test::AssignmentFrame({{42, {1}}}, {{1, {3, 5}}});
  auto session =
      RemoteWorkerSession::Open(worker.Connect(), 0, 1, assignment);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Acknowledge(test::ExpectedAck(assignment)).ok());
  auto samples = [&]() -> uint64_t {
    auto stats = session->QueryStats();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) return 0;
    for (const obs::MetricSnapshot& m : stats->metrics) {
      if (m.name == "worker.assignment_ns") return m.histogram.count;
    }
    ADD_FAILURE() << "no worker.assignment_ns in the scrape";
    return 0;
  };
  EXPECT_EQ(samples(), 1u);
  // A re-ship must open the next epoch; the session sends nothing else.
  const wire::Frame skipped = test::AssignmentFrame(
      {{43, {2}}}, {{2, {3, 7}}}, 0.5, /*epoch=*/2);
  EXPECT_TRUE(session->Reassign(skipped, test::ExpectedAck(skipped))
                  .IsInvalidArgument());
  const wire::Frame reship = test::AssignmentFrame(
      {{42, {1}}, {43, {2}}}, {{1, {3, 5}}, {2, {3, 7}}}, 0.5, /*epoch=*/1);
  ASSERT_TRUE(session->Reassign(reship, test::ExpectedAck(reship)).ok());
  EXPECT_EQ(session->epoch(), 1u);
  EXPECT_EQ(samples(), 2u);
  EXPECT_TRUE(session->Shutdown().ok());
  worker.Join();
  EXPECT_TRUE(worker.status().ok()) << worker.status().ToString();
  EXPECT_EQ(worker.stats().reassignments, 1u);
}

TEST(DistributedStatsTest, ScrapeRejectsV1OnlyWorker) {
  // ScrapeWorkerStats against a peer that acks version 1 must fail with
  // NotSupported before sending any StatsRequest.
  auto [scraper, fake_worker] = LoopbackPair();
  std::thread worker([conn = std::move(fake_worker)]() mutable {
    wire::Frame frame;
    ASSERT_TRUE(conn->Receive(&frame).ok());
    wire::HelloFrame hello;
    ASSERT_TRUE(wire::DecodeHello(frame, &hello).ok());
    wire::HelloAckFrame ack;
    ack.version = 1;  // v1-only worker
    ack.worker_id = hello.worker_id;
    ASSERT_TRUE(conn->Send(wire::EncodeHelloAck(ack)).ok());
    conn->Receive(&frame).ok();  // whatever comes next (close or frame)
  });
  auto stats = ScrapeWorkerStats(scraper.get());
  EXPECT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsNotSupported())
      << stats.status().ToString();
  worker.join();
}

}  // namespace
}  // namespace skewsearch
