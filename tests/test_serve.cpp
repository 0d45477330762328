// Tests for the `glva serve` subsystem: framed codec (including
// truncation, oversize, and garbage inputs), the request schema, cache
// key canonicalization, the LRU result cache, FIFO admission control,
// and end-to-end daemon behaviour — above all that a daemon response
// body is byte-identical to the CLI output for the same flags.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "app/commands.h"
#include "app/request.h"
#include "obs/metrics.h"
#include "sbml/model.h"
#include "sbml/writer.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace {

using glva::app::Request;
using glva::app::run_cli;
using glva::serve::AdmissionController;
using glva::serve::FrameDecoder;
using glva::serve::Json;
using glva::serve::ProtocolError;
using glva::serve::ResultCache;
using glva::serve::Server;
using glva::serve::ServerOptions;
using glva::serve::WireRequest;

std::string cli_stdout(const std::vector<std::string>& args,
                       int expected_code) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  EXPECT_EQ(code, expected_code) << err.str();
  return out.str();
}

// ---------------------------------------------------------------------------
// Framed codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsPayloads) {
  FrameDecoder decoder;
  const std::string frame = glva::serve::encode_frame("hello");
  ASSERT_EQ(frame.size(), 9u);
  decoder.feed(frame.data(), frame.size());
  const auto payload = decoder.take_frame();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(decoder.take_frame().has_value());
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodec, EmptyPayloadFrame) {
  FrameDecoder decoder;
  const std::string frame = glva::serve::encode_frame("");
  decoder.feed(frame.data(), frame.size());
  const auto payload = decoder.take_frame();
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(payload->empty());
}

TEST(FrameCodec, ByteAtATimeDelivery) {
  FrameDecoder decoder;
  const std::string stream = glva::serve::encode_frame("first") +
                             glva::serve::encode_frame("") +
                             glva::serve::encode_frame("third");
  std::vector<std::string> frames;
  for (const char byte : stream) {
    decoder.feed(&byte, 1);
    while (auto frame = decoder.take_frame()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "first");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], "third");
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameCodec, TruncatedFrameStaysPending) {
  FrameDecoder decoder;
  const std::string frame = glva::serve::encode_frame("truncated");
  decoder.feed(frame.data(), frame.size() - 3);
  EXPECT_FALSE(decoder.take_frame().has_value());
  EXPECT_GT(decoder.pending_bytes(), 0u);
  // Completing the frame releases it.
  decoder.feed(frame.data() + frame.size() - 3, 3);
  const auto payload = decoder.take_frame();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "truncated");
}

TEST(FrameCodec, PartialLengthPrefixStaysPending) {
  FrameDecoder decoder;
  const char two_bytes[] = {0x05, 0x00};
  decoder.feed(two_bytes, 2);
  EXPECT_FALSE(decoder.take_frame().has_value());
  EXPECT_EQ(decoder.pending_bytes(), 2u);
}

TEST(FrameCodec, OversizeLengthRejectedBeforeBuffering) {
  FrameDecoder decoder(16);
  // Length prefix claims 1 MiB: must throw as soon as the prefix is
  // readable, without waiting for (or buffering) the payload.
  const char prefix[] = {0x00, 0x00, 0x10, 0x00};
  EXPECT_THROW(decoder.feed(prefix, 4), ProtocolError);
}

TEST(FrameCodec, OversizeSecondFrameRejectedAtTakeTime) {
  FrameDecoder decoder(16);
  const std::string good = glva::serve::encode_frame("ok");
  std::string stream = good;
  const char prefix[] = {0x00, 0x00, 0x10, 0x00};
  stream.append(prefix, 4);
  // The hostile prefix rides in the same read as the good frame.
  EXPECT_THROW(
      {
        decoder.feed(stream.data(), stream.size());
        while (decoder.take_frame().has_value()) {
        }
      },
      ProtocolError);
}

TEST(FrameCodec, GarbagePayloadIsAJsonError) {
  EXPECT_THROW(glva::serve::parse_json("\x01\x02garbage"), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json(""), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json("{\"op\":"), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json("{} trailing"), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json("01"), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json("\"unterminated"), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json("\"bad \\q escape\""), ProtocolError);
  EXPECT_THROW(glva::serve::parse_json("\"lone \\ud800 surrogate\""),
               ProtocolError);
  std::string deep(100, '[');
  EXPECT_THROW(glva::serve::parse_json(deep), ProtocolError);
}

TEST(FrameCodec, JsonRoundTripPreservesNumberTokens) {
  // A full-range u64 seed must survive parse → dump byte-for-byte (a
  // double would corrupt it).
  const std::string doc = "{\"seed\":18446744073709551615,\"x\":-1.25e3}";
  EXPECT_EQ(glva::serve::parse_json(doc).dump(), doc);
}

TEST(FrameCodec, JsonStringEscapes) {
  const Json parsed =
      glva::serve::parse_json("\"a\\n\\t\\\"b\\\\\\u0041\\u00e9\"");
  EXPECT_EQ(parsed.string, "a\n\t\"b\\A\xC3\xA9");
  // Control characters re-escape on dump.
  EXPECT_EQ(Json::of(std::string("x\ny")).dump(), "\"x\\ny\"");
}

// ---------------------------------------------------------------------------
// Request schema
// ---------------------------------------------------------------------------

TEST(WireSchema, ParsesArgvStyleOptions) {
  const WireRequest wire = glva::serve::parse_wire_request(
      glva::serve::parse_json("{\"op\":\"verify\",\"target\":\"0x0B\","
                              "\"options\":[\"--seed\",\"7\"],\"id\":3}"));
  EXPECT_EQ(wire.op, "verify");
  EXPECT_EQ(wire.target, "0x0B");
  ASSERT_EQ(wire.options.size(), 2u);
  EXPECT_EQ(wire.options[0], "--seed");
  EXPECT_EQ(wire.options[1], "7");
  EXPECT_EQ(wire.id.dump(), "3");
}

TEST(WireSchema, FlattensOptionObjects) {
  const WireRequest wire = glva::serve::parse_wire_request(
      glva::serve::parse_json("{\"op\":\"ensemble\",\"target\":\"0x1\","
                              "\"options\":{\"seed\":42,\"two-stage\":true,"
                              "\"redigitize\":false,\"method\":\"direct\"}}"));
  const std::vector<std::string> expected = {"--seed", "42", "--two-stage",
                                             "--method", "direct"};
  EXPECT_EQ(wire.options, expected);
}

TEST(WireSchema, RejectsSchemaViolations) {
  using glva::serve::parse_wire_request;
  EXPECT_THROW(parse_wire_request(glva::serve::parse_json("[]")),
               ProtocolError);
  EXPECT_THROW(parse_wire_request(glva::serve::parse_json("{}")),
               ProtocolError);
  EXPECT_THROW(parse_wire_request(
                   glva::serve::parse_json("{\"op\":\"verify\",\"options\":"
                                           "\"--seed 7\"}")),
               ProtocolError);
  EXPECT_THROW(parse_wire_request(glva::serve::parse_json(
                   "{\"op\":\"verify\",\"options\":[7]}")),
               ProtocolError);
  EXPECT_THROW(parse_wire_request(glva::serve::parse_json(
                   "{\"op\":\"verify\",\"id\":[1]}")),
               ProtocolError);
}

// ---------------------------------------------------------------------------
// Cache key canonicalization
// ---------------------------------------------------------------------------

Request make_request(const std::vector<std::string>& options,
                     Request::Op op = Request::Op::kVerify,
                     const std::string& target = "0x0B") {
  return glva::app::parse_request(op, target, options);
}

TEST(CanonicalKey, FlagOrderAndSpelledDefaultsHashIdentically) {
  const Request terse = make_request({"--seed", "7"});
  const Request spelled = make_request(
      {"--threshold", "15", "--method", "direct", "--seed", "7",
       "--fov-ud", "0.25", "--sink", "mem",
       "--total-time", "10000", "--sampling-period", "1"});
  EXPECT_EQ(glva::app::canonical_key(terse),
            glva::app::canonical_key(spelled));
  EXPECT_EQ(glva::app::request_fingerprint(terse),
            glva::app::request_fingerprint(spelled));
}

TEST(CanonicalKey, EverySemanticFieldChangesTheKey) {
  const std::string base = glva::app::canonical_key(make_request({}));
  const std::vector<std::vector<std::string>> variants = {
      {"--seed", "2"},
      {"--threshold", "16"},
      {"--fov-ud", "0.3"},
      {"--total-time", "9999"},
      {"--sampling-period", "2"},
      {"--method", "next-reaction"},
      {"--two-stage"},
      {"--no-timings"},
  };
  for (const auto& options : variants) {
    EXPECT_NE(glva::app::canonical_key(make_request(options)), base)
        << "option set did not change the key: " << options.front();
  }
  // Different target and different op change the key too.
  EXPECT_NE(glva::app::canonical_key(
                make_request({}, Request::Op::kVerify, "0x1")),
            base);
  EXPECT_NE(glva::app::canonical_key(make_request(
                {"--thresholds", "15"}, Request::Op::kSweep)),
            base);
  // Check requests: the property list and the PASS threshold are
  // semantic; property spelling is canonicalized before keying.
  const std::string check_base = glva::app::canonical_key(
      make_request({"--property", "G GFP"}, Request::Op::kCheck));
  EXPECT_NE(glva::app::canonical_key(
                make_request({"--property", "F GFP"}, Request::Op::kCheck)),
            check_base);
  EXPECT_NE(glva::app::canonical_key(make_request(
                {"--property", "G GFP", "--min-satisfaction", "0.9"},
                Request::Op::kCheck)),
            check_base);
  EXPECT_EQ(glva::app::canonical_key(
                make_request({"--property", "G(GFP)"}, Request::Op::kCheck)),
            check_base);
}

TEST(CanonicalKey, PlacementOnlyFieldsAreExcluded) {
  // spill_dir and sink choose what is archived where: neither can change
  // a response byte.
  const std::string base = glva::app::canonical_key(make_request({}));
  const std::vector<std::vector<std::string>> variants = {
      {"--sink", "spill", "--spill-dir", "/tmp/a"},
      {"--sink", "spill", "--spill-dir", "/tmp/b"},
      {"--sink", "digitize"},
  };
  for (const auto& options : variants) {
    EXPECT_EQ(glva::app::canonical_key(make_request(options)), base)
        << "option set changed the key: " << options.front();
  }
}

TEST(CanonicalKey, ThresholdGridIsExact) {
  const auto key = [](const std::string& grid) {
    return glva::app::canonical_key(
        make_request({"--thresholds", grid}, Request::Op::kSweep));
  };
  EXPECT_EQ(key("3,15,40"), key(" 3 , 15 , 40 "));
  EXPECT_NE(key("3,15,40"), key("3,15"));
  EXPECT_NE(key("3,15,40"), key("3,15.0000001,40"));
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST(ResultCacheTest, HitMissAndCounters) {
  ResultCache cache(1 << 20);
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", 0, "body-a");
  const auto hit = cache.get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->exit_code, 0);
  EXPECT_EQ(hit->body, "body-a");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCacheTest, LruEvictionUnderByteBudget) {
  // Budget for two entries (each costs ~160 + key + body).
  ResultCache cache(500);
  cache.put("k1", 0, std::string(32, 'a'));
  cache.put("k2", 0, std::string(32, 'b'));
  // Touch k1 so k2 is the LRU victim.
  EXPECT_TRUE(cache.get("k1").has_value());
  cache.put("k3", 0, std::string(32, 'c'));
  EXPECT_TRUE(cache.get("k1").has_value());
  EXPECT_FALSE(cache.get("k2").has_value());
  EXPECT_TRUE(cache.get("k3").has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 500u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesAndOversizeIsSkipped) {
  ResultCache disabled(0);
  disabled.put("k", 0, "body");
  EXPECT_FALSE(disabled.get("k").has_value());
  EXPECT_EQ(disabled.stats().entries, 0u);

  ResultCache small(200);
  small.put("big", 0, std::string(4096, 'x'));  // larger than the budget
  EXPECT_FALSE(small.get("big").has_value());
  EXPECT_EQ(small.stats().entries, 0u);
  EXPECT_EQ(small.stats().evictions, 0u);
}

TEST(ResultCacheTest, ReinsertOnlyRefreshes) {
  ResultCache cache(1 << 20);
  cache.put("k", 0, "body");
  cache.put("k", 0, "body");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(Admission, DepthOneQueueRejectsExcessImmediately) {
  AdmissionController controller({/*max_active=*/1, /*max_queued=*/0});
  auto first = controller.try_admit();
  ASSERT_TRUE(first.has_value());
  // One slot, zero queue: the second arrival must be rejected without
  // blocking.
  EXPECT_FALSE(controller.try_admit().has_value());
  EXPECT_EQ(controller.stats().rejected, 1u);
  first.reset();  // release
  auto second = controller.try_admit();
  EXPECT_TRUE(second.has_value());
  const auto stats = controller.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Admission, FifoGrantOrder) {
  AdmissionController controller({/*max_active=*/1, /*max_queued=*/3});
  auto holder = controller.try_admit();
  ASSERT_TRUE(holder.has_value());

  std::vector<int> order;
  std::mutex order_mutex;
  std::vector<std::thread> waiters;
  for (int i = 1; i <= 3; ++i) {
    waiters.emplace_back([&, i] {
      auto ticket = controller.try_admit();
      ASSERT_TRUE(ticket.has_value());
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(i);
      // Ticket released at scope end: the next waiter is granted only
      // after this one finishes, so `order` records the grant order.
    });
    // Sequence arrivals: wait until waiter i is queued before spawning
    // the next, so ticket numbers match spawn order.
    while (controller.stats().queued <
           static_cast<std::size_t>(i)) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(controller.stats().peak_queued, 3u);
  holder.reset();  // open the flood gate
  for (auto& thread : waiters) thread.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(controller.stats().admitted, 4u);
}

TEST(Admission, CloseDrainsWaitersAndRejectsArrivals) {
  AdmissionController controller({/*max_active=*/1, /*max_queued=*/4});
  auto holder = controller.try_admit();
  ASSERT_TRUE(holder.has_value());
  std::atomic<int> drained{0};
  std::thread waiter([&] {
    EXPECT_FALSE(controller.try_admit().has_value());
    drained.fetch_add(1);
  });
  while (controller.stats().queued < 1) std::this_thread::yield();
  controller.close();
  waiter.join();
  EXPECT_EQ(drained.load(), 1);
  EXPECT_FALSE(controller.try_admit().has_value());
}

// ---------------------------------------------------------------------------
// End to end: dispatch + daemon/CLI byte identity
// ---------------------------------------------------------------------------

std::string analysis_payload(const std::string& op, const std::string& target,
                             std::vector<std::string> options) {
  std::vector<Json> items;
  items.reserve(options.size());
  for (auto& option : options) items.push_back(Json::of(std::move(option)));
  return Json::object_of({{"op", Json::of(op)},
                          {"target", Json::of(target)},
                          {"options", Json::array_of(std::move(items))},
                          {"id", Json::of_u64(1)}})
      .dump();
}

struct ParsedResponse {
  bool ok = false;
  bool cached = false;
  int exit_code = -1;
  std::string body;
  std::string error_kind;
};

ParsedResponse parse_response(const std::string& payload) {
  const Json json = glva::serve::parse_json(payload);
  ParsedResponse response;
  if (const Json* ok = json.find("ok")) response.ok = ok->boolean;
  if (const Json* cached = json.find("cached")) {
    response.cached = cached->boolean;
  }
  if (const Json* code = json.find("exit_code")) {
    response.exit_code = std::stoi(code->number);
  }
  if (const Json* body = json.find("body")) response.body = body->string;
  if (const Json* error = json.find("error")) {
    if (const Json* kind = error->find("kind")) {
      response.error_kind = kind->string;
    }
  }
  return response;
}

ServerOptions small_server_options() {
  ServerOptions options;
  options.jobs = 2;
  return options;
}

TEST(ServeEndToEnd, VerifyBodyIsByteIdenticalToCli) {
  // 0x0B needs ~4000 tu to settle into the intended logic (exit 0).
  const std::vector<std::string> flags = {"--total-time", "4000", "--seed",
                                          "7", "--no-timings"};
  std::vector<std::string> cli_args = {"verify", "0x0B"};
  cli_args.insert(cli_args.end(), flags.begin(), flags.end());
  const std::string cli_output = cli_stdout(cli_args, 0);

  Server server(small_server_options());
  const ParsedResponse response =
      parse_response(server.dispatch(analysis_payload("verify", "0x0B", flags)));
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.cached);
  EXPECT_EQ(response.exit_code, 0);
  EXPECT_EQ(response.body, cli_output);
}

TEST(ServeEndToEnd, EnsembleBodyIsByteIdenticalToCli) {
  const std::vector<std::string> flags = {"--replicates", "3", "--total-time",
                                          "2000", "--seed", "42"};
  std::vector<std::string> cli_args = {"ensemble", "0x1", "--jobs", "2"};
  cli_args.insert(cli_args.end(), flags.begin(), flags.end());
  const std::string cli_output = cli_stdout(cli_args, 0);

  Server server(small_server_options());
  const ParsedResponse response = parse_response(
      server.dispatch(analysis_payload("ensemble", "0x1", flags)));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.body, cli_output);
}

TEST(ServeEndToEnd, SweepBodyIsByteIdenticalToCli) {
  const std::vector<std::string> flags = {"--thresholds", "3,15",
                                          "--total-time", "300"};
  std::vector<std::string> cli_args = {"sweep", "0x0B", "--jobs", "2"};
  cli_args.insert(cli_args.end(), flags.begin(), flags.end());
  const std::string cli_output = cli_stdout(cli_args, 1);

  Server server(small_server_options());
  const ParsedResponse response = parse_response(
      server.dispatch(analysis_payload("sweep", "0x0B", flags)));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.exit_code, 1);  // thresholds 3 breaks the logic
  EXPECT_EQ(response.body, cli_output);
}

TEST(ServeEndToEnd, CheckBodyIsByteIdenticalToCli) {
  const std::vector<std::string> flags = {
      "--property", "(C->F[0,400]GFP)&noglitch[5]GFP", "--replicates", "2",
      "--total-time", "4000", "--min-satisfaction", "0.5", "--seed", "42"};
  std::vector<std::string> cli_args = {"check", "0x0B", "--jobs", "2"};
  cli_args.insert(cli_args.end(), flags.begin(), flags.end());
  const std::string cli_output = cli_stdout(cli_args, 0);

  Server server(small_server_options());
  const ParsedResponse response = parse_response(
      server.dispatch(analysis_payload("check", "0x0B", flags)));
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.cached);
  EXPECT_EQ(response.exit_code, 0);
  EXPECT_EQ(response.body, cli_output);
  // Spelling variants of the same property share a cache line: the
  // canonical property text keys the request, not the typed spelling.
  const ParsedResponse respelled = parse_response(server.dispatch(
      analysis_payload("check", "0x0B",
                       {"--property", "( C -> F[0,400] GFP )&noglitch[5] GFP",
                        "--replicates", "2", "--total-time", "4000",
                        "--min-satisfaction", "0.5", "--seed", "42"})));
  ASSERT_TRUE(respelled.ok);
  EXPECT_TRUE(respelled.cached);
  EXPECT_EQ(respelled.body, cli_output);
}

TEST(ServeEndToEnd, SecondIdenticalRequestIsACacheHit) {
  Server server(small_server_options());
  const std::string payload = analysis_payload(
      "verify", "0x0B", {"--total-time", "400", "--no-timings"});
  const ParsedResponse first = parse_response(server.dispatch(payload));
  const ParsedResponse second = parse_response(server.dispatch(payload));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(server.cache_stats().hits, 1u);
  // Equivalent spelling (defaults written out, different flag order) hits
  // the same cache line.
  const ParsedResponse respelled = parse_response(server.dispatch(
      analysis_payload("verify", "0x0B",
                       {"--no-timings", "--seed", "1", "--threshold", "15",
                        "--total-time", "400"})));
  ASSERT_TRUE(respelled.ok);
  EXPECT_TRUE(respelled.cached);
  EXPECT_EQ(respelled.body, first.body);
}

TEST(ServeEndToEnd, ErrorsCarryStructuredKinds) {
  Server server(small_server_options());
  EXPECT_EQ(parse_response(server.dispatch("not json")).error_kind,
            "protocol");
  EXPECT_EQ(parse_response(server.dispatch("{\"op\":\"dance\"}")).error_kind,
            "invalid_argument");
  EXPECT_EQ(parse_response(
                server.dispatch("{\"op\":\"verify\"}"))  // missing target
                .error_kind,
            "protocol");
  EXPECT_EQ(parse_response(server.dispatch(analysis_payload(
                                "verify", "0x0B", {"--method", "psychic"})))
                .error_kind,
            "invalid_argument");
  EXPECT_EQ(parse_response(server.dispatch(analysis_payload(
                                "verify", "no-such-circuit", {})))
                .error_kind,
            "invalid_argument");
}

TEST(ServeEndToEnd, StatusAndVersionOps) {
  Server server(small_server_options());
  static_cast<void>(server.dispatch(analysis_payload(
      "verify", "0x0B", {"--total-time", "400", "--no-timings"})));

  const Json status = glva::serve::parse_json(
      server.dispatch(Json::object_of({{"op", Json::of("status")}}).dump()));
  const Json* result = status.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("cache"), nullptr);
  EXPECT_EQ(result->find("cache")->find("insertions")->number, "1");
  EXPECT_EQ(result->find("requests")->find("executed")->number, "1");
  EXPECT_EQ(result->find("jobs")->number, "2");

  const ParsedResponse version = parse_response(
      server.dispatch(Json::object_of({{"op", Json::of("version")}}).dump()));
  ASSERT_TRUE(version.ok);
  EXPECT_NE(version.body.find("glva "), std::string::npos);
  EXPECT_NE(version.body.find("simd active:"), std::string::npos);
}

TEST(ServeEndToEnd, StatsOpReturnsMetricsSnapshot) {
  Server server(small_server_options());
  static_cast<void>(server.dispatch(analysis_payload(
      "verify", "0x0B", {"--total-time", "400", "--no-timings"})));

  const Json stats = glva::serve::parse_json(
      server.dispatch(Json::object_of({{"op", Json::of("stats")}}).dump()));
  ASSERT_NE(stats.find("ok"), nullptr);
  EXPECT_TRUE(stats.find("ok")->boolean);
  const Json* result = stats.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->is_object());

  // The schema is stable even under GLVA_NO_METRICS: every section is
  // present, just empty, with metrics_enabled flagging the build.
  const Json* enabled = result->find("metrics_enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_EQ(enabled->kind, Json::Kind::kBool);
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const Json* member = result->find(section);
    ASSERT_NE(member, nullptr) << section;
    EXPECT_TRUE(member->is_object()) << section;
  }

  if (glva::obs::metrics_enabled()) {
    EXPECT_TRUE(enabled->boolean);
    // Counters are process-global across tests, so assert presence and
    // lower bounds rather than exact values.
    const Json* counters = result->find("counters");
    for (const char* name :
         {"serve.requests.received", "serve.requests.executed",
          "serve.cache.misses", "serve.cache.insertions"}) {
      const Json* value = counters->find(name);
      ASSERT_NE(value, nullptr) << name;
      EXPECT_GE(std::stoull(value->number), 1u) << name;
    }
    const Json* verify_latency =
        result->find("histograms")->find("serve.latency_us.verify");
    ASSERT_NE(verify_latency, nullptr);
    for (const char* field : {"count", "sum", "p50", "p95", "p99"}) {
      EXPECT_NE(verify_latency->find(field), nullptr) << field;
    }
    EXPECT_GE(std::stoull(verify_latency->find("count")->number), 1u);
  } else {
    EXPECT_FALSE(enabled->boolean);
  }
}

TEST(ServeEndToEnd, StatsOpServesTheMetricsOutDocument) {
  // Test-local instruments carry exact values; every other instrument is
  // process-wide, so it is compared by name, kind and buckets only.
  static int runs = 0;
  const std::string p = "test.serve.stats." + std::to_string(runs++) + ".";
  glva::obs::counter(p + "counter").add(5);
  glva::obs::Histogram& hist = glva::obs::histogram(p + "hist");
  for (const double v : {0.1, 0.2, 1e7 + 0.123}) hist.observe(v);

  Server server(small_server_options());
  const std::string request =
      Json::object_of({{"op", Json::of("stats")}}).dump();
  // The first stats op registers the op's own instruments. The document
  // is then read between two stats ops: each observes its latency after
  // rendering, so no histogram moves between the document and the reply.
  static_cast<void>(server.dispatch(request));
  const Json document =
      glva::serve::parse_json(glva::obs::render_json(glva::obs::snapshot()));
  const Json stats = glva::serve::parse_json(server.dispatch(request));
  const Json* result = stats.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_TRUE(result->is_object());
  ASSERT_EQ(result->object.size(), document.object.size() + 1);
  EXPECT_EQ(result->object.front().first, "metrics_enabled");
  EXPECT_EQ(result->object.front().second.boolean,
            glva::obs::metrics_enabled());

  for (std::size_t i = 0; i < document.object.size(); ++i) {
    const auto& [section, want] = document.object[i];
    const auto& [got_section, got] = result->object[i + 1];
    SCOPED_TRACE(section);
    EXPECT_EQ(got_section, section);
    ASSERT_EQ(got.object.size(), want.object.size());
    for (std::size_t j = 0; j < want.object.size(); ++j) {
      const auto& [name, want_value] = want.object[j];
      const auto& [got_name, got_value] = got.object[j];
      EXPECT_EQ(got_name, name);
      EXPECT_EQ(got_value.kind, want_value.kind) << name;
      if (const Json* buckets = want_value.find("buckets")) {
        const Json* got_buckets = got_value.find("buckets");
        ASSERT_NE(got_buckets, nullptr) << name;
        EXPECT_EQ(got_buckets->dump(), buckets->dump()) << name;
      }
    }
  }

  if (!glva::obs::metrics_enabled()) return;
  const Json* counter = result->find("counters")->find(p + "counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number, "5");
  const Json* got_hist = result->find("histograms")->find(p + "hist");
  ASSERT_NE(got_hist, nullptr);
  EXPECT_EQ(got_hist->dump(),
            document.find("histograms")->find(p + "hist")->dump());
  EXPECT_EQ(got_hist->find("count")->number, "3");
  EXPECT_EQ(std::strtod(got_hist->find("sum")->number.c_str(), nullptr),
            (0.1 + 0.2) + (1e7 + 0.123));
}

TEST(ServeEndToEnd, TraceFieldAttachesStageSpans) {
  Server server(small_server_options());
  const std::string payload =
      Json::object_of(
          {{"op", Json::of("verify")},
           {"target", Json::of("0x0B")},
           {"options", Json::array_of({Json::of("--total-time"),
                                       Json::of("400"),
                                       Json::of("--no-timings")})},
           {"id", Json::of_u64(1)},
           {"trace", Json::of(true)}})
          .dump();

  const Json first = glva::serve::parse_json(server.dispatch(payload));
  ASSERT_NE(first.find("ok"), nullptr);
  ASSERT_TRUE(first.find("ok")->boolean);
  const Json* trace = first.find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());
  ASSERT_FALSE(trace->array.empty());
  bool saw_simulate = false;
  for (const Json& event : trace->array) {
    ASSERT_TRUE(event.is_object());
    const Json* name = event.find("name");
    ASSERT_NE(name, nullptr);
    if (name->string == "simulate") saw_simulate = true;
    ASSERT_NE(event.find("ph"), nullptr);
    EXPECT_EQ(event.find("ph")->string, "X");
  }
  EXPECT_TRUE(saw_simulate);

  // A cache hit runs nothing worth tracing: no trace member, body served
  // from cache.
  const Json second = glva::serve::parse_json(server.dispatch(payload));
  ASSERT_TRUE(second.find("ok")->boolean);
  EXPECT_TRUE(second.find("cached")->boolean);
  EXPECT_EQ(second.find("trace"), nullptr);

  // The wire schema rejects a non-boolean trace member.
  const ParsedResponse bad = parse_response(server.dispatch(
      "{\"op\":\"verify\",\"target\":\"0x0B\",\"trace\":\"yes\"}"));
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_kind, "protocol");
}

TEST(ServeEndToEnd, NonFiniteOrNonPositiveConfigFailsFastEverywhere) {
  struct Case {
    const char* option;
    const char* value;
    const char* field;
    std::vector<std::string> ops = {"verify", "check"};
  };
  const std::vector<std::string> grid = {"sweep"};
  const std::vector<Case> cases = {
      {"--total-time", "nan", "total_time"},
      {"--total-time", "inf", "total_time"},
      {"--total-time", "0", "total_time"},
      {"--sampling-period", "nan", "sampling_period"},
      {"--sampling-period", "-1", "sampling_period"},
      {"--threshold", "nan", "threshold"},
      {"--threshold", "inf", "threshold"},
      {"--seed", "-1", "seed"},
      {"--fov-ud", "nan", "fov_ud", {"verify", "check", "sweep"}},
      {"--fov-ud", "0", "fov_ud"},
      {"--fov-ud", "2", "fov_ud"},
      {"--fov-ud", "inf", "fov_ud"},
      {"--fov-ud", "-1", "fov_ud"},
      {"--min-satisfaction", "nan", "min-satisfaction", {"check"}},
      {"--thresholds", "nan", "thresholds", grid},
      {"--thresholds", "inf", "thresholds", grid},
      {"--thresholds", "15,nan", "thresholds", grid},
      {"--thresholds", "0", "thresholds", grid},
      // No option selects an analysis path: spelling one is refused,
      // never silently ignored.
      {"--backend", "reference", "--backend"},
  };
  // Each case must be refused before anything simulates: far below this
  // bound, where a hang or a paper-scale run would be far above it.
  constexpr auto kBound = std::chrono::seconds(2);
  Server server(small_server_options());
  for (const Case& c : cases) {
    for (const std::string& op : c.ops) {
      std::vector<std::string> options = {c.option, c.value};
      if (op == "check") options.insert(options.end(), {"--property", "G GFP"});
      // --redigitize: its one shared simulation must not run either.
      if (op == "sweep") options.push_back("--redigitize");
      const std::string label = op + " " + c.option + " " + c.value;
      const auto start = std::chrono::steady_clock::now();

      std::vector<std::string> args = {op, "0x0B"};
      args.insert(args.end(), options.begin(), options.end());
      std::ostringstream out;
      std::ostringstream err;
      EXPECT_EQ(run_cli(args, out, err), 2) << label;
      EXPECT_NE(err.str().find(c.field), std::string::npos)
          << label << ": " << err.str();

      const ParsedResponse response =
          parse_response(server.dispatch(analysis_payload(op, "0x0B", options)));
      EXPECT_FALSE(response.ok) << label;
      EXPECT_EQ(response.error_kind, "invalid_argument") << label;
      EXPECT_EQ(server.admission_stats().active, 0u) << label;
      EXPECT_LT(std::chrono::steady_clock::now() - start, kBound) << label;
    }
  }

  // A valid config whose model has an infinite propensity (k / S at
  // S = 0) must fail at the first evaluation, not spin on zero waiting
  // times.
  glva::sbml::Model model;
  model.add_compartment("cell");
  model.add_species("A", 0.0);
  model.add_species("S", 0.0);
  model.add_species("GFP", 0.0);
  model.add_parameter("k", 1.0);
  model.add_reaction("inf_law", {}, {{"GFP", 1.0}}, "k / S",
                     {glva::sbml::ModifierReference{"S"}});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("glva-test-inf-law-" + std::to_string(::getpid()) + ".xml"))
          .string();
  glva::sbml::write_sbml_file(model, path);
  const std::vector<std::string> options = {"--inputs", "A", "--output",
                                            "GFP"};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::string> args = {"analyze", path};
  args.insert(args.end(), options.begin(), options.end());
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(args, out, err), 2);
  EXPECT_NE(err.str().find("inf_law"), std::string::npos) << err.str();
  const ParsedResponse response = parse_response(
      server.dispatch(analysis_payload("analyze", path, options)));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_kind, "simulation");
  EXPECT_EQ(server.admission_stats().active, 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, kBound);
  std::filesystem::remove(path);
}

TEST(ServeEndToEnd, ArchivingRequestsAlwaysExecute) {
  // --sink and --spill-dir are not part of the cache key, yet a request
  // that archives must write its .glvt whatever the cache already holds.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("glva-test-archive-" + std::to_string(::getpid()));
  fs::remove_all(root);
  const auto verify = [](std::vector<std::string> extra) {
    extra.insert(extra.begin(), {"--total-time", "400", "--no-timings"});
    return analysis_payload("verify", "0x0B", extra);
  };
  Server server(small_server_options());
  const ParsedResponse plain = parse_response(server.dispatch(verify({})));
  ASSERT_TRUE(plain.ok);

  // A spill sink with nowhere to archive is refused, not served from the
  // cache, just as the CLI refuses it.
  const ParsedResponse no_dir =
      parse_response(server.dispatch(verify({"--sink", "spill"})));
  EXPECT_FALSE(no_dir.ok);
  EXPECT_EQ(no_dir.error_kind, "invalid_argument");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"verify", "0x0B", "--total-time", "400", "--sink",
                     "spill"},
                    out, err),
            2);
  EXPECT_EQ(server.admission_stats().active, 0u);

  for (const std::string sink : {"spill", "digitize"}) {
    const fs::path dir = root / sink;
    for (int round = 0; round < 2; ++round) {
      fs::remove_all(dir);
      const ParsedResponse archived = parse_response(server.dispatch(
          verify({"--sink", sink, "--spill-dir", dir.string()})));
      ASSERT_TRUE(archived.ok) << sink;
      EXPECT_FALSE(archived.cached) << sink << " round " << round;
      EXPECT_EQ(archived.body, plain.body) << sink;
      EXPECT_TRUE(fs::exists(dir / "0x0B-s1.glvt"))
          << sink << " round " << round;
    }
  }
  // mem archives nothing, so the cache answers it like the plain request.
  const ParsedResponse mem = parse_response(server.dispatch(
      verify({"--sink", "mem", "--spill-dir", (root / "mem").string()})));
  ASSERT_TRUE(mem.ok);
  EXPECT_TRUE(mem.cached);
  EXPECT_EQ(mem.body, plain.body);
  EXPECT_FALSE(fs::exists(root / "mem"));
  fs::remove_all(root);
}

TEST(ServeEndToEnd, StoppedServerRejectsAsShuttingDown) {
  ServerOptions options = small_server_options();
  options.unix_path =
      (std::filesystem::temp_directory_path() /
       ("glva-test-stop-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Server server(options);
  server.start();
  server.stop();
  const ParsedResponse response = parse_response(server.dispatch(
      analysis_payload("verify", "0x0B", {"--total-time", "400"})));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_kind, "shutting_down");
}

// ---------------------------------------------------------------------------
// Socket transport: concurrent clients over a Unix socket
// ---------------------------------------------------------------------------

int connect_unix_socket(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0)
      << std::strerror(errno);
  return fd;
}

std::string socket_round_trip(int fd, const std::string& payload) {
  const std::string frame = glva::serve::encode_frame(payload);
  EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  FrameDecoder decoder;
  while (true) {
    if (auto response = decoder.take_frame()) return *response;
    char buffer[16 * 1024];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed before a response arrived";
      return {};
    }
    decoder.feed(buffer, static_cast<std::size_t>(n));
  }
}

TEST(ServeSocket, ConcurrentIdenticalRequestsExecuteOnceAndMatch) {
  ServerOptions options = small_server_options();
  options.unix_path =
      (std::filesystem::temp_directory_path() /
       ("glva-test-serve-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Server server(options);
  server.start();

  const std::string payload = analysis_payload(
      "verify", "0x0B", {"--total-time", "400", "--no-timings"});
  constexpr int kClients = 4;
  std::vector<ParsedResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_unix_socket(options.unix_path);
      responses[static_cast<std::size_t>(c)] =
          parse_response(socket_round_trip(fd, payload));
      ::close(fd);
    });
  }
  for (auto& client : clients) client.join();

  int executed = 0;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(response.body, responses[0].body);
    if (!response.cached) ++executed;
  }
  // Single-flight + cache: exactly one execution, every other client is
  // served the same bytes without re-running the experiment.
  EXPECT_EQ(executed, 1);
  EXPECT_EQ(server.admission_stats().admitted, 1u);
  EXPECT_EQ(server.cache_stats().hits + server.coalesced_requests(),
            static_cast<std::uint64_t>(kClients - 1));

  // A fresh connection after completion is a plain cache hit.
  const int fd = connect_unix_socket(options.unix_path);
  const ParsedResponse late = parse_response(socket_round_trip(fd, payload));
  ::close(fd);
  ASSERT_TRUE(late.ok);
  EXPECT_TRUE(late.cached);
  EXPECT_EQ(late.body, responses[0].body);

  server.stop();
  EXPECT_FALSE(std::filesystem::exists(options.unix_path));
}

TEST(ServeSocket, RepeatedStartStopJoinsCleanly) {
  // stop() resets the listener members while freshly started accept
  // threads may still be reading their fds; under TSan this loop covers
  // that handoff.
  ServerOptions options = small_server_options();
  options.unix_path =
      (std::filesystem::temp_directory_path() /
       ("glva-test-restart-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Server server(options);
  for (int i = 0; i < 20; ++i) {
    server.start();
    server.stop();
    EXPECT_FALSE(std::filesystem::exists(options.unix_path)) << i;
  }
}

TEST(ServeSocket, OversizeFrameGetsProtocolErrorAndHangup) {
  ServerOptions options = small_server_options();
  options.max_frame_bytes = 64;
  options.unix_path =
      (std::filesystem::temp_directory_path() /
       ("glva-test-oversize-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Server server(options);
  server.start();

  const int fd = connect_unix_socket(options.unix_path);
  const std::string oversize(128, 'x');
  const ParsedResponse response =
      parse_response(socket_round_trip(fd, oversize));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_kind, "protocol");
  // The server hangs up after a framing error.
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.stop();
}

TEST(ServeSocket, DeepPropertyGetsAParseErrorAndTheServerStaysUp) {
  // 20,000 nested parentheses: a depth that overflowed the parser's stack
  // and killed the daemon before the parser counted its depth.
  ServerOptions options = small_server_options();
  options.unix_path =
      (std::filesystem::temp_directory_path() /
       ("glva-test-deep-" + std::to_string(::getpid()) + ".sock"))
          .string();
  Server server(options);
  server.start();

  const std::string property =
      std::string(20000, '(') + "GFP" + std::string(20000, ')');
  int fd = connect_unix_socket(options.unix_path);
  const ParsedResponse refused = parse_response(socket_round_trip(
      fd, analysis_payload("check", "0x0B",
                           {"--property", property, "--total-time", "400"})));
  ::close(fd);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.error_kind, "parse");

  fd = connect_unix_socket(options.unix_path);
  const Json status = glva::serve::parse_json(socket_round_trip(
      fd, Json::object_of({{"op", Json::of("status")}}).dump()));
  ::close(fd);
  const Json* ok = status.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->boolean);
  server.stop();
}

// ---------------------------------------------------------------------------
// CLI surface
// ---------------------------------------------------------------------------

TEST(Cli, VersionReportsBuildAndSimd) {
  const std::string out = cli_stdout({"version"}, 0);
  EXPECT_NE(out.find("glva "), std::string::npos);
  EXPECT_NE(out.find("build:"), std::string::npos);
  EXPECT_NE(out.find("simd tiers:"), std::string::npos);
  EXPECT_NE(out.find("simd active:"), std::string::npos);
}

TEST(Cli, SweepRunsAndReportsRecovery) {
  const std::string out = cli_stdout(
      {"sweep", "0x0B", "--thresholds", "15", "--total-time", "4000"}, 0);
  EXPECT_NE(out.find("circuit:    0x0B"), std::string::npos);
  EXPECT_NE(out.find("1/1 point(s) recover the intended logic"),
            std::string::npos);
}

TEST(Cli, ServeRequiresAListener) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli({"serve"}, out, err), 2);
  EXPECT_NE(err.str().find("listener"), std::string::npos);
}

}  // namespace
