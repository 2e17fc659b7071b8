// The JSON result path against the encodings it replaced: the direct
// result encoder must emit exactly the bytes of a reference built the
// plain way (rows copied out and sorted, every id printed with snprintf),
// the in-place number parser must return exactly strtod's double (or the
// same ParseError), the decimal writer must match snprintf, a gathered
// frame send must arrive intact, and a large result replayed from the
// server's completed ring must come back byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/metrics.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/frame.h"
#include "net/json.h"
#include "net/server.h"
#include "query/workload.h"
#include "service/engine.h"

namespace sjos {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Reference encoder: the row dump and number formatting done the plain way.

std::string RefUint(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string RefFixed(double v, int decimals) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string RefString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    char buf[8];
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

/// Rows copied out one vector each (columns by ascending pattern node),
/// then sorted lexicographically.
std::vector<std::vector<NodeId>> RefCanonical(const TupleSet& t) {
  std::vector<size_t> cols(t.arity());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  std::sort(cols.begin(), cols.end(),
            [&](size_t x, size_t y) { return t.slots()[x] < t.slots()[y]; });
  std::vector<std::vector<NodeId>> rows;
  for (size_t r = 0; r < t.size(); ++r) {
    std::vector<NodeId> row;
    for (size_t c : cols) row.push_back(t.At(r, c));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string RefDoneResult(const std::string& id, const QueryResult& qr) {
  const std::vector<std::vector<NodeId>> rows = RefCanonical(qr.tuples);
  std::vector<PatternNodeId> slots = qr.tuples.slots();
  std::sort(slots.begin(), slots.end());
  std::string out = "{\"id\":" + RefString(id) +
                    ",\"ok\":true,\"done\":true,\"result\":{\"slots\":[";
  for (size_t i = 0; i < slots.size(); ++i) {
    if (i > 0) out += ',';
    out += RefUint(static_cast<uint64_t>(slots[i]));
  }
  out += "],\"rows\":[";
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) out += ',';
      out += RefUint(rows[r][c]);
    }
    out += ']';
  }
  out += "],\"row_count\":" + RefUint(rows.size());
  out += ",\"stats\":{\"result_rows\":" + RefUint(qr.stats.result_rows);
  out += ",\"wall_ms\":" + RefFixed(qr.stats.wall_ms, 3);
  out += ",\"peak_live_rows\":" + RefUint(qr.stats.peak_live_rows);
  out += ",\"peak_live_bytes\":" + RefUint(qr.stats.peak_live_bytes);
  out += ",\"max_q_error\":" + RefFixed(qr.stats.max_q_error, 4);
  out += "},\"algorithm\":" + RefString(qr.planned.algorithm);
  out += ",\"cache_hit\":";
  out += qr.planned.cache_hit ? "true" : "false";
  out += ",\"fallback_from\":" + RefString(qr.planned.fallback_from);
  out += ",\"query_id\":" + RefString(qr.query_id);
  out += "}}";
  return out;
}

/// A seeded random result: distinct pattern-node slots in shuffled order,
/// ids mixing a narrow range (ties and duplicate rows), the extremes 0
/// and UINT32_MAX, and the full 32-bit range.
QueryResult RandomResult(std::mt19937_64* rng, size_t arity, size_t rows) {
  std::vector<PatternNodeId> slots(8);
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<PatternNodeId>(i);
  }
  std::shuffle(slots.begin(), slots.end(), *rng);
  slots.resize(arity);
  QueryResult qr;
  qr.tuples = TupleSet(slots);
  std::vector<NodeId> row(arity);
  for (size_t r = 0; r < rows; ++r) {
    if (r > 0 && (*rng)() % 8 == 0) {
      // Duplicate an earlier row.
      const size_t from = (*rng)() % r;
      qr.tuples.AppendRow(qr.tuples.Row(from));
      continue;
    }
    for (size_t c = 0; c < arity; ++c) {
      switch ((*rng)() % 4) {
        case 0: row[c] = static_cast<NodeId>((*rng)() % 5); break;
        case 1: row[c] = (*rng)() % 2 == 0 ? 0u : UINT32_MAX; break;
        case 2: row[c] = static_cast<NodeId>((*rng)() % 100000); break;
        default: row[c] = static_cast<NodeId>((*rng)()); break;
      }
    }
    qr.tuples.AppendRow(row.data());
  }
  qr.stats.result_rows = rows;
  qr.stats.wall_ms = std::ldexp(static_cast<double>((*rng)() % 100000), -7);
  qr.stats.peak_live_rows = (*rng)() % 1000000;
  qr.stats.peak_live_bytes = (*rng)();
  qr.stats.max_q_error = 1.0 + static_cast<double>((*rng)() % 1000) / 7.0;
  qr.planned.algorithm = "DPP";
  qr.planned.cache_hit = (*rng)() % 2 == 0;
  qr.planned.fallback_from = (*rng)() % 3 == 0 ? "DP" : "";
  qr.query_id = "q-\x01\"" + std::to_string((*rng)() % 1000);
  return qr;
}

TEST(ResultEncodingTest, MatchesThePlainReferenceByteForByte) {
  std::mt19937_64 rng(20031);
  const size_t row_counts[] = {0, 1, 2, 3, 17, 500, 4000};
  int cases = 0;
  for (size_t arity = 1; arity <= 5; ++arity) {
    for (size_t rows : row_counts) {
      for (int rep = 0; rep < 3; ++rep) {
        const QueryResult qr = RandomResult(&rng, arity, rows);
        const std::string id = "id-" + std::to_string(cases++);
        ASSERT_EQ(EncodeDoneResult(id, qr, kFrameAbsoluteMaxPayload),
                  RefDoneResult(id, qr))
            << "arity " << arity << ", " << rows << " rows";
        ASSERT_EQ(qr.tuples.Canonical(), RefCanonical(qr.tuples));
      }
    }
  }
}

TEST(ResultEncodingTest, EmptyResultWithSchema) {
  QueryResult qr;
  qr.tuples = TupleSet({2, 0, 1});
  EXPECT_EQ(EncodeDoneResult("e", qr, kFrameAbsoluteMaxPayload),
            RefDoneResult("e", qr));
  EXPECT_NE(EncodeDoneResult("e", qr, kFrameAbsoluteMaxPayload)
                .find("\"slots\":[0,1,2],\"rows\":[],\"row_count\":0"),
            std::string::npos);
}

TEST(ResultEncodingTest, TooLargeForTheFrameIsAnErrorResponse) {
  std::mt19937_64 rng(7);
  const QueryResult qr = RandomResult(&rng, 3, 1000);
  // 1000 rows x 4 x 12 + 4096 bytes is the encoder's size estimate.
  EXPECT_EQ(EncodeDoneResult("big", qr, 10'000),
            EncodeErrorResponse(
                "big", Status::ResourceExhausted(
                           "result of 1000 rows is too large for one "
                           "response frame — tighten the query or raise "
                           "max_frame_bytes")));
}

// ---------------------------------------------------------------------------
// Decimal writer

TEST(DecimalWriterTest, MatchesSnprintf) {
  std::vector<uint64_t> values = {0, UINT32_MAX, uint64_t{UINT32_MAX} + 1,
                                  UINT64_MAX};
  uint64_t p = 1;  // each power of ten, 10^0 .. 10^19, and its neighbours
  for (int k = 0; k < 20; ++k, p *= 10) {
    values.push_back(p - 1);
    values.push_back(p);
    values.push_back(p + 1);
  }
  std::mt19937_64 rng(99);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng() >> (rng() % 64));
  }
  char buf[kMaxDecimalDigits];
  for (uint64_t v : values) {
    const std::string expected = RefUint(v);
    EXPECT_EQ(DecimalLength(v), expected.size()) << v;
    EXPECT_EQ(std::string(buf, WriteDecimal(v, buf)), expected);
    std::string appended = "x";
    AppendJsonUint(v, &appended);
    EXPECT_EQ(appended, "x" + expected);
  }
}

// ---------------------------------------------------------------------------
// Number parsing

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Checks one grammatical JSON number token: accepted with strtod's exact
/// double when strtod's value is finite, a ParseError otherwise — alone
/// and inside an array.
void ExpectLikeStrtod(const std::string& token) {
  const double expected = std::strtod(token.c_str(), nullptr);
  for (const std::string& text : {token, "[" + token + "]"}) {
    Result<JsonValue> v = ParseJson(text);
    if (!std::isfinite(expected)) {
      ASSERT_FALSE(v.ok()) << "accepted " << text;
      EXPECT_EQ(v.status().code(), StatusCode::kParseError);
      continue;
    }
    ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    const JsonValue& n =
        v.value().is_array() ? v.value().array().at(0) : v.value();
    ASSERT_TRUE(n.is_number()) << text;
    EXPECT_EQ(Bits(n.number_value()), Bits(expected)) << text;
  }
}

TEST(JsonNumberTest, FixedCorpusMatchesStrtod) {
  const char* tokens[] = {
      "0",
      "-0",
      "7",
      "-7",
      "42",
      "4294967295",
      "4294967296",
      "9007199254740991",
      "9007199254740992",  // 2^53: the last exact fast-path value
      "9007199254740993",  // rounds to even through strtod
      "9007199254740994",
      "-9007199254740993",
      "9999999999999999",
      "10000000000000000",
      "18446744073709551615",
      "18446744073709551616",
      "123456789012345678901234567890",
      "0.5",
      "-0.0",
      "0.1",
      "3.141592653589793",
      "2.5e-3",
      "1E10",
      "1e+10",
      "-3e2",
      "1e308",
      "1.7976931348623157e308",
      "1e-320",  // subnormal
      "1e-400",  // underflows to zero, still finite
      "1e400",   // overflows: rejected
      "-1e400",
  };
  for (const char* token : tokens) ExpectLikeStrtod(token);
}

TEST(JsonNumberTest, SeededCorpusMatchesStrtod) {
  std::mt19937_64 rng(2003);
  auto digits = [&](size_t n, bool lead_nonzero) {
    std::string s;
    for (size_t i = 0; i < n; ++i) {
      const int lo = (i == 0 && lead_nonzero) ? 1 : 0;
      s += static_cast<char>('0' + lo + static_cast<int>(rng() % (10 - lo)));
    }
    return s;
  };
  for (int i = 0; i < 20000; ++i) {
    std::string token = rng() % 2 == 0 ? "-" : "";
    if (rng() % 8 == 0) {
      token += '0';
    } else {
      token += digits(1 + rng() % 24, /*lead_nonzero=*/true);
    }
    if (rng() % 3 == 0) token += "." + digits(1 + rng() % 20, false);
    if (rng() % 4 == 0) {
      token += rng() % 2 == 0 ? 'e' : 'E';
      const uint64_t sign = rng() % 3;
      if (sign == 1) token += '+';
      if (sign == 2) token += '-';
      token += digits(1 + rng() % 3, false);
    }
    ExpectLikeStrtod(token);
  }
}

TEST(JsonNumberTest, RejectedFormsAreParseErrors) {
  const char* bad[] = {"-",   "--1", "01",   "-01",  "00",  "1.",
                       ".5",  "+1",  "1e",   "1e+",  "1E-", "-.5",
                       "0x1", "1.e5", "- 1", "[-]", "[01]", "1e400"};
  for (const char* text : bad) {
    Result<JsonValue> v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kParseError) << text;
    }
  }
}

TEST(JsonValueTest, CompactAndDeepCopying) {
  EXPECT_LE(sizeof(JsonValue), 16u);
  Result<JsonValue> v = ParseJson(
      "{\"a\":[1,[2,3],{\"b\":\"text\"}],\"c\":true,\"d\":null,\"e\":-2.5}");
  ASSERT_TRUE(v.ok());
  JsonValue copy = v.value();
  JsonValue moved = std::move(copy);
  EXPECT_TRUE(copy.is_null());  // a moved-from value is null
  const JsonValue* a = moved.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[1].array()[1].number_value(), 3.0);
  EXPECT_EQ(a->array()[2].Find("b")->string_value(), "text");
  EXPECT_TRUE(moved.Find("c")->bool_value());
  EXPECT_TRUE(moved.Find("d")->is_null());
  EXPECT_EQ(moved.Find("e")->number_value(), -2.5);
  // Accessors of another kind read as neutral values.
  EXPECT_TRUE(moved.Find("c")->array().empty());
  EXPECT_TRUE(moved.Find("e")->string_value().empty());
  EXPECT_TRUE(moved.Find("d")->members().empty());
  EXPECT_EQ(moved.Find("c")->number_value(), 0.0);
  EXPECT_FALSE(moved.Find("e")->bool_value());
  EXPECT_EQ(moved.Find("missing"), nullptr);
}

// ---------------------------------------------------------------------------
// Gathered frame send

TEST(FrameSendTest, LargePayloadArrivesIntactThroughPartialWrites) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string payload(3u << 20, '\0');
  std::mt19937_64 rng(5);
  for (char& c : payload) c = static_cast<char>(rng());
  Status sent;
  // The socket buffer is far smaller than the payload, so SendFrame only
  // finishes while the reader drains it, over many partial sendmsg calls.
  std::thread writer([&] { sent = SendFrame(sv[0], payload); });
  std::string received;
  bool clean_eof = false;
  Status st = RecvFrame(sv[1], kFrameAbsoluteMaxPayload, &received,
                        &clean_eof);
  writer.join();
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(clean_eof);
  EXPECT_TRUE(received == payload);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// Replay of a large result from the completed ring

int64_t GaugeValue(const char* name) {
  return MetricsRegistry::Global().GetGauge(name).Value();
}

TEST(ReplayRingTest, LargeResultReplaysByteForByte) {
  const int64_t entries_before =
      GaugeValue("sjos_server_completed_ring_entries");
  const int64_t bytes_before = GaugeValue("sjos_server_completed_ring_bytes");
  std::string first;
  {
    Engine engine;
    DatasetScale scale;
    scale.base_nodes = 20'000;
    ASSERT_TRUE(
        engine.OpenDatabase(MakePaperDataset("Pers", scale).value()).ok());
    ServerOptions options;
    options.max_frame_bytes = kFrameAbsoluteMaxPayload;
    QueryServer server(&engine, options);
    ASSERT_TRUE(server.Start().ok());
    Result<Client> connected = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(connected.ok());
    Client client = std::move(connected).value();

    const std::string query = FindQuery("Q.Pers.2.c").value().pattern_text;
    std::string submit = "{\"verb\":\"submit\",\"id\":\"big\",\"query\":";
    AppendJsonString(query, &submit);
    submit += "}";
    ASSERT_TRUE(client.Send(submit).ok());
    ASSERT_TRUE(client.Receive().ok());
    const std::string poll =
        "{\"verb\":\"poll\",\"id\":\"big\",\"wait_ms\":60000}";
    ASSERT_TRUE(client.Send(poll).ok());
    Result<std::string> done = client.Receive();
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    first = done.value();

    Result<JsonValue> parsed = ParseJson(first);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const JsonValue* result = parsed.value().Find("result");
    ASSERT_NE(result, nullptr) << first.substr(0, 200);
    EXPECT_GE(result->Find("row_count")->number_value(), 100'000.0);

    // The terminal response now sits in the ring, counted by the gauges.
    EXPECT_EQ(GaugeValue("sjos_server_completed_ring_entries"),
              entries_before + 1);
    EXPECT_EQ(GaugeValue("sjos_server_completed_ring_bytes"),
              bytes_before + static_cast<int64_t>(first.size()));

    // A second poll and a re-submit both replay the stored bytes.
    ASSERT_TRUE(client.Send(poll).ok());
    Result<std::string> polled_again = client.Receive();
    ASSERT_TRUE(polled_again.ok());
    EXPECT_TRUE(polled_again.value() == first);
    ASSERT_TRUE(client.Send(submit).ok());
    Result<std::string> resubmitted = client.Receive();
    ASSERT_TRUE(resubmitted.ok());
    EXPECT_TRUE(resubmitted.value() == first);
    EXPECT_EQ(GaugeValue("sjos_server_completed_ring_entries"),
              entries_before + 1);
  }
  // A destroyed server gives its ring's share of the gauges back.
  EXPECT_EQ(GaugeValue("sjos_server_completed_ring_entries"), entries_before);
  EXPECT_EQ(GaugeValue("sjos_server_completed_ring_bytes"), bytes_before);
}

}  // namespace
}  // namespace net
}  // namespace sjos
