// The alignment daemon (the `ctest -L serve` tier).
//
// Contracts under test:
//   1. framing     — frames round-trip over a socket, headers are
//                    little-endian on the wire, clean EOF is nullopt,
//                    bad magic / oversize / truncation throw FramingError;
//   2. bit-identity — a tenant's concatenated Sam payloads are byte-identical
//                    to the stream a one-shot in-process session writes for
//                    the same batches (single-index AND sharded backends),
//                    including with two tenants aligned concurrently;
//   3. isolation   — a malformed batch (FASTQ or SeqDB) or a mid-stream
//                    disconnect costs only that connection, never the daemon
//                    or other tenants;
//   4. persistence — autosave while serving produces a loadable snapshot;
//   5. observability — the Prometheus scrape and the stats JSON carry
//                    per-tenant series/accounting.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/align_session.hpp"
#include "core/alignment_sink.hpp"
#include "core/indexed_reference.hpp"
#include "pgas/runtime.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "seq/seqdb.hpp"
#include "serve/backend.hpp"
#include "serve/daemon.hpp"
#include "serve/framing.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using namespace mera;
using mera::pgas::Topology;
using mera::seq::SeqRecord;
using mera::serve::Frame;
using mera::serve::FrameType;
using mera::serve::FramingError;

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

const Topology kTopo(4, 2);

core::IndexConfig small_index() {
  core::IndexConfig ic;
  ic.k = 21;
  ic.buffer_S = 64;
  ic.fragment_len = 512;
  return ic;
}

core::SamProgram test_program() {
  core::SamProgram pg;
  pg.name = "meralignerd";
  return pg;  // no command line -> CL omitted, identical on both sides
}

struct Workload {
  std::vector<SeqRecord> contigs;
  std::vector<std::vector<SeqRecord>> batches;  ///< reads, pre-split
};

/// Small deterministic workload; quals normalized non-empty so the FASTQ
/// text we send round-trips to exactly these records.
Workload make_workload(std::uint64_t seed, int nbatches) {
  Workload w;
  seq::GenomeParams gp;
  gp.length = 3000;
  gp.repeat_fraction = 0.03;
  gp.rng_seed = seed;
  const std::string genome = simulate_genome(gp);
  seq::ContigParams cp;
  cp.rng_seed = seed + 1;
  w.contigs = chop_into_contigs(genome, cp);
  seq::ReadSimParams rp;
  rp.read_len = 80;
  rp.depth = 1.5;
  rp.error_rate = 0.004;
  rp.n_rate = 0.0;
  rp.rng_seed = seed + 2;
  std::vector<SeqRecord> reads = simulate_reads(genome, rp);
  for (auto& r : reads)
    if (r.qual.empty()) r.qual.assign(r.seq.size(), 'I');
  w.batches.resize(static_cast<std::size_t>(nbatches));
  for (std::size_t i = 0; i < reads.size(); ++i)
    w.batches[i % w.batches.size()].push_back(reads[i]);
  return w;
}

std::string fastq_text(const std::vector<SeqRecord>& reads) {
  std::string s;
  for (const auto& r : reads)
    s += "@" + r.name + "\n" + r.seq + "\n+\n" + r.qual + "\n";
  return s;
}

/// The SeqDB image of `reads` (what a client sends for SeqDB input), staged
/// through `scratch`.
std::string seqdb_image(const std::string& scratch,
                        const std::vector<SeqRecord>& reads) {
  seq::write_seqdb(scratch, reads, /*store_quality=*/true);
  std::ifstream in(scratch, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// What the one-shot pipeline writes for these batches: the acceptance
/// baseline a daemon connection's concatenated Sam payloads must reproduce
/// byte for byte.
std::string one_shot_sam(const Workload& w, int shards = 1) {
  pgas::Runtime rt(kTopo);
  std::ostringstream os(std::ios::binary);
  if (shards <= 1) {
    auto ref = core::IndexedReference::build(rt, w.contigs, small_index());
    core::SamStreamSink sink(os, core::sam_targets(ref.targets()),
                             rt.nranks(), test_program());
    core::AlignSession session(std::move(ref));
    for (const auto& b : w.batches) session.align_batch(rt, b, sink);
  } else {
    auto ref =
        shard::ShardedReference::build(rt, w.contigs, shards, small_index());
    core::SamStreamSink sink(os, ref.sam_targets(), rt.nranks(),
                             test_program());
    shard::ShardedAlignSession session(
        std::move(ref), shard::ShardedSessionConfig{core::SessionConfig{}, 1});
    for (const auto& b : w.batches) session.align_batch(rt, b, sink);
  }
  return os.str();
}

serve::Backend make_backend(const Workload& w, int shards = 1) {
  pgas::Runtime rt(kTopo);
  if (shards <= 1)
    return serve::Backend(
        core::IndexedReference::build(rt, w.contigs, small_index()),
        core::SessionConfig{});
  return serve::Backend(
      shard::ShardedReference::build(rt, w.contigs, shards, small_index()),
      shard::ShardedSessionConfig{core::SessionConfig{}, 1});
}

/// Minimal framing client for the tests.
struct Client {
  int fd = -1;
  explicit Client(const std::string& socket_path)
      : fd(serve::connect_unix(socket_path)) {}
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  void send(FrameType t, std::string_view payload = {}) const {
    serve::write_frame(fd, t, payload);
  }
  [[nodiscard]] std::optional<Frame> recv() const {
    return serve::read_frame(fd);
  }
  /// Hello + every batch + Goodbye; returns the concatenated Sam payloads.
  [[nodiscard]] std::string run_batches(
      const std::string& tenant,
      const std::vector<std::vector<SeqRecord>>& batches) const {
    send(FrameType::kHello, tenant);
    std::string sam;
    for (const auto& b : batches) {
      send(FrameType::kBatch, fastq_text(b));
      auto reply = recv();
      if (!reply || reply->type != FrameType::kSam)
        throw std::runtime_error("expected a Sam reply");
      sam += reply->payload;
    }
    send(FrameType::kGoodbye);
    return sam;
  }
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mera_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  serve::DaemonConfig daemon_config() const {
    serve::DaemonConfig dcfg;
    dcfg.socket_path = path("d.sock");
    dcfg.program = test_program();
    return dcfg;
  }
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// 1. Framing
// ---------------------------------------------------------------------------

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);
  }
  void close_writer() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(ServeFraming, FramesRoundTripIncludingBinaryPayloads) {
  SocketPair sp;
  const std::string binary("A\0B\xff\nC", 7);  // embedded NUL survives
  serve::write_frame(sp.fds[0], FrameType::kHello, "alice");
  serve::write_frame(sp.fds[0], FrameType::kBatch, binary);
  serve::write_frame(sp.fds[0], FrameType::kGoodbye, {});
  sp.close_writer();

  auto f1 = serve::read_frame(sp.fds[1]);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, FrameType::kHello);
  EXPECT_EQ(f1->payload, "alice");
  auto f2 = serve::read_frame(sp.fds[1]);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, FrameType::kBatch);
  EXPECT_EQ(f2->payload, binary);
  auto f3 = serve::read_frame(sp.fds[1]);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(f3->type, FrameType::kGoodbye);
  EXPECT_TRUE(f3->payload.empty());
  EXPECT_FALSE(serve::read_frame(sp.fds[1]).has_value())
      << "clean EOF at a frame boundary is nullopt, not an error";
}

TEST(ServeFraming, BadMagicIsAFramingError) {
  SocketPair sp;
  const std::uint32_t bad[4] = {0xDEADBEEF, 1, 0, 0};
  serve::write_all(sp.fds[0], bad, sizeof(bad));
  sp.close_writer();
  try {
    (void)serve::read_frame(sp.fds[1]);
    FAIL() << "bad magic was accepted";
  } catch (const FramingError& e) {
    // The offending magic is reported in hex, as the protocol spells it.
    EXPECT_NE(std::string(e.what()).find("0xdeadbeef"), std::string::npos)
        << e.what();
  }
}

TEST(ServeFraming, OversizedFrameIsRejectedBeforeAllocation) {
  SocketPair sp;
  serve::write_frame(sp.fds[0], FrameType::kBatch, std::string(2048, 'x'));
  EXPECT_THROW(serve::read_frame(sp.fds[1], /*max_payload=*/1024),
               FramingError);
}

TEST(ServeFraming, HeaderIsLittleEndianOnTheWire) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  serve::write_frame(p[1], FrameType::kSam, "xyz");
  std::array<unsigned char, serve::kFrameHeaderBytes + 3> wire{};
  ASSERT_TRUE(serve::read_exact(p[0], wire.data(), wire.size()));
  const std::array<unsigned char, serve::kFrameHeaderBytes> want = {
      'M', 'R', 'S', 'V',      // magic 0x5653524D, least significant first
      17, 0, 0, 0,             // type kSam
      3, 0, 0, 0, 0, 0, 0, 0,  // payload length
  };
  EXPECT_TRUE(std::equal(want.begin(), want.end(), wire.begin()));
  EXPECT_EQ(std::string(wire.end() - 3, wire.end()), "xyz");

  // A hand-built header with a length above 255 reads back field by field.
  const std::string payload(0x0102, 'q');
  std::array<unsigned char, serve::kFrameHeaderBytes> hand = {
      'M', 'R', 'S', 'V', 2, 0, 0, 0, 0x02, 0x01, 0, 0, 0, 0, 0, 0};
  serve::write_all(p[1], hand.data(), hand.size());
  serve::write_all(p[1], payload.data(), payload.size());
  ::close(p[1]);
  const auto f = serve::read_frame(p[0]);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kBatch);
  EXPECT_EQ(f->payload, payload);
  EXPECT_FALSE(serve::read_frame(p[0]).has_value());
  ::close(p[0]);
}

TEST(ServeFraming, TruncationMidFrameIsAFramingError) {
  SocketPair sp;
  struct {
    std::uint32_t magic = serve::kFrameMagic;
    std::uint32_t type = 2;
    std::uint64_t len = 100;
  } header;
  serve::write_all(sp.fds[0], &header, sizeof(header));
  serve::write_all(sp.fds[0], "only ten b", 10);
  sp.close_writer();
  EXPECT_THROW(serve::read_frame(sp.fds[1]), FramingError);
}

// ---------------------------------------------------------------------------
// 2. Bit-identity with the one-shot pipeline
// ---------------------------------------------------------------------------

TEST_F(ServeTest, SingleTenantSamIsByteIdenticalToOneShotRun) {
  const Workload w = make_workload(101, 2);
  const std::string expected = one_shot_sam(w);
  ASSERT_FALSE(expected.empty());

  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  const std::string got = Client(daemon.socket_path()).run_batches("t0", w.batches);
  daemon.request_stop();
  daemon.wait();

  EXPECT_EQ(got, expected);
}

TEST_F(ServeTest, TwoConcurrentTenantsEachGetBitIdenticalSam) {
  const Workload wa = make_workload(202, 2);
  const Workload wb = make_workload(303, 3);  // same genome seed space, own reads
  // Both tenants are served from ONE index, so both workloads must share the
  // reference; reuse wa's contigs for wb's baseline.
  Workload wb_on_a = wb;
  wb_on_a.contigs = wa.contigs;
  const std::string expect_a = one_shot_sam(wa);
  const std::string expect_b = one_shot_sam(wb_on_a);

  serve::Daemon daemon(make_backend(wa), kTopo, daemon_config());
  daemon.start();

  std::string got_a, got_b;
  std::thread ta([&] {
    got_a = Client(daemon.socket_path()).run_batches("tenant_a", wa.batches);
  });
  std::thread tb([&] {
    got_b =
        Client(daemon.socket_path()).run_batches("tenant_b", wb_on_a.batches);
  });
  ta.join();
  tb.join();
  const auto stats = daemon.tenant_stats();
  daemon.request_stop();
  daemon.wait();

  EXPECT_EQ(got_a, expect_a);
  EXPECT_EQ(got_b, expect_b);
  ASSERT_EQ(stats.count("tenant_a"), 1u);
  ASSERT_EQ(stats.count("tenant_b"), 1u);
  EXPECT_EQ(stats.at("tenant_a").batches, 2u);
  EXPECT_EQ(stats.at("tenant_b").batches, 3u);
  EXPECT_EQ(stats.at("tenant_a").connections, 1u);
  EXPECT_GT(stats.at("tenant_a").sam_bytes, 0u);
  EXPECT_EQ(stats.at("tenant_a").sam_bytes + stats.at("tenant_b").sam_bytes,
            got_a.size() + got_b.size());
}

TEST_F(ServeTest, ShardedBackendServesTheSameBytesAsOneShotSharded) {
  const Workload w = make_workload(404, 2);
  const std::string expected = one_shot_sam(w, /*shards=*/2);
  ASSERT_FALSE(expected.empty());

  serve::Daemon daemon(make_backend(w, /*shards=*/2), kTopo, daemon_config());
  daemon.start();
  const std::string got =
      Client(daemon.socket_path()).run_batches("shardy", w.batches);
  daemon.request_stop();
  daemon.wait();

  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// 3. Error isolation
// ---------------------------------------------------------------------------

TEST_F(ServeTest, MalformedBatchGetsAnErrorFrameAndTheStreamContinues) {
  const Workload w = make_workload(505, 1);
  const std::string expected = one_shot_sam(w);

  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "clumsy");
    c.send(FrameType::kBatch, "this is neither FASTQ nor SeqDB\n");
    auto err = c.recv();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->type, FrameType::kError);
    EXPECT_NE(err->payload.find("batch rejected"), std::string::npos);

    // The same connection still aligns the next, well-formed batch.
    c.send(FrameType::kBatch, fastq_text(w.batches[0]));
    auto sam = c.recv();
    ASSERT_TRUE(sam.has_value());
    EXPECT_EQ(sam->type, FrameType::kSam);
    EXPECT_EQ(sam->payload, expected);
    c.send(FrameType::kGoodbye);
  }
  const auto stats = daemon.tenant_stats();
  daemon.request_stop();
  daemon.wait();
  ASSERT_EQ(stats.count("clumsy"), 1u);
  EXPECT_EQ(stats.at("clumsy").errors, 1u);
  EXPECT_EQ(stats.at("clumsy").batches, 1u);
}

TEST_F(ServeTest, SeqDbBatchesGetTheFastqBytesWithoutATempFile) {
  const Workload w = make_workload(515, 2);
  const std::string expected = one_shot_sam(w);  // = the FASTQ-frame reply
  ASSERT_FALSE(expected.empty());

  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  std::string got;
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "binary");
    for (const auto& b : w.batches) {
      c.send(FrameType::kBatch, seqdb_image(path("image.sdb"), b));
      auto reply = c.recv();
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, FrameType::kSam) << reply->payload;
      got += reply->payload;
    }
    c.send(FrameType::kGoodbye);
  }
  daemon.request_stop();
  daemon.wait();

  EXPECT_EQ(got, expected);
  // SeqDB payloads are decoded in memory: nothing spills next to the socket.
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    EXPECT_EQ(entry.path().filename().string().find(".batch"),
              std::string::npos)
        << entry.path();
}

TEST_F(ServeTest, MalformedSeqDbBatchGetsANamedErrorAndTheStreamContinues) {
  const Workload w = make_workload(525, 1);
  const std::string expected = one_shot_sam(w);
  const std::string image = seqdb_image(path("image.sdb"), w.batches[0]);
  // Cut inside the records: the header's index_offset lies past the end.
  const std::string truncated = image.substr(0, image.size() / 2);
  // Claims 2^31 records: must not allocate the 16 GiB offset table.
  std::string oversized = image;
  const std::uint64_t huge = std::uint64_t{1} << 31;
  std::memcpy(oversized.data() + 16, &huge, sizeof(huge));

  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "corrupt");
    for (const auto& [payload, field] :
         {std::pair{truncated, "index_offset"},
          std::pair{oversized, "nrecords"}}) {
      c.send(FrameType::kBatch, payload);
      auto err = c.recv();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(err->type, FrameType::kError);
      EXPECT_NE(err->payload.find("batch rejected"), std::string::npos);
      EXPECT_NE(err->payload.find(field), std::string::npos) << err->payload;
    }
    // The same connection still aligns the next, well-formed batch.
    c.send(FrameType::kBatch, image);
    auto sam = c.recv();
    ASSERT_TRUE(sam.has_value());
    EXPECT_EQ(sam->type, FrameType::kSam);
    EXPECT_EQ(sam->payload, expected);
    c.send(FrameType::kGoodbye);
  }
  const auto stats = daemon.tenant_stats();
  daemon.request_stop();
  daemon.wait();
  ASSERT_EQ(stats.count("corrupt"), 1u);
  EXPECT_EQ(stats.at("corrupt").errors, 2u);
  EXPECT_EQ(stats.at("corrupt").batches, 1u);
}

TEST_F(ServeTest, BadReadNameGetsAnErrorFrameAndLaterBatchesStream) {
  const Workload w = make_workload(535, 2);
  const std::string expected = one_shot_sam(w);
  // A bare '@' FASTQ header, and a tab inside a SeqDB record's name: either
  // would put a broken line into the connection's SAM stream.
  std::vector<SeqRecord> unnamed = w.batches[0];
  unnamed[1].name.clear();
  std::vector<SeqRecord> tabbed = w.batches[1];
  tabbed[0].name += "\tXX";

  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  std::string got;
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "unnamed");
    for (const auto& [payload, what] :
         {std::pair{fastq_text(unnamed), "record 1: empty name"},
          std::pair{seqdb_image(path("tabbed.sdb"), tabbed),
                    "record 0: name byte 0x09"}}) {
      c.send(FrameType::kBatch, payload);
      auto err = c.recv();
      ASSERT_TRUE(err.has_value());
      EXPECT_EQ(err->type, FrameType::kError);
      EXPECT_NE(err->payload.find("batch rejected"), std::string::npos);
      EXPECT_NE(err->payload.find(what), std::string::npos) << err->payload;
    }
    // The connection's later batches still stream, header first.
    for (const auto& b : w.batches) {
      c.send(FrameType::kBatch, fastq_text(b));
      auto sam = c.recv();
      ASSERT_TRUE(sam.has_value());
      ASSERT_EQ(sam->type, FrameType::kSam) << sam->payload;
      got += sam->payload;
    }
    c.send(FrameType::kGoodbye);
  }
  const auto stats = daemon.tenant_stats();
  daemon.request_stop();
  daemon.wait();
  EXPECT_EQ(got, expected);
  ASSERT_EQ(stats.count("unnamed"), 1u);
  EXPECT_EQ(stats.at("unnamed").errors, 2u);
  EXPECT_EQ(stats.at("unnamed").batches, 2u);
}

TEST_F(ServeTest, InvalidHelloIsRefusedWithoutKillingTheDaemon) {
  const Workload w = make_workload(606, 1);
  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kBatch, fastq_text(w.batches[0]));  // no Hello first
    auto reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kError);
    EXPECT_FALSE(c.recv().has_value()) << "connection closes after the error";
  }
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "bad tenant name");  // space is not allowed
    auto reply = c.recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kError);
  }
  // The daemon is still serving.
  const std::string got =
      Client(daemon.socket_path()).run_batches("fine", w.batches);
  daemon.request_stop();
  daemon.wait();
  EXPECT_EQ(got, one_shot_sam(w));
}

TEST_F(ServeTest, MidStreamDisconnectCostsOnlyThatConnection) {
  const Workload w = make_workload(707, 2);
  const std::string expected = one_shot_sam(w);

  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  {
    // Vanish right after handing over a batch, never reading the reply: the
    // daemon hits EPIPE on ITS side of this connection only.
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "ghost");
    c.send(FrameType::kBatch, fastq_text(w.batches[0]));
  }  // ~Client closes the fd
  const std::string got =
      Client(daemon.socket_path()).run_batches("survivor", w.batches);
  daemon.request_stop();
  daemon.wait();
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// 4. Autosave while serving
// ---------------------------------------------------------------------------

TEST_F(ServeTest, AutosaveWhileServingLeavesALoadableSnapshot) {
  const Workload w = make_workload(808, 4);
  serve::DaemonConfig dcfg = daemon_config();
  dcfg.cache_dir = path("cache");
  std::filesystem::create_directories(dcfg.cache_dir);
  dcfg.autosave_interval_s = 0.05;

  serve::Daemon daemon(make_backend(w), kTopo, dcfg);
  daemon.start();
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "saver");
    for (const auto& b : w.batches) {
      c.send(FrameType::kBatch, fastq_text(b));
      auto reply = c.recv();
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, FrameType::kSam);
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    c.send(FrameType::kGoodbye);
  }
  const std::uint64_t autosaves = daemon.autosaves_completed();
  daemon.request_stop();
  daemon.wait();  // includes the final shutdown save

  EXPECT_GE(autosaves, 1u) << "timer saves must run while batches are served";
  const std::string snap = dcfg.cache_dir + "/session.mcache";
  ASSERT_TRUE(std::filesystem::exists(snap));
  EXPECT_FALSE(std::filesystem::exists(snap + ".tmp"));

  // The snapshot warm-starts a fresh session over the same reference.
  pgas::Runtime rt(kTopo);
  core::AlignSession warm(
      core::IndexedReference::build(rt, w.contigs, small_index()));
  EXPECT_NO_THROW(warm.load_caches(rt, snap));
}

// ---------------------------------------------------------------------------
// 5. Observability over the socket
// ---------------------------------------------------------------------------

TEST_F(ServeTest, MetricsScrapeCarriesServeAndPerTenantSeries) {
  const Workload w = make_workload(909, 1);
  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  std::string scrape;
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "scrape_me");
    c.send(FrameType::kBatch, fastq_text(w.batches[0]));
    auto sam = c.recv();
    ASSERT_TRUE(sam.has_value());
    ASSERT_EQ(sam->type, FrameType::kSam);
    c.send(FrameType::kMetricsReq);
    auto metrics = c.recv();
    ASSERT_TRUE(metrics.has_value());
    ASSERT_EQ(metrics->type, FrameType::kMetrics);
    scrape = metrics->payload;
    c.send(FrameType::kGoodbye);
  }
  daemon.request_stop();
  daemon.wait();

  for (const char* needle :
       {"mera_serve_connections_total", "mera_serve_batches_total",
        "mera_serve_bytes_out_total", "tenant=\"scrape_me\"",
        "mera_reads_processed_total", "mera_alignments_reported_total"})
    EXPECT_NE(scrape.find(needle), std::string::npos)
        << "scrape is missing " << needle;
}

TEST_F(ServeTest, StatsRequestReturnsPerTenantJson) {
  const Workload w = make_workload(111, 1);
  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  std::string json;
  {
    Client c(daemon.socket_path());
    c.send(FrameType::kHello, "jsonite");
    c.send(FrameType::kBatch, fastq_text(w.batches[0]));
    auto sam = c.recv();
    ASSERT_TRUE(sam.has_value());
    ASSERT_EQ(sam->type, FrameType::kSam);
    c.send(FrameType::kStatsReq);
    auto stats = c.recv();
    ASSERT_TRUE(stats.has_value());
    ASSERT_EQ(stats->type, FrameType::kStats);
    json = stats->payload;
    c.send(FrameType::kGoodbye);
  }
  daemon.request_stop();
  daemon.wait();

  EXPECT_NE(json.find("\"name\":\"jsonite\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"batches\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"connections\":1"), std::string::npos) << json;
}

TEST_F(ServeTest, GracefulShutdownRemovesTheSocketFile) {
  const Workload w = make_workload(121, 1);
  serve::Daemon daemon(make_backend(w), kTopo, daemon_config());
  daemon.start();
  ASSERT_TRUE(std::filesystem::exists(daemon.socket_path()));
  daemon.request_stop();
  daemon.request_stop();  // idempotent
  daemon.wait();
  EXPECT_FALSE(std::filesystem::exists(daemon.socket_path()));
}

}  // namespace
