// dcfa-lint: allow-file(raw-post) -- drives the HCA directly to isolate engine units
// Focused unit tests for protocol-engine internals: the Bootstrap wiring
// table, ring-slot geometry, packet-header invariants, and engine stats
// bookkeeping under controlled traffic.

#include <gtest/gtest.h>

#include <cstring>

#include "mpi/packet.hpp"
#include "mpi/runtime.hpp"

using namespace dcfa;
using namespace dcfa::mpi;

// --- PacketHeader / SlotLayout ---------------------------------------------------

static_assert(std::is_trivially_copyable_v<PacketHeader>,
              "packet headers travel as raw bytes");

TEST(SlotLayout, GeometryIsConsistent) {
  SlotLayout layout{8192};
  EXPECT_EQ(layout.stride(),
            sizeof(PacketHeader) + 8192 + sizeof(PacketTail));
  for (int slot : {0, 1, 7, 15}) {
    EXPECT_EQ(layout.payload_off(slot),
              layout.header_off(slot) + sizeof(PacketHeader));
    // The tail always lands immediately after the payload...
    EXPECT_EQ(layout.tail_off(slot, 100), layout.payload_off(slot) + 100);
    // ...and never escapes the slot even at max payload.
    EXPECT_LE(layout.tail_off(slot, 8192) + sizeof(PacketTail),
              layout.header_off(slot + 1));
  }
}

TEST(SlotLayout, ZeroPayloadControlPackets) {
  SlotLayout layout{8192};
  EXPECT_EQ(layout.tail_off(3, 0), layout.payload_off(3));
}

TEST(PacketHeader, DefaultsAreSane) {
  PacketHeader hdr;
  EXPECT_EQ(hdr.magic, kPacketMagic);
  EXPECT_EQ(hdr.type, PacketType::Eager);
  EXPECT_EQ(hdr.dir, PacketHeader::kToSender);
}

// --- Bootstrap --------------------------------------------------------------------

TEST(Bootstrap, BlocksUntilPublished) {
  sim::Engine engine;
  Bootstrap boot(engine);
  sim::Time got_at = 0;
  engine.spawn("getter", [&](sim::Process& proc) {
    const auto info = boot.get(proc, 1, 0);
    got_at = proc.now();
    EXPECT_EQ(info.ring_addr, 0xABCDu);
  });
  engine.spawn("putter", [&](sim::Process& proc) {
    proc.wait(sim::microseconds(100));
    Bootstrap::PeerInfo info;
    info.ring_addr = 0xABCD;
    boot.put(1, 0, info);
  });
  engine.run();
  EXPECT_GE(got_at, sim::microseconds(100));
}

TEST(Bootstrap, ManyPairsResolveIndependently) {
  sim::Engine engine;
  Bootstrap boot(engine);
  int resolved = 0;
  const int N = 6;
  for (int me = 0; me < N; ++me) {
    engine.spawn("rank" + std::to_string(me), [&, me](sim::Process& proc) {
      // Publish to everyone, then collect from everyone (the engine-setup
      // pattern; any interleaving must converge).
      for (int peer = 0; peer < N; ++peer) {
        if (peer == me) continue;
        Bootstrap::PeerInfo info;
        info.ring_addr = me * 100 + peer;
        boot.put(me, peer, info);
      }
      proc.wait(me * 7);  // stagger
      for (int peer = 0; peer < N; ++peer) {
        if (peer == me) continue;
        const auto info = boot.get(proc, peer, me);
        EXPECT_EQ(info.ring_addr,
                  static_cast<mem::SimAddr>(peer * 100 + me));
        ++resolved;
      }
    });
  }
  engine.run();
  EXPECT_EQ(resolved, N * (N - 1));
}

// --- Engine stats -----------------------------------------------------------------

TEST(EngineStats, CountsMatchTraffic) {
  RunConfig cfg;
  cfg.mode = MpiMode::DcfaPhi;
  cfg.nprocs = 2;
  Runtime rt(cfg);
  rt.run([](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer small = comm.alloc(256);
    mem::Buffer large = comm.alloc(64 * 1024);
    if (ctx.rank == 0) {
      for (int i = 0; i < 3; ++i) comm.send(small, 0, 256, type_byte(), 1, 1);
      for (int i = 0; i < 2; ++i) {
        comm.send(large, 0, 64 * 1024, type_byte(), 1, 2);
      }
    } else {
      for (int i = 0; i < 3; ++i) comm.recv(small, 0, 256, type_byte(), 0, 1);
      for (int i = 0; i < 2; ++i) {
        comm.recv(large, 0, 64 * 1024, type_byte(), 0, 2);
      }
    }
    comm.free(small);
    comm.free(large);
  });
  const auto& s0 = rt.rank_stats()[0];
  EXPECT_EQ(s0.eager_sends, 3u);
  EXPECT_EQ(s0.rndv_sends, 2u);
  EXPECT_EQ(s0.offload_syncs, 2u);
  EXPECT_EQ(s0.offload_sync_bytes, 2u * 64 * 1024);
  // Receiver consumed 3 eager + 2 RTS packets at least.
  EXPECT_GE(rt.rank_stats()[1].packets_rx, 5u);
}

// Event-driven progress: once an all-to-all has wired all 63 of rank 0's
// endpoints, a 0<->1 ping-pong must cost rank 0 about one endpoint visit per
// progress pass (peer 1's ring and credit cell), not one per wired endpoint.
TEST(EngineStats, PingPongVisitsOnlyTheActivePeer) {
  constexpr int kRanks = 64;
  RunConfig cfg;
  cfg.mode = MpiMode::HostMpi;
  cfg.nprocs = kRanks;
  cfg.engine_options.lazy_endpoints = true;
  Runtime rt(cfg);
  Engine::Stats before{};
  Engine::Stats after{};
  rt.run([&](RankCtx& ctx) {
    auto& comm = ctx.world;
    mem::Buffer a2a_out = comm.alloc(kRanks * 64);
    mem::Buffer a2a_in = comm.alloc(kRanks * 64);
    comm.alltoall(a2a_out, 0, 64, type_byte(), a2a_in, 0);
    comm.barrier();
    mem::Buffer msg = comm.alloc(64);
    if (ctx.rank == 0) before = comm.engine().stats();
    for (int i = 0; i < 200; ++i) {
      if (ctx.rank == 0) {
        comm.send(msg, 0, 64, type_byte(), 1, 7);
        comm.recv(msg, 0, 64, type_byte(), 1, 7);
      } else if (ctx.rank == 1) {
        comm.recv(msg, 0, 64, type_byte(), 0, 7);
        comm.send(msg, 0, 64, type_byte(), 0, 7);
      }
    }
    if (ctx.rank == 0) after = comm.engine().stats();
    comm.barrier();
    comm.free(msg);
    comm.free(a2a_out);
    comm.free(a2a_in);
  });
  const std::uint64_t passes = after.progress_passes - before.progress_passes;
  const std::uint64_t visits = after.endpoint_visits - before.endpoint_visits;
  EXPECT_GE(passes, 200u);
  EXPECT_LE(visits, 2 * passes)
      << visits << " endpoint visits over " << passes << " passes";
}

TEST(EngineStats, HcaEgressCountsRetransmissions) {
  // RNR on a Send/Recv pair doubles the wire traffic; the HCA's egress
  // counter exposes it (the cost abl_rdma_vs_sendrecv quantifies).
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric(engine, platform);
  mem::NodeMemory mem0(0), mem1(1);
  pcie::PciePort p0(engine, mem0, platform), p1(engine, mem1, platform);
  ib::Hca& hca0 = fabric.add_hca(mem0, p0);
  ib::Hca& hca1 = fabric.add_hca(mem1, p1);
  auto* pd0 = hca0.alloc_pd();
  auto* pd1 = hca1.alloc_pd();
  auto* cq0 = hca0.create_cq(16);
  auto* cq1 = hca1.create_cq(16);
  auto* qp0 = hca0.create_qp(pd0, cq0, cq0);
  auto* qp1 = hca1.create_qp(pd1, cq1, cq1);
  hca0.connect(qp0, hca1.lid(), qp1->qpn());
  hca1.connect(qp1, hca0.lid(), qp0->qpn());
  mem::Buffer src = mem0.alloc(mem::Domain::HostDram, 4096);
  mem::Buffer dst = mem1.alloc(mem::Domain::HostDram, 4096);
  auto* smr =
      hca0.reg_mr(pd0, mem::Domain::HostDram, src.addr(), 4096, 0);
  auto* dmr = hca1.reg_mr(pd1, mem::Domain::HostDram, dst.addr(), 4096,
                          ib::kLocalWrite);
  ib::SendWr wr;
  wr.opcode = ib::Opcode::Send;
  wr.sg_list = {{src.addr(), 4096, smr->lkey()}};
  hca0.post_send(qp0, wr);
  engine.schedule_at(sim::microseconds(500), [&] {
    ib::RecvWr rwr;
    rwr.sg_list = {{dst.addr(), 4096, dmr->lkey()}};
    hca1.post_recv(qp1, rwr);
  });
  engine.run();
  // First attempt + RNR retransmission.
  EXPECT_EQ(hca0.egress_bytes(), 2u * 4096);
}

TEST(EngineStats, NoRetransmissionWhenRecvPreposted) {
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric(engine, platform);
  mem::NodeMemory mem0(0), mem1(1);
  pcie::PciePort p0(engine, mem0, platform), p1(engine, mem1, platform);
  ib::Hca& hca0 = fabric.add_hca(mem0, p0);
  ib::Hca& hca1 = fabric.add_hca(mem1, p1);
  auto* pd0 = hca0.alloc_pd();
  auto* pd1 = hca1.alloc_pd();
  auto* cq0 = hca0.create_cq(16);
  auto* cq1 = hca1.create_cq(16);
  auto* qp0 = hca0.create_qp(pd0, cq0, cq0);
  auto* qp1 = hca1.create_qp(pd1, cq1, cq1);
  hca0.connect(qp0, hca1.lid(), qp1->qpn());
  hca1.connect(qp1, hca0.lid(), qp0->qpn());
  mem::Buffer src = mem0.alloc(mem::Domain::HostDram, 4096);
  mem::Buffer dst = mem1.alloc(mem::Domain::HostDram, 4096);
  auto* smr =
      hca0.reg_mr(pd0, mem::Domain::HostDram, src.addr(), 4096, 0);
  auto* dmr = hca1.reg_mr(pd1, mem::Domain::HostDram, dst.addr(), 4096,
                          ib::kLocalWrite);
  ib::RecvWr rwr;
  rwr.sg_list = {{dst.addr(), 4096, dmr->lkey()}};
  hca1.post_recv(qp1, rwr);
  ib::SendWr wr;
  wr.opcode = ib::Opcode::Send;
  wr.sg_list = {{src.addr(), 4096, smr->lkey()}};
  hca0.post_send(qp0, wr);
  engine.run();
  EXPECT_EQ(hca0.egress_bytes(), 4096u);
}
