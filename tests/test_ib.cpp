// dcfa-lint: allow-file(raw-post) -- this file tests the HCA verbs model itself
// Tests for the simulated InfiniBand HCA + fabric: verbs object lifecycle,
// protection checks, RDMA read/write data integrity, SGE gather/scatter,
// send/recv matching and RNR, completion ordering, and the
// direction-dependent bandwidth model that drives Figure 5.

#include <gtest/gtest.h>

#include <cstring>

#include "ib/fabric.hpp"

using namespace dcfa;
using namespace dcfa::ib;
using dcfa::sim::Time;

namespace {

struct Cluster {
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric{engine, platform};
  mem::NodeMemory mem0{0}, mem1{1};
  pcie::PciePort pcie0{engine, mem0, platform};
  pcie::PciePort pcie1{engine, mem1, platform};
  Hca& hca0 = fabric.add_hca(mem0, pcie0);
  Hca& hca1 = fabric.add_hca(mem1, pcie1);

  struct End {
    ProtectionDomain* pd;
    CompletionQueue* cq;
    QueuePair* qp;
  };
  End e0{}, e1{};

  Cluster() {
    e0.pd = hca0.alloc_pd();
    e1.pd = hca1.alloc_pd();
    e0.cq = hca0.create_cq(128);
    e1.cq = hca1.create_cq(128);
    e0.qp = hca0.create_qp(e0.pd, e0.cq, e0.cq);
    e1.qp = hca1.create_qp(e1.pd, e1.cq, e1.cq);
    hca0.connect(e0.qp, hca1.lid(), e1.qp->qpn());
    hca1.connect(e1.qp, hca0.lid(), e0.qp->qpn());
  }

  /// Drain engine and pop one completion from `cq`.
  Wc run_for_wc(CompletionQueue* cq) {
    engine.run();
    Wc wc;
    EXPECT_EQ(cq->poll(1, &wc), 1) << "no completion arrived";
    return wc;
  }
};

}  // namespace

TEST(Hca, LidsAndQpnsAreUnique) {
  Cluster c;
  EXPECT_NE(c.hca0.lid(), c.hca1.lid());
  EXPECT_NE(c.e0.qp->qpn(), 0u);
}

TEST(Hca, RegMrValidatesBacking) {
  Cluster c;
  mem::Buffer b = c.mem0.alloc(mem::Domain::HostDram, 4096);
  MemoryRegion* mr = c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, b.addr(),
                                   4096, kRemoteWrite);
  EXPECT_NE(mr->lkey(), mr->rkey());
  EXPECT_TRUE(mr->covers(b.addr() + 100, 100));
  EXPECT_FALSE(mr->covers(b.addr() + 4000, 200));
  MemoryRegion* rejected = nullptr;
  EXPECT_THROW(rejected = c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram,
                                        b.addr() + 1, 4096, 0),
               mem::BadAddress);
  EXPECT_THROW(rejected = c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram,
                                        b.addr(), 0, 0),
               std::invalid_argument);
  EXPECT_EQ(rejected, nullptr);
  const std::uint32_t lkey = mr->lkey();
  EXPECT_EQ(c.hca0.mr_by_lkey(lkey), mr);
  EXPECT_EQ(c.hca0.mr_by_rkey(mr->rkey()), mr);
  c.hca0.dereg_mr(mr);  // the handle is dead: only the cached key is safe now
  EXPECT_EQ(c.hca0.mr_by_lkey(lkey), nullptr);
}

TEST(Hca, KeyKindsDoNotCrossAndDeadObjectsAreRejected) {
  Cluster c;
  mem::Buffer b = c.mem0.alloc(mem::Domain::HostDram, 256);
  MemoryRegion* mr = c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, b.addr(),
                                   256, kLocalWrite | kRemoteWrite);
  // An rkey is never an lkey and vice versa.
  EXPECT_EQ(c.hca0.mr_by_lkey(mr->rkey()), nullptr);
  EXPECT_EQ(c.hca0.mr_by_rkey(mr->lkey()), nullptr);
  // A key past the last registration, or below the first, finds nothing.
  EXPECT_EQ(c.hca0.mr_by_lkey(mr->lkey() + 2), nullptr);
  EXPECT_EQ(c.hca0.mr_by_rkey(0), nullptr);
  c.hca0.dereg_mr(mr);
  EXPECT_EQ(c.hca0.mr_by_rkey(mr->rkey()), nullptr);
  EXPECT_THROW(c.hca0.dereg_mr(mr), std::invalid_argument);
  EXPECT_THROW(c.hca1.dereg_mr(nullptr), std::invalid_argument);

  QueuePair* qp = c.hca0.create_qp(c.e0.pd, c.e0.cq, c.e0.cq);
  c.hca0.destroy_qp(qp);
  EXPECT_THROW(c.hca0.destroy_qp(qp), std::invalid_argument);
  // A QP of one HCA is unknown to the other.
  EXPECT_THROW(c.hca1.destroy_qp(c.e0.qp), std::invalid_argument);
}

TEST(Hca, PostToDestroyedRemoteQpIsRemoteAccessError) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteWrite);
  c.hca1.destroy_qp(c.e1.qp);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::RemoteAccessError);
  EXPECT_EQ(c.e0.qp->state(), QpState::Error);
}

TEST(Hca, RdmaWriteMovesData) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 1024);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 1024);
  for (int i = 0; i < 1024; ++i) src.data()[i] = static_cast<std::byte>(i * 3);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 1024, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 1024, kRemoteWrite);
  SendWr wr;
  wr.wr_id = 77;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 1024, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc.wr_id, 77u);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_EQ(wc.opcode, WcOpcode::RdmaWrite);
  EXPECT_EQ(wc.byte_len, 1024u);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 1024), 0);
}

TEST(Hca, RdmaWriteGathersMultipleSges) {
  // Header + payload + tail, like the eager packet — including SGEs from
  // different memory domains (Phi header, host-shadow payload).
  Cluster c;
  mem::Buffer hdr = c.mem0.alloc(mem::Domain::PhiGddr, 16);
  mem::Buffer pay = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer tail = c.mem0.alloc(mem::Domain::PhiGddr, 4);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 84);
  std::memset(hdr.data(), 0xA1, 16);
  std::memset(pay.data(), 0xB2, 64);
  std::memset(tail.data(), 0xC3, 4);
  MemoryRegion* m1 =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::PhiGddr, hdr.addr(), 16, 0);
  MemoryRegion* m2 =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, pay.addr(), 64, 0);
  MemoryRegion* m3 =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::PhiGddr, tail.addr(), 4, 0);
  MemoryRegion* dm = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram, dst.addr(),
                                   84, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{hdr.addr(), 16, m1->lkey()},
                {pay.addr(), 64, m2->lkey()},
                {tail.addr(), 4, m3->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dm->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.run_for_wc(c.e0.cq);
  // Destination layout: SGEs concatenated in order.
  EXPECT_EQ(dst.data()[0], std::byte{0xA1});
  EXPECT_EQ(dst.data()[15], std::byte{0xA1});
  EXPECT_EQ(dst.data()[16], std::byte{0xB2});
  EXPECT_EQ(dst.data()[79], std::byte{0xB2});
  EXPECT_EQ(dst.data()[80], std::byte{0xC3});
  EXPECT_EQ(dst.data()[83], std::byte{0xC3});
}

TEST(Hca, RdmaReadPullsData) {
  Cluster c;
  mem::Buffer local = c.mem0.alloc(mem::Domain::PhiGddr, 512);
  mem::Buffer remote = c.mem1.alloc(mem::Domain::HostDram, 512);
  for (int i = 0; i < 512; ++i) {
    remote.data()[i] = static_cast<std::byte>(255 - i % 256);
  }
  MemoryRegion* lmr = c.hca0.reg_mr(c.e0.pd, mem::Domain::PhiGddr,
                                    local.addr(), 512, kLocalWrite);
  MemoryRegion* rmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    remote.addr(), 512, kRemoteRead);
  SendWr wr;
  wr.opcode = Opcode::RdmaRead;
  wr.sg_list = {{local.addr(), 512, lmr->lkey()}};
  wr.remote_addr = remote.addr();
  wr.rkey = rmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc.status, WcStatus::Success);
  EXPECT_EQ(wc.opcode, WcOpcode::RdmaRead);
  EXPECT_EQ(std::memcmp(local.data(), remote.data(), 512), 0);
}

TEST(Hca, BadRkeyYieldsRemoteAccessErrorAndErrorState) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  SendWr wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = 0x1234;
  wr.rkey = 0xBAD;
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc.status, WcStatus::RemoteAccessError);
  EXPECT_EQ(c.e0.qp->state(), QpState::Error);
  // Subsequent posts flush.
  wr.wr_id = 2;
  c.hca0.post_send(c.e0.qp, wr);
  Wc wc2 = c.run_for_wc(c.e0.cq);
  EXPECT_EQ(wc2.status, WcStatus::WrFlushError);
}

TEST(Hca, MissingRemoteWritePermissionRejected) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteRead);  // no write
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::RemoteAccessError);
}

TEST(Hca, BadLkeyYieldsLocalProtectionError) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 64, 0xBAD}};
  wr.remote_addr = 0x1;
  wr.rkey = 0x1;
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::LocalProtectionError);
}

TEST(Hca, WindowEscapingMrRejected) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 128);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 128, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 128, smr->lkey()}};
  wr.remote_addr = dst.addr();  // 128 bytes into a 64-byte window
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  EXPECT_EQ(c.run_for_wc(c.e0.cq).status, WcStatus::RemoteAccessError);
}

TEST(Hca, PostOnUnconnectedQpThrows) {
  Cluster c;
  QueuePair* fresh = c.hca0.create_qp(c.e0.pd, c.e0.cq, c.e0.cq);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  EXPECT_THROW(c.hca0.post_send(fresh, wr), std::logic_error);
}

TEST(Hca, SendRecvDeliversDataAndMetadata) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 256);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 256);
  std::memset(src.data(), 0x7E, 256);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 256, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 256, kLocalWrite);
  RecvWr rwr;
  rwr.wr_id = 9;
  rwr.sg_list = {{dst.addr(), 256, dmr->lkey()}};
  c.hca1.post_recv(c.e1.qp, rwr);
  SendWr wr;
  wr.wr_id = 8;
  wr.opcode = Opcode::Send;
  wr.imm_data = 0xFACE;
  wr.sg_list = {{src.addr(), 256, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  Wc rwc;
  ASSERT_EQ(c.e1.cq->poll(1, &rwc), 1);
  EXPECT_EQ(rwc.wr_id, 9u);
  EXPECT_EQ(rwc.opcode, WcOpcode::Recv);
  EXPECT_EQ(rwc.byte_len, 256u);
  EXPECT_EQ(rwc.imm_data, 0xFACEu);
  EXPECT_EQ(rwc.src_qp, c.e0.qp->qpn());
  Wc swc;
  ASSERT_EQ(c.e0.cq->poll(1, &swc), 1);
  EXPECT_EQ(swc.wr_id, 8u);
  EXPECT_EQ(dst.data()[200], std::byte{0x7E});
}

TEST(Hca, SendBeforeRecvWaitsRnrThenCompletes) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kLocalWrite);
  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  // Post the receive later, from an event.
  c.engine.schedule_at(sim::microseconds(100), [&] {
    RecvWr rwr;
    rwr.sg_list = {{dst.addr(), 64, dmr->lkey()}};
    c.hca1.post_recv(c.e1.qp, rwr);
  });
  c.engine.run();
  Wc wc;
  ASSERT_EQ(c.e1.cq->poll(1, &wc), 1);
  EXPECT_EQ(wc.status, WcStatus::Success);
  // Completion is after the recv post plus the RNR retry delay.
  EXPECT_GE(c.engine.now(),
            sim::microseconds(100) + c.platform.rnr_retry_delay);
}

TEST(Hca, SendIntoReceiveWhoseMrWasDeregisteredDropsTheData) {
  // The receive was posted against a live MR that was deregistered before
  // the Send arrived: the landing drops the bytes ("receiver MR gone")
  // instead of dereferencing the dead MR.
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 64);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  std::memset(src.data(), 0x5A, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 64, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kLocalWrite);
  RecvWr rwr;
  rwr.wr_id = 3;
  rwr.sg_list = {{dst.addr(), 64, dmr->lkey()}};
  c.hca1.post_recv(c.e1.qp, rwr);
  c.hca1.dereg_mr(dmr);
  SendWr wr;
  wr.wr_id = 4;
  wr.opcode = Opcode::Send;
  wr.sg_list = {{src.addr(), 64, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  Wc rwc;
  ASSERT_EQ(c.e1.cq->poll(1, &rwc), 1);
  EXPECT_EQ(rwc.wr_id, 3u);
  for (std::size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(dst.data()[i], std::byte{0}) << "byte " << i << " landed";
  }
  Wc swc;
  ASSERT_EQ(c.e0.cq->poll(1, &swc), 1);
  EXPECT_EQ(swc.wr_id, 4u);
}

TEST(Hca, SendLongerThanRecvIsInvalidRequest) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 128);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 64);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 128, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 64, kLocalWrite);
  RecvWr rwr;
  rwr.sg_list = {{dst.addr(), 64, dmr->lkey()}};
  c.hca1.post_recv(c.e1.qp, rwr);
  SendWr wr;
  wr.opcode = Opcode::Send;
  wr.sg_list = {{src.addr(), 128, smr->lkey()}};
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  Wc wc;
  ASSERT_EQ(c.e1.cq->poll(1, &wc), 1);
  EXPECT_EQ(wc.status, WcStatus::RemoteInvalidRequest);
  ASSERT_EQ(c.e0.cq->poll(1, &wc), 1);
  EXPECT_EQ(wc.status, WcStatus::RemoteInvalidRequest);
}

TEST(Hca, CompletionsArriveInPostingOrderPerQp) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 1 << 20);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 1 << 20);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 1 << 20, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 1 << 20, kRemoteWrite);
  // Big write then tiny write: the tiny one must not complete first.
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.wr_id = 100 + i;
    wr.opcode = Opcode::RdmaWrite;
    wr.sg_list = {{src.addr(),
                   static_cast<std::uint32_t>(i == 0 ? (1 << 20) : 8),
                   smr->lkey()}};
    wr.remote_addr = dst.addr();
    wr.rkey = dmr->rkey();
    c.hca0.post_send(c.e0.qp, wr);
  }
  c.engine.run();
  Wc wc[4];
  ASSERT_EQ(c.e0.cq->poll(4, wc), 2);
  EXPECT_EQ(wc[0].wr_id, 100u);
  EXPECT_EQ(wc[1].wr_id, 101u);
}

TEST(Hca, CqOverrunThrows) {
  Cluster c;
  CompletionQueue* tiny = c.hca0.create_cq(1);
  QueuePair* qp = c.hca0.create_qp(c.e0.pd, tiny, tiny);
  c.hca0.connect(qp, c.hca1.lid(), c.e1.qp->qpn());
  c.hca1.connect(c.e1.qp, c.hca0.lid(), qp->qpn());
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  for (int i = 0; i < 2; ++i) {
    SendWr wr;
    wr.opcode = Opcode::RdmaWrite;
    wr.sg_list = {{src.addr(), 8, smr->lkey()}};
    wr.remote_addr = dst.addr();
    wr.rkey = dmr->rkey();
    c.hca0.post_send(qp, wr);
  }
  EXPECT_THROW(c.engine.run(), std::runtime_error);
}

TEST(Hca, UnsignaledWritesProduceNoCqe) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  src.data()[0] = std::byte{0x42};
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.signaled = false;
  wr.sg_list = {{src.addr(), 8, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  EXPECT_EQ(c.e0.cq->depth(), 0u);
  EXPECT_EQ(dst.data()[0], std::byte{0x42});  // data still moved
}

TEST(Hca, RemoteWriteObserversFire) {
  Cluster c;
  int fired = 0;
  MKey landed_rkey = 0;
  c.hca1.add_remote_write_observer([&](MKey rkey) {
    ++fired;
    landed_rkey = rkey;
  });
  mem::Buffer src = c.mem0.alloc(mem::Domain::HostDram, 8);
  mem::Buffer dst = c.mem1.alloc(mem::Domain::HostDram, 8);
  mem::Buffer other = c.mem1.alloc(mem::Domain::HostDram, 8);
  MemoryRegion* smr =
      c.hca0.reg_mr(c.e0.pd, mem::Domain::HostDram, src.addr(), 8, 0);
  MemoryRegion* other_mr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                         other.addr(), 8, kRemoteWrite);
  MemoryRegion* dmr = c.hca1.reg_mr(c.e1.pd, mem::Domain::HostDram,
                                    dst.addr(), 8, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), 8, smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  EXPECT_EQ(fired, 1);
  // The observer names the MR the write landed in, not just "something
  // landed" (the engine's ready set maps it back to the peer whose ring or
  // credit cell changed).
  EXPECT_EQ(landed_rkey, dmr->rkey());
  EXPECT_NE(landed_rkey, other_mr->rkey());
}

// --- Timing model: the Figure 5 asymmetry at the verbs level ----------------

namespace {
/// One-way latency of a large RDMA write with the given buffer domains.
Time one_way(mem::Domain src_d, mem::Domain dst_d, std::size_t bytes) {
  Cluster c;
  mem::Buffer src = c.mem0.alloc(src_d, bytes);
  mem::Buffer dst = c.mem1.alloc(dst_d, bytes);
  MemoryRegion* smr = c.hca0.reg_mr(c.e0.pd, src_d, src.addr(), bytes, 0);
  MemoryRegion* dmr =
      c.hca1.reg_mr(c.e1.pd, dst_d, dst.addr(), bytes, kRemoteWrite);
  SendWr wr;
  wr.opcode = Opcode::RdmaWrite;
  wr.sg_list = {{src.addr(), static_cast<std::uint32_t>(bytes), smr->lkey()}};
  wr.remote_addr = dst.addr();
  wr.rkey = dmr->rkey();
  c.hca0.post_send(c.e0.qp, wr);
  c.engine.run();
  return c.engine.now();
}
}  // namespace

TEST(HcaTiming, PhiSourceIsTheBottleneck) {
  const std::size_t mb = 1 << 20;
  const Time hh = one_way(mem::Domain::HostDram, mem::Domain::HostDram, mb);
  const Time hp = one_way(mem::Domain::HostDram, mem::Domain::PhiGddr, mb);
  const Time ph = one_way(mem::Domain::PhiGddr, mem::Domain::HostDram, mb);
  const Time pp = one_way(mem::Domain::PhiGddr, mem::Domain::PhiGddr, mb);
  // Figure 5: host-sourced transfers are equivalent; Phi-sourced transfers
  // are >4x slower regardless of destination.
  EXPECT_NEAR(static_cast<double>(hp) / hh, 1.0, 0.1);
  EXPECT_NEAR(static_cast<double>(pp) / ph, 1.0, 0.1);
  EXPECT_GT(static_cast<double>(ph) / hh, 4.0);
}

TEST(HcaTiming, LargeTransferApproachesBottleneckBandwidth) {
  const std::size_t bytes = 8 << 20;
  const Time t = one_way(mem::Domain::HostDram, mem::Domain::HostDram, bytes);
  const double gbps = static_cast<double>(bytes) / t;
  sim::Platform p;
  EXPECT_GT(gbps, p.ib_wire_gbps * 0.85);
  EXPECT_LE(gbps, p.ib_wire_gbps * 1.01);
}

TEST(HcaTiming, SmallTransferIsLatencyDominated) {
  const Time t = one_way(mem::Domain::HostDram, mem::Domain::HostDram, 8);
  sim::Platform p;
  // Wire propagation plus fixed DMA/WQE latencies and the write ACK, but no
  // meaningful serialisation time.
  const Time floor = p.ib_hop_latency * p.ib_hops;
  EXPECT_GE(t, floor);
  EXPECT_LE(t, 2 * floor + sim::microseconds(2));
}
