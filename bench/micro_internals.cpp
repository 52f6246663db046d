// Real-time micro-benchmarks (google-benchmark) of the library's hot
// data structures — the costs that, in a real port of DCFA-MPI, run on a
// 1 GHz in-order Phi core and must stay tiny: datatype pack/unpack, ring
// packet encode/scan, MR cache lookups, sequence-channel matching, the
// per-packet address and key lookups of the memory and HCA models, and the
// discrete-event core itself.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "ib/fabric.hpp"
#include "mem/memory.hpp"
#include "mpi/datatype.hpp"
#include "mpi/packet.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"

using namespace dcfa;

// --- Datatype engine ---------------------------------------------------------

static void BM_PackContiguous(benchmark::State& state) {
  const std::size_t n = state.range(0);
  std::vector<std::byte> src(n), dst(n);
  const auto& t = mpi::type_byte();
  for (auto _ : state) {
    t.pack(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_PackContiguous)->Range(1 << 10, 1 << 20);

static void BM_PackVector(benchmark::State& state) {
  const std::size_t blocks = state.range(0);
  const mpi::Datatype t =
      mpi::Datatype::vector(blocks, 8, 16, mpi::type_double());
  std::vector<std::byte> src(t.extent() * 4), dst(t.size() * 4);
  for (auto _ : state) {
    t.pack(src.data(), dst.data(), 4);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * t.size() * 4);
}
BENCHMARK(BM_PackVector)->Range(8, 1 << 10);

static void BM_UnpackVector(benchmark::State& state) {
  const std::size_t blocks = state.range(0);
  const mpi::Datatype t =
      mpi::Datatype::vector(blocks, 8, 16, mpi::type_double());
  std::vector<std::byte> packed(t.size() * 4), dst(t.extent() * 4);
  for (auto _ : state) {
    t.unpack(packed.data(), dst.data(), 4);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * t.size() * 4);
}
BENCHMARK(BM_UnpackVector)->Range(8, 1 << 10);

// --- Ring packet handling ------------------------------------------------------

static void BM_PacketEncodeScan(benchmark::State& state) {
  // Header+payload+tail staging followed by the receiver's header/tail
  // probe — the per-message software cost of the eager path.
  const std::size_t payload = state.range(0);
  mpi::SlotLayout layout{8192};
  std::vector<std::byte> slot(layout.stride());
  std::vector<std::byte> data(payload);
  mpi::PacketHeader hdr;
  hdr.msg_bytes = payload;
  for (auto _ : state) {
    std::memcpy(slot.data(), &hdr, sizeof hdr);
    std::memcpy(slot.data() + sizeof hdr, data.data(), payload);
    const mpi::PacketTail tail = mpi::kPacketMagic;
    std::memcpy(slot.data() + sizeof hdr + payload, &tail, sizeof tail);
    // Receiver side probe.
    mpi::PacketHeader probe;
    std::memcpy(&probe, slot.data(), sizeof probe);
    mpi::PacketTail t2;
    std::memcpy(&t2, slot.data() + sizeof hdr + probe.msg_bytes, sizeof t2);
    benchmark::DoNotOptimize(probe);
    benchmark::DoNotOptimize(t2);
  }
  state.SetBytesProcessed(state.iterations() * payload);
}
BENCHMARK(BM_PacketEncodeScan)->Arg(8)->Arg(512)->Arg(8192);

// --- Sequence-channel matching --------------------------------------------------

static void BM_ChannelMapLookup(benchmark::State& state) {
  // (comm, tag) -> channel -> seq lookup, the per-packet dispatch cost.
  const int channels = state.range(0);
  std::map<std::pair<std::uint32_t, int>,
           std::map<std::uint64_t, int>> chmap;
  sim::Rng rng(1);
  for (int i = 0; i < channels; ++i) {
    auto& ch = chmap[{i % 3, i}];
    for (int s = 0; s < 16; ++s) ch[s] = s;
  }
  std::uint64_t found = 0;
  for (auto _ : state) {
    const int tag = static_cast<int>(rng.below(channels));
    auto it = chmap.find({tag % 3, tag});
    if (it != chmap.end()) {
      auto sit = it->second.find(rng.below(16));
      if (sit != it->second.end()) found += sit->second;
    }
  }
  benchmark::DoNotOptimize(found);
}
BENCHMARK(BM_ChannelMapLookup)->Arg(4)->Arg(64)->Arg(1024);

// --- Per-packet lookups in the memory and HCA models ---------------------------

static void BM_AddressSpaceResolve(benchmark::State& state) {
  // Every DMA landing resolves its (address, length) window against the
  // node's address space; rings, staging and credit cells make ~1000 live
  // regions per node at scale.
  mem::AddressSpace space(0, mem::Domain::HostDram, 1ull << 32);
  sim::Rng rng(3);
  std::vector<mem::Buffer> bufs;
  for (int i = 0; i < 1024; ++i) {
    bufs.push_back(space.alloc(64 + rng.below(8192)));
  }
  struct Window {
    mem::SimAddr addr;
    std::size_t len;
  };
  std::vector<Window> windows;
  for (int i = 0; i < 4096; ++i) {
    const mem::Buffer& b = bufs[rng.below(bufs.size())];
    const std::size_t off = rng.below(b.size());
    windows.push_back({b.addr() + off, 1 + rng.below(b.size() - off)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Window& w = windows[i++ & 4095];
    benchmark::DoNotOptimize(space.resolve(w.addr, w.len));
  }
}
BENCHMARK(BM_AddressSpaceResolve);

static void BM_HcaKeyLookup(benchmark::State& state) {
  // The lkey check of every post and the rkey check of every RDMA landing,
  // over `range(0)` registered MRs with every other one deregistered (MR
  // cache churn leaves dead keys behind).
  sim::Engine engine;
  sim::Platform platform;
  ib::Fabric fabric{engine, platform};
  mem::NodeMemory memory{0};
  pcie::PciePort pcie{engine, memory, platform};
  ib::Hca& hca = fabric.add_hca(memory, pcie);
  ib::ProtectionDomain* pd = hca.alloc_pd();
  const mem::Buffer buf = memory.alloc(mem::Domain::HostDram, 4096);
  std::vector<ib::MKey> keys;
  for (int i = 0; i < state.range(0); ++i) {
    ib::MemoryRegion* mr = hca.reg_mr(pd, mem::Domain::HostDram, buf.addr(),
                                      buf.size(), ib::kRemoteWrite);
    keys.push_back(mr->lkey());
    keys.push_back(mr->rkey());
    if (i % 2 == 1) hca.dereg_mr(mr);
  }
  sim::Rng rng(5);
  std::vector<ib::MKey> probes;
  for (int i = 0; i < 4096; ++i) probes.push_back(keys[rng.below(keys.size())]);
  std::size_t i = 0;
  for (auto _ : state) {
    const ib::MKey k = probes[i++ & 4095];
    benchmark::DoNotOptimize(k % 2 == 0 ? hca.mr_by_lkey(k)
                                        : hca.mr_by_rkey(k));
  }
}
BENCHMARK(BM_HcaKeyLookup)->Arg(64)->Arg(4096)->Arg(65536);

// --- Discrete-event core --------------------------------------------------------

static void BM_EngineEventThroughput(benchmark::State& state) {
  // Events scheduled+executed per second: bounds how fast the whole
  // simulation can run.
  for (auto _ : state) {
    sim::Engine engine;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(i, [&sink] { ++sink; });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

static void BM_ProcessContextSwitch(benchmark::State& state) {
  // One park/resume pair of a cooperative process (two fiber switches):
  // the simulator's fundamental cost per blocking call.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    state.ResumeTiming();
    engine.spawn("p", [](sim::Process& p) {
      for (int i = 0; i < 100; ++i) p.wait(1);
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ProcessContextSwitch);

static void BM_RngThroughput(benchmark::State& state) {
  sim::Rng rng(7);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.next();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngThroughput);

BENCHMARK_MAIN();
