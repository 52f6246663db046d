// Unit tests for the simulated memory: allocation, alignment, address
// resolution, domain isolation, capacity accounting.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/memory.hpp"

using namespace dcfa::mem;

TEST(AddressSpace, AllocatesAlignedDistinctRegions) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer a = space.alloc(100, 64);
  Buffer b = space.alloc(100, 4096);
  EXPECT_NE(a.addr(), b.addr());
  EXPECT_EQ(a.addr() % 64, 0u);
  EXPECT_EQ(b.addr() % 4096, 0u);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.domain(), Domain::HostDram);
  EXPECT_EQ(a.node(), 0);
}

TEST(AddressSpace, ZeroInitialised) {
  AddressSpace space(0, Domain::PhiGddr, 1 << 20);
  Buffer b = space.alloc(4096);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.data()[i], std::byte{0});
  }
}

TEST(AddressSpace, ResolveReturnsBackingStorage) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(256);
  b.data()[17] = std::byte{0xAB};
  std::byte* p = space.resolve(b.addr() + 17, 1);
  EXPECT_EQ(*p, std::byte{0xAB});
}

TEST(AddressSpace, ResolveRejectsOutOfBoundsWindows) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(256);
  EXPECT_NO_THROW(space.resolve(b.addr(), 256));
  EXPECT_THROW(space.resolve(b.addr(), 257), BadAddress);
  EXPECT_THROW(space.resolve(b.addr() + 200, 100), BadAddress);
  EXPECT_THROW(space.resolve(b.addr() - 1, 1), BadAddress);
  EXPECT_THROW(space.resolve(0xdeadbeef, 1), BadAddress);
}

TEST(AddressSpace, ContainsMatchesResolve) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(128);
  EXPECT_TRUE(space.contains(b.addr(), 128));
  EXPECT_TRUE(space.contains(b.addr() + 64, 64));
  EXPECT_FALSE(space.contains(b.addr(), 129));
  EXPECT_FALSE(space.contains(b.addr() + 120, 16));
}

TEST(AddressSpace, FreeInvalidatesResolution) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer b = space.alloc(128);
  space.free(b);
  EXPECT_THROW(space.resolve(b.addr(), 1), BadAddress);
  EXPECT_THROW(space.free(b), BadAddress);
  EXPECT_EQ(space.bytes_in_use(), 0u);
}

TEST(AddressSpace, CapacityEnforced) {
  // The Phi has no demand paging: exhausting GDDR must fail loudly.
  AddressSpace space(0, Domain::PhiGddr, 1000);
  Buffer a = space.alloc(600);
  EXPECT_THROW(space.alloc(600), OutOfMemory);
  space.free(a);
  EXPECT_NO_THROW(space.alloc(600));
}

TEST(AddressSpace, RejectsBadArguments) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  EXPECT_THROW(space.alloc(0), std::invalid_argument);
  EXPECT_THROW(space.alloc(16, 3), std::invalid_argument);  // not power of 2
  EXPECT_THROW(space.alloc(16, 0), std::invalid_argument);
}

TEST(AddressSpace, GuardGapsBetweenAllocations) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer a = space.alloc(64);
  Buffer b = space.alloc(64);
  // A window running off the end of `a` must fault rather than bleed into
  // `b` (catches off-by-one DMA descriptors).
  EXPECT_GT(b.addr(), a.end());
  EXPECT_THROW(space.resolve(a.addr() + 32, 64), BadAddress);
}

TEST(AddressSpace, FreedMiddleRegionFaultsBeforeAndAfterCompaction) {
  AddressSpace space(0, Domain::HostDram, 1 << 20);
  Buffer a = space.alloc(256);
  Buffer b = space.alloc(256);
  Buffer c = space.alloc(256);
  space.free(b);  // one dead slot among two live ones: no compaction yet
  EXPECT_THROW(space.resolve(b.addr(), 1), BadAddress);
  EXPECT_THROW(space.resolve(b.addr() + 100, 16), BadAddress);
  EXPECT_FALSE(space.contains(b.addr(), 1));
  EXPECT_FALSE(space.contains(b.addr() + 100, 16));
  EXPECT_EQ(space.resolve(a.addr() + 255, 1), a.data() + 255);
  EXPECT_EQ(space.resolve(c.addr(), 256), c.data());
  EXPECT_EQ(space.live_allocations(), 2u);

  space.free(a);  // two dead slots outnumber the one live one: compacts
  EXPECT_THROW(space.resolve(a.addr(), 1), BadAddress);
  EXPECT_THROW(space.resolve(b.addr() + 100, 16), BadAddress);
  EXPECT_FALSE(space.contains(a.addr(), 1));
  EXPECT_FALSE(space.contains(b.addr(), 1));
  EXPECT_TRUE(space.contains(c.addr() + 128, 128));
  EXPECT_EQ(space.resolve(c.addr() + 128, 128), c.data() + 128);
  EXPECT_EQ(space.live_allocations(), 1u);
  EXPECT_THROW(space.free(a), BadAddress);
  EXPECT_THROW(space.free(b), BadAddress);
  space.free(c);
  EXPECT_THROW(space.free(c), BadAddress);
  EXPECT_EQ(space.live_allocations(), 0u);
  EXPECT_EQ(space.bytes_in_use(), 0u);
}

TEST(AddressSpace, LiveCountExactAcrossInterleavedAllocAndFree) {
  AddressSpace space(0, Domain::HostDram, 64 << 20);
  std::vector<Buffer> live;
  std::vector<Buffer> dead;
  std::uint64_t state = 12345;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = state >> 33;
    if (live.empty() || r % 5 < 3) {
      Buffer b = space.alloc(1 + r % 3000);
      b.data()[0] = static_cast<std::byte>(i);
      live.push_back(b);
    } else {
      const std::size_t victim = r % live.size();
      space.free(live[victim]);
      dead.push_back(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(space.live_allocations(), live.size()) << "after op " << i;
  }
  for (const Buffer& b : live) {
    EXPECT_EQ(space.resolve(b.addr(), b.size()), b.data());
  }
  for (const Buffer& b : dead) {
    EXPECT_FALSE(space.contains(b.addr(), 1));
    EXPECT_THROW(space.resolve(b.addr(), 1), BadAddress);
    EXPECT_THROW(space.free(b), BadAddress);
  }
}

TEST(NodeMemory, DomainsAreIsolated) {
  NodeMemory node(3);
  Buffer h = node.alloc(Domain::HostDram, 128);
  Buffer p = node.alloc(Domain::PhiGddr, 128);
  EXPECT_NE(h.addr(), p.addr());
  // A host address never resolves in the GDDR space and vice versa.
  EXPECT_THROW(node.space(Domain::PhiGddr).resolve(h.addr(), 1), BadAddress);
  EXPECT_THROW(node.space(Domain::HostDram).resolve(p.addr(), 1), BadAddress);
}

TEST(NodeMemory, DistinctNodesHaveDistinctAddressBases) {
  NodeMemory n0(0), n1(1);
  Buffer a = n0.alloc(Domain::HostDram, 64);
  // Node 0's address must not resolve on node 1 even accidentally.
  EXPECT_THROW(n1.space(Domain::HostDram).resolve(a.addr(), 1), BadAddress);
}

TEST(NodeMemory, ManyAllocationsStayDisjoint) {
  NodeMemory node(0);
  std::vector<Buffer> bufs;
  for (int i = 0; i < 200; ++i) {
    bufs.push_back(node.alloc(Domain::HostDram, 1 + (i * 37) % 5000));
  }
  for (std::size_t i = 1; i < bufs.size(); ++i) {
    EXPECT_GE(bufs[i].addr(), bufs[i - 1].end());
  }
  EXPECT_EQ(node.space(Domain::HostDram).live_allocations(), 200u);
}
