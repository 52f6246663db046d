#include "mem/memory.hpp"

namespace dcfa::mem {

const char* domain_name(Domain d) {
  return d == Domain::HostDram ? "host" : "phi";
}

namespace {
std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}
// Distinct simulated address bases per (node, domain) so that a stray
// address from the wrong space can never resolve by accident.
SimAddr base_for(NodeId node, Domain d) {
  return (static_cast<SimAddr>(node + 1) << 40) |
         (d == Domain::PhiGddr ? (1ull << 39) : 0);
}
}  // namespace

AddressSpace::AddressSpace(NodeId node, Domain domain,
                           std::size_t capacity_bytes)
    : node_(node),
      domain_(domain),
      capacity_(capacity_bytes),
      next_addr_(base_for(node, domain) + kPage) {}

Buffer AddressSpace::alloc(std::size_t size, std::size_t align) {
  if (size == 0) throw std::invalid_argument("AddressSpace::alloc: size 0");
  if (align == 0 || (align & (align - 1)) != 0) {
    throw std::invalid_argument("AddressSpace::alloc: bad alignment");
  }
  if (in_use_ + size > capacity_) {
    throw OutOfMemory(std::string(domain_name(domain_)) +
                      " memory exhausted on node " + std::to_string(node_) +
                      " (" + std::to_string(in_use_) + " in use, " +
                      std::to_string(size) + " requested)");
  }
  SimAddr addr = round_up(next_addr_, align);
  // Leave a guard gap so off-by-one windows never touch a neighbour.
  next_addr_ = round_up(addr + size + kPage, kPage);

  auto storage = std::make_unique<std::byte[]>(size);  // value-init: zeroed

  Buffer buf;
  buf.data_ = storage.get();
  buf.size_ = size;
  buf.addr_ = addr;
  buf.domain_ = domain_;
  buf.node_ = node_;

  starts_.push_back(addr);
  regions_.push_back(Region{size, std::move(storage)});
  in_use_ += size;
  ++live_;
  return buf;
}

std::size_t AddressSpace::slot_at(SimAddr addr) const {
  if (starts_.empty() || addr < starts_.front()) return regions_.size();
  // Branch-free binary search: the loop compiles to conditional moves, so
  // random lookups do not pay a mispredicted branch per halving.
  const SimAddr* base = starts_.data();
  std::size_t n = starts_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] <= addr ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - starts_.data());
}

void AddressSpace::free(const Buffer& buf) {
  const std::size_t i = slot_at(buf.addr());
  if (i == regions_.size() || starts_[i] != buf.addr() ||
      !regions_[i].storage) {
    throw BadAddress("AddressSpace::free: unknown buffer");
  }
  regions_[i].storage.reset();
  in_use_ -= regions_[i].size;
  --live_;
  if (regions_.size() - live_ > live_) {
    std::size_t out = 0;
    for (std::size_t j = 0; j < regions_.size(); ++j) {
      if (!regions_[j].storage) continue;
      if (out != j) {
        starts_[out] = starts_[j];
        regions_[out] = std::move(regions_[j]);
      }
      ++out;
    }
    starts_.resize(out);
    regions_.resize(out);
  }
}

std::byte* AddressSpace::resolve(SimAddr addr, std::size_t len) {
  const std::size_t i = slot_at(addr);
  if (i == regions_.size() || !regions_[i].storage) {
    throw BadAddress("DMA fault: address " + std::to_string(addr) +
                     " not mapped in " + domain_name(domain_) + " of node " +
                     std::to_string(node_));
  }
  if (addr + len > starts_[i] + regions_[i].size) {
    throw BadAddress("DMA fault: window [" + std::to_string(addr) + ", +" +
                     std::to_string(len) + ") escapes allocation in " +
                     domain_name(domain_) + " of node " +
                     std::to_string(node_));
  }
  return regions_[i].storage.get() + (addr - starts_[i]);
}

bool AddressSpace::contains(SimAddr addr, std::size_t len) const {
  const std::size_t i = slot_at(addr);
  return i < regions_.size() && regions_[i].storage &&
         addr + len <= starts_[i] + regions_[i].size;
}

NodeMemory::NodeMemory(NodeId node, std::size_t host_bytes,
                       std::size_t phi_bytes)
    : node_(node),
      host_(node, Domain::HostDram, host_bytes),
      phi_(node, Domain::PhiGddr, phi_bytes) {}

AddressSpace& NodeMemory::space(Domain d) {
  return d == Domain::HostDram ? host_ : phi_;
}

const AddressSpace& NodeMemory::space(Domain d) const {
  return d == Domain::HostDram ? host_ : phi_;
}

}  // namespace dcfa::mem
