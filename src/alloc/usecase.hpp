#pragma once
// Use-case level allocation.
//
// A *use case* (paper §I) is a set of concurrently running applications,
// i.e. a set of connections with bandwidth requirements. Connections are
// bidirectional (paper §IV): a request channel src -> dst(s) and, for
// unicast connections, a response channel dst -> src. Credits for each
// direction ride on the opposite direction's slots, so a unicast
// connection always allocates both channels. Multicast connections have no
// response channel ("There is no corresponding multi-destination read")
// and cannot use the default flow control.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/route.hpp"
#include "tdm/ids.hpp"

namespace daelite::alloc {

struct ConnectionSpec {
  std::string name;
  topo::NodeId src_ni = topo::kInvalidNode;
  std::vector<topo::NodeId> dst_nis;   ///< >1 destinations = multicast
  std::uint32_t request_slots = 1;     ///< slots/wheel for src -> dst data
  std::uint32_t response_slots = 1;    ///< slots/wheel for dst -> src data (unicast only)
  /// QoS class: degradation order under overload, faults and compaction
  /// (alloc/allocator.hpp). kStandard keeps legacy behaviour.
  ServiceClass service_class = ServiceClass::kStandard;
};

struct AllocatedConnection {
  tdm::ConnectionId id = tdm::kNoConnection;
  ConnectionSpec spec;
  RouteTree request;
  RouteTree response;       ///< valid iff has_response
  bool has_response = false;

  bool is_multicast() const { return spec.dst_nis.size() > 1; }
};

struct UseCase {
  std::string name;
  std::vector<ConnectionSpec> connections;
};

struct UseCaseAllocation {
  std::vector<AllocatedConnection> connections;
  double schedule_utilization = 0.0;
};

/// Allocate every connection of the use case (all-or-nothing).
/// On failure, the allocator is restored and the name of the first
/// unallocatable connection is returned in `failed`.
std::optional<UseCaseAllocation> allocate_use_case(SlotAllocator& alloc, const UseCase& uc,
                                                   std::string* failed = nullptr);

/// Release every channel of an allocation.
void release_use_case(SlotAllocator& alloc, const UseCaseAllocation& a);

/// Re-reserve a connection's request and response exactly as they were
/// (SlotAllocator::restore), as a unit: when the response cannot be
/// restored the request is released again, so no connection is left
/// holding one direction without its credit path. Returns whether both
/// came back.
bool restore_connection(SlotAllocator& alloc, const AllocatedConnection& c);

} // namespace daelite::alloc
