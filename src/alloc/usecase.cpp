#include "alloc/usecase.hpp"

namespace daelite::alloc {

std::optional<UseCaseAllocation> allocate_use_case(SlotAllocator& alloc, const UseCase& uc,
                                                   std::string* failed) {
  UseCaseAllocation result;
  tdm::ConnectionId next_id = 0;

  auto roll_back = [&] { release_use_case(alloc, result); };

  for (const ConnectionSpec& spec : uc.connections) {
    AllocatedConnection conn;
    conn.id = next_id++;
    conn.spec = spec;

    ChannelSpec req;
    req.src_ni = spec.src_ni;
    req.dst_nis = spec.dst_nis;
    req.slots_required = spec.request_slots;
    auto r = alloc.allocate(req);
    if (!r) {
      if (failed) *failed = spec.name;
      roll_back();
      return std::nullopt;
    }
    conn.request = std::move(*r);

    // response_slots == 0 means "no response channel" — a zero-slot
    // allocation must not be attempted (the allocator rejects it).
    if (spec.dst_nis.size() == 1 && spec.response_slots > 0) {
      ChannelSpec resp;
      resp.src_ni = spec.dst_nis[0];
      resp.dst_nis = {spec.src_ni};
      resp.slots_required = spec.response_slots;
      auto rr = alloc.allocate(resp);
      if (!rr) {
        alloc.release(conn.request);
        if (failed) *failed = spec.name;
        roll_back();
        return std::nullopt;
      }
      conn.response = std::move(*rr);
      conn.has_response = true;
    }
    result.connections.push_back(std::move(conn));
  }
  result.schedule_utilization = alloc.schedule().utilization();
  return result;
}

void release_use_case(SlotAllocator& alloc, const UseCaseAllocation& a) {
  for (const AllocatedConnection& c : a.connections) {
    alloc.release(c.request);
    if (c.has_response) alloc.release(c.response);
  }
}

bool restore_connection(SlotAllocator& alloc, const AllocatedConnection& c) {
  if (!alloc.restore(c.request)) return false;
  if (c.has_response && !alloc.restore(c.response)) {
    alloc.release(c.request);
    return false;
  }
  return true;
}

} // namespace daelite::alloc
