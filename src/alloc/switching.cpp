#include "alloc/switching.hpp"

#include <algorithm>

namespace daelite::alloc {

bool specs_equal(const ConnectionSpec& a, const ConnectionSpec& b) {
  return a.name == b.name && a.src_ni == b.src_ni && a.dst_nis == b.dst_nis &&
         a.request_slots == b.request_slots && a.response_slots == b.response_slots;
}

SwitchPlan plan_use_case_switch(const UseCaseAllocation& from, const UseCase& to) {
  SwitchPlan plan;
  std::vector<bool> matched_to(to.connections.size(), false);

  for (const AllocatedConnection& conn : from.connections) {
    bool kept = false;
    for (std::size_t i = 0; i < to.connections.size(); ++i) {
      if (!matched_to[i] && specs_equal(conn.spec, to.connections[i])) {
        matched_to[i] = true;
        plan.keep.push_back(conn);
        kept = true;
        break;
      }
    }
    if (!kept) plan.tear_down.push_back(conn);
  }
  for (std::size_t i = 0; i < to.connections.size(); ++i)
    if (!matched_to[i]) plan.set_up.push_back(to.connections[i]);
  return plan;
}

std::optional<UseCaseAllocation> execute_use_case_switch(SlotAllocator& alloc,
                                                         const UseCaseAllocation& from,
                                                         const UseCase& to, SwitchPlan* plan_out,
                                                         std::string* failed) {
  SwitchPlan plan = plan_use_case_switch(from, to);

  // Release the connections leaving the use-case.
  for (const AllocatedConnection& conn : plan.tear_down) {
    alloc.release(conn.request);
    if (conn.has_response) alloc.release(conn.response);
  }

  // Allocate the new ones.
  UseCase additions;
  additions.name = to.name;
  additions.connections = plan.set_up;
  auto added = allocate_use_case(alloc, additions, failed);

  if (!added) {
    // Transactional roll-back. Order matters: allocate_use_case has rolled
    // its partially-committed additions back before returning, so the
    // torn-down reservations' slots are free again *unless an external
    // actor claimed them in the meantime* (raw reservations, a concurrent
    // mirror, or a caller whose `from` no longer matches the allocator).
    // Each connection's request+response comes back as a unit
    // (restore_connection), or not at all.
    std::string rollback_failed;
    for (const AllocatedConnection& conn : plan.tear_down)
      if (!restore_connection(alloc, conn) && rollback_failed.empty())
        rollback_failed = conn.spec.name;
    if (!rollback_failed.empty() && failed) {
      // Surface the incomplete roll-back instead of silently reporting
      // "allocator restored to the pre-switch state".
      *failed += " (rollback incomplete: " + rollback_failed + ")";
    }
    return std::nullopt;
  }

  UseCaseAllocation result;
  result.connections = plan.keep;
  for (auto& c : added->connections) result.connections.push_back(std::move(c));
  result.schedule_utilization = alloc.schedule().utilization();
  if (plan_out) *plan_out = std::move(plan);
  return result;
}

} // namespace daelite::alloc
