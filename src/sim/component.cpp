#include "sim/component.hpp"

#include <utility>

#include "sim/kernel.hpp"

namespace daelite::sim {

Component::Component(Kernel& kernel, std::string name, Cadence cadence)
    : kernel_(&kernel), name_(std::move(name)), cadence_(cadence) {
  if (cadence_.stride == 0) cadence_.stride = 1;
  cadence_.phase %= cadence_.stride;
  kernel_->add(this);
}

Component::~Component() {
  if (kernel_ != nullptr) kernel_->remove(this); // null: the kernel died first
}

void Component::commit() {
  for (RegBase* r : regs_) r->commit_reg();
}

Cycle Component::now() const { return kernel_->now(); }

} // namespace daelite::sim
