#include "protocols/daemon.h"

#include <algorithm>

namespace tamp::protocols {

MembershipDaemon::MembershipDaemon(sim::Simulation& sim, net::Network& net,
                                   membership::NodeId self,
                                   membership::EntryData own)
    : sim_(sim),
      net_(net),
      self_(self),
      own_(std::move(own)),
      pool_(sim.scoped<membership::EntryPool>()) {
  own_.node = self_;
}

void MembershipDaemon::base_start() {
  running_ = true;
  own_entry_changed();
}

void MembershipDaemon::base_stop() { running_ = false; }

void MembershipDaemon::notify(membership::NodeId subject, bool alive) {
  if (subject == self_) return;
  if (listener_) listener_(subject, alive, sim_.now());
}

void MembershipDaemon::own_entry_changed() {
  own_row_ = pool_.intern(own_);
  table_.apply(own_row_, membership::Liveness::kDirect,
               membership::kInvalidNode, sim_.now());
}

void MembershipDaemon::register_service(const std::string& name,
                                        const std::vector<int>& partitions,
                                        std::map<std::string, std::string> params) {
  for (auto& service : own_.services) {
    if (service.name == name) {
      service.partitions = partitions;
      service.params = std::move(params);
      own_entry_changed();
      return;
    }
  }
  membership::ServiceRegistration registration;
  registration.name = name;
  registration.partitions = partitions;
  registration.params = std::move(params);
  own_.services.push_back(std::move(registration));
  own_entry_changed();
}

void MembershipDaemon::update_value(const std::string& key,
                                    const std::string& value) {
  own_.values[key] = value;
  own_entry_changed();
}

void MembershipDaemon::delete_value(const std::string& key) {
  own_.values.erase(key);
  own_entry_changed();
}

}  // namespace tamp::protocols
