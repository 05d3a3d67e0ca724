#include "core/instance.h"

#include <algorithm>
#include <string>

namespace igepa {
namespace core {

Instance::Instance(std::vector<EventDef> events, std::vector<UserDef> users,
                   std::shared_ptr<const conflict::ConflictFn> conflicts,
                   std::shared_ptr<const interest::InterestFn> interest,
                   std::shared_ptr<const graph::InteractionModel> interaction,
                   double beta)
    : events_(std::move(events)),
      users_(std::move(users)),
      conflicts_(std::move(conflicts)),
      interest_(std::move(interest)),
      interaction_(std::move(interaction)),
      kernel_(DefaultUtilityKernel()),
      beta_(beta) {}

bool Instance::HasBid(UserId u, EventId v) const {
  const auto& b = users_[static_cast<size_t>(u)].bids;
  return std::binary_search(b.begin(), b.end(), v);
}

Status Instance::Validate() {
  if (beta_ < 0.0 || beta_ > 1.0) {
    return Status::InvalidArgument("beta must be in [0,1], got " +
                                   std::to_string(beta_));
  }
  if (conflicts_ == nullptr || interest_ == nullptr ||
      interaction_ == nullptr) {
    return Status::InvalidArgument("instance component is null");
  }
  const int32_t nv = num_events();
  const int32_t nu = num_users();
  if (conflicts_->num_events() != nv) {
    return Status::InvalidArgument("conflict function covers " +
                                   std::to_string(conflicts_->num_events()) +
                                   " events, instance has " +
                                   std::to_string(nv));
  }
  if (interest_->num_events() != nv || interest_->num_users() != nu) {
    return Status::InvalidArgument("interest function dimensions mismatch");
  }
  if (interaction_->num_users() != nu) {
    return Status::InvalidArgument("interaction model covers " +
                                   std::to_string(interaction_->num_users()) +
                                   " users, instance has " +
                                   std::to_string(nu));
  }
  for (int32_t v = 0; v < nv; ++v) {
    if (events_[static_cast<size_t>(v)].capacity < 0) {
      return Status::InvalidArgument("event " + std::to_string(v) +
                                     " has negative capacity");
    }
  }
  bidders_.assign(static_cast<size_t>(nv), {});
  for (int32_t u = 0; u < nu; ++u) {
    auto& def = users_[static_cast<size_t>(u)];
    if (def.capacity < 0) {
      return Status::InvalidArgument("user " + std::to_string(u) +
                                     " has negative capacity");
    }
    std::sort(def.bids.begin(), def.bids.end());
    def.bids.erase(std::unique(def.bids.begin(), def.bids.end()),
                   def.bids.end());
    for (EventId v : def.bids) {
      if (v < 0 || v >= nv) {
        return Status::InvalidArgument("user " + std::to_string(u) +
                                       " bids for out-of-range event " +
                                       std::to_string(v));
      }
      bidders_[static_cast<size_t>(v)].push_back(u);
    }
  }
  validated_ = true;
  return Status::OK();
}

Status Instance::UpdateUser(UserId u, int32_t capacity,
                            std::vector<EventId> bids) {
  if (!validated_) {
    return Status::FailedPrecondition("UpdateUser requires Validate() first");
  }
  if (u < 0 || u >= num_users()) {
    return Status::InvalidArgument("UpdateUser: user " + std::to_string(u) +
                                   " out of range");
  }
  if (capacity < 0) {
    return Status::InvalidArgument("UpdateUser: negative capacity");
  }
  std::sort(bids.begin(), bids.end());
  bids.erase(std::unique(bids.begin(), bids.end()), bids.end());
  for (EventId v : bids) {
    if (v < 0 || v >= num_events()) {
      return Status::InvalidArgument("UpdateUser: bid for out-of-range event " +
                                     std::to_string(v));
    }
  }
  UserDef& def = users_[static_cast<size_t>(u)];
  // Patch the bidder lists: drop u from events no longer bid, insert (keeping
  // the list sorted by user id) into newly bid events. Both lists are sorted,
  // so one merge walk finds the symmetric difference.
  size_t i = 0;
  size_t k = 0;
  const std::vector<EventId>& old_bids = def.bids;
  while (i < old_bids.size() || k < bids.size()) {
    if (k == bids.size() ||
        (i < old_bids.size() && old_bids[i] < bids[k])) {
      std::vector<UserId>& list = bidders_[static_cast<size_t>(old_bids[i])];
      list.erase(std::lower_bound(list.begin(), list.end(), u));
      ++i;
    } else if (i == old_bids.size() || bids[k] < old_bids[i]) {
      std::vector<UserId>& list = bidders_[static_cast<size_t>(bids[k])];
      list.insert(std::lower_bound(list.begin(), list.end(), u), u);
      ++k;
    } else {
      ++i;
      ++k;
    }
  }
  def.capacity = capacity;
  def.bids = std::move(bids);
  return Status::OK();
}

Status Instance::UpdateEventCapacity(EventId v, int32_t capacity) {
  if (!validated_) {
    return Status::FailedPrecondition(
        "UpdateEventCapacity requires Validate() first");
  }
  if (v < 0 || v >= num_events()) {
    return Status::InvalidArgument("UpdateEventCapacity: event " +
                                   std::to_string(v) + " out of range");
  }
  if (capacity < 0) {
    return Status::InvalidArgument("UpdateEventCapacity: negative capacity");
  }
  events_[static_cast<size_t>(v)].capacity = capacity;
  return Status::OK();
}

Status Instance::UpdateInterest(EventId v, UserId u, double value) {
  if (!validated_) {
    return Status::FailedPrecondition(
        "UpdateInterest requires Validate() first");
  }
  if (v < 0 || v >= num_events() || u < 0 || u >= num_users()) {
    return Status::InvalidArgument("UpdateInterest: pair (" +
                                   std::to_string(v) + "," +
                                   std::to_string(u) + ") out of range");
  }
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument("UpdateInterest: value " +
                                   std::to_string(value) +
                                   " outside [0,1]");
  }
  interest_overrides_[InterestKey(v, u)] = value;
  return Status::OK();
}

Status Instance::ApplyGraphEdge(UserId a, UserId b, bool add) {
  if (!validated_) {
    return Status::FailedPrecondition(
        "ApplyGraphEdge requires Validate() first");
  }
  if (a < 0 || a >= num_users() || b < 0 || b >= num_users()) {
    return Status::InvalidArgument("ApplyGraphEdge: edge {" +
                                   std::to_string(a) + "," +
                                   std::to_string(b) + "} out of range");
  }
  if (a == b) {
    return Status::InvalidArgument("ApplyGraphEdge: self edge on user " +
                                   std::to_string(a));
  }
  if (num_users() <= 1) return Status::OK();  // D is identically 0
  const double step =
      1.0 / static_cast<double>(num_users() - 1) * (add ? 1.0 : -1.0);
  for (UserId endpoint : {a, b}) {
    const double shifted =
        std::clamp(Degree(endpoint) + step, 0.0, 1.0);
    degree_overrides_[endpoint] = shifted;
  }
  return Status::OK();
}

std::vector<Instance::InterestOverride> Instance::InterestOverrides() const {
  std::vector<InterestOverride> out;
  out.reserve(interest_overrides_.size());
  for (const auto& [key, value] : interest_overrides_) {
    out.push_back({static_cast<EventId>(key >> 32),
                   static_cast<UserId>(key & 0xffffffffULL), value});
  }
  // InterestKey puts the event in the high word, so (event, user) order is
  // key order.
  std::sort(out.begin(), out.end(),
            [](const InterestOverride& a, const InterestOverride& b) {
              return InterestKey(a.event, a.user) < InterestKey(b.event, b.user);
            });
  return out;
}

int64_t Instance::TotalBids() const {
  int64_t total = 0;
  for (const auto& u : users_) total += static_cast<int64_t>(u.bids.size());
  return total;
}

}  // namespace core
}  // namespace igepa
