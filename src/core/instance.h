#ifndef IGEPA_CORE_INSTANCE_H_
#define IGEPA_CORE_INSTANCE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "conflict/conflict.h"
#include "core/types.h"
#include "core/utility_kernel.h"
#include "graph/interaction_model.h"
#include "interest/interest.h"
#include "util/result.h"

namespace igepa {
namespace core {

/// A complete IGEPA problem instance (Definition 8): events V with
/// capacities, users U with capacities and bids, the conflict function σ, the
/// interest function SI, the social-interaction model D(G, ·), and the
/// balance parameter β.
///
/// The instance owns shared, immutable handles to its functional components
/// so that cheap copies can be taken by algorithms and experiment harnesses.
class Instance {
 public:
  /// Builds an instance. Call Validate() before use; algorithms assume a
  /// validated instance (in-range bids, consistent component sizes).
  Instance(std::vector<EventDef> events, std::vector<UserDef> users,
           std::shared_ptr<const conflict::ConflictFn> conflicts,
           std::shared_ptr<const interest::InterestFn> interest,
           std::shared_ptr<const graph::InteractionModel> interaction,
           double beta);

  int32_t num_events() const { return static_cast<int32_t>(events_.size()); }
  int32_t num_users() const { return static_cast<int32_t>(users_.size()); }
  double beta() const { return beta_; }

  int32_t event_capacity(EventId v) const {
    return events_[static_cast<size_t>(v)].capacity;
  }
  int32_t user_capacity(UserId u) const {
    return users_[static_cast<size_t>(u)].capacity;
  }

  /// The user's bid set N_u (sorted, deduplicated at validation).
  const std::vector<EventId>& bids(UserId u) const {
    return users_[static_cast<size_t>(u)].bids;
  }

  /// The event's bidder set N_v (derived from user bids at validation).
  const std::vector<UserId>& bidders(EventId v) const {
    return bidders_[static_cast<size_t>(v)];
  }

  /// True when user u bid for event v (binary search over sorted bids).
  bool HasBid(UserId u, EventId v) const;

  /// σ(l_v, l_v').
  bool Conflicts(EventId a, EventId b) const {
    return conflicts_->Conflicts(a, b);
  }

  /// SI(l_v, l_u) in [0, 1]. Interest-drift deltas (UpdateInterest) overlay
  /// the base model per pair; an untouched instance pays one empty() branch.
  double Interest(EventId v, UserId u) const {
    if (!interest_overrides_.empty()) {
      const auto it = interest_overrides_.find(InterestKey(v, u));
      if (it != interest_overrides_.end()) return it->second;
    }
    return interest_->Interest(v, u);
  }

  /// D(G, u) in [0, 1]. Graph-edge deltas (ApplyGraphEdge) overlay the base
  /// model per user.
  double Degree(UserId u) const {
    if (!degree_overrides_.empty()) {
      const auto it = degree_overrides_.find(u);
      if (it != degree_overrides_.end()) return it->second;
    }
    return interaction_->Degree(u);
  }

  /// The paper's Definition-6 pair weight
  /// w(u, v) = β·SI(l_v, l_u) + (1-β)·D(G, u) — the base utility the default
  /// kernel (InteractionInterestKernel) scores columns with. Algorithms
  /// should use PairWeight(), which routes through the active kernel.
  double Weight(EventId v, UserId u) const {
    return beta_ * Interest(v, u) + (1.0 - beta_) * Degree(u);
  }

  /// The active kernel's per-pair utility w(u, v) — what every pair-shaped
  /// consumer (bid ordering, online/greedy, local search, Utility(M))
  /// optimizes. Identical to Weight() under the default kernel.
  double PairWeight(EventId v, UserId u) const {
    return kernel_->PairWeight(*this, v, u);
  }

  /// The utility kernel scoring this instance's columns. Never null;
  /// defaults to InteractionInterestKernel.
  const UtilityKernel& kernel() const { return *kernel_; }
  /// Swaps the objective. Catalogs built before the swap keep their old
  /// weights — rebuild or re-score them (the CLI sets the kernel before any
  /// catalog exists).
  void set_kernel(std::shared_ptr<const UtilityKernel> kernel) {
    if (kernel != nullptr) kernel_ = std::move(kernel);
  }

  const conflict::ConflictFn& conflict_fn() const { return *conflicts_; }
  const interest::InterestFn& interest_fn() const { return *interest_; }
  const graph::InteractionModel& interaction_model() const {
    return *interaction_;
  }
  std::shared_ptr<const conflict::ConflictFn> conflict_ptr() const {
    return conflicts_;
  }
  std::shared_ptr<const interest::InterestFn> interest_ptr() const {
    return interest_;
  }
  std::shared_ptr<const graph::InteractionModel> interaction_ptr() const {
    return interaction_;
  }

  /// Checks structural consistency (component sizes, bid ranges, capacities,
  /// β ∈ [0,1]); sorts and deduplicates bids and materializes the per-event
  /// bidder lists. Must be called (and return OK) before running algorithms.
  Status Validate();

  /// Replaces user u's capacity and bid set (sorted and deduplicated like
  /// Validate), patching the per-event bidder lists incrementally — the
  /// instance-side half of the incremental arrangement engine
  /// (core/instance_delta.h). Requires a validated instance; the instance
  /// stays validated on success and is untouched on failure.
  Status UpdateUser(UserId u, int32_t capacity, std::vector<EventId> bids);

  /// Replaces event v's attendance capacity c_v. Requires a validated
  /// instance.
  Status UpdateEventCapacity(EventId v, int32_t capacity);

  /// Interest drift: overrides SI(l_v, l_u) for one pair with `value` in
  /// [0, 1]. Requires a validated instance; part of the weight-delta half of
  /// the incremental engine (the catalog re-scores, never re-enumerates).
  Status UpdateInterest(EventId v, UserId u, double value);

  /// Graph drift: adds (add=true) or removes a friendship edge {a, b},
  /// shifting both endpoints' degree centrality by ±1/(|U|−1), clamped to
  /// [0, 1]. Applied at the degree level — the interaction model's D(G, u)
  /// is all the utility observes (DESIGN.md S6) — so the instance keeps no
  /// edge set and cannot reject a duplicate add or a remove of an absent
  /// edge. Streams derived from a real graph should do that bookkeeping;
  /// the synthetic generators deliberately skip it and emit *memoryless*
  /// edge mutations (a bounded random walk on the touched degrees), which
  /// exercises the same re-score machinery.
  Status ApplyGraphEdge(UserId a, UserId b, bool add);

  /// Total bid pairs Σ_u |N_u| (after validation).
  int64_t TotalBids() const;

  /// One interest-drift override laid over the base SI model.
  struct InterestOverride {
    EventId event = 0;
    UserId user = 0;
    double value = 0.0;
  };

  /// Every UpdateInterest override, sorted by (event, user): a canonical
  /// order that does not depend on the order the drifts were applied in, so
  /// a serializer that writes this list writes the same bytes for the same
  /// overlay (serve::Checkpointer relies on that).
  std::vector<InterestOverride> InterestOverrides() const;

 private:
  static uint64_t InterestKey(EventId v, UserId u) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(v)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(u));
  }

  std::vector<EventDef> events_;
  std::vector<UserDef> users_;
  std::vector<std::vector<UserId>> bidders_;
  std::shared_ptr<const conflict::ConflictFn> conflicts_;
  std::shared_ptr<const interest::InterestFn> interest_;
  std::shared_ptr<const graph::InteractionModel> interaction_;
  std::shared_ptr<const UtilityKernel> kernel_;
  /// Weight-delta overlays on the shared immutable models. Plain members, so
  /// instance copies stay independent (mutating one never leaks into the
  /// other — the same semantics UpdateUser has for bids).
  std::unordered_map<uint64_t, double> interest_overrides_;
  std::unordered_map<UserId, double> degree_overrides_;
  double beta_;
  bool validated_ = false;
};

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_INSTANCE_H_
