// Bandwidth-allocation policy interface.
//
// Each peer runs its own policy; the simulation engine (sim/simulator.hpp)
// asks the policy once per slot how to divide the peer's upload capacity
// among requesting users, then reports back what the peer's *own user*
// received that slot.  The information flow deliberately matches Section
// IV: "the proposed scheme relies solely on local measurements taken at
// each peer, and it doesn't require any transfer of information among the
// peers or users, which is prone to adversary actions."
//
// A policy sees only:
//  * its own index, capacity, and the current request indicator vector
//    (who is asking — observable, since requesters open connections);
//  * the capacities peers *declare* (used by the gameable Eq. 3 baseline);
//  * per-slot feedback about what its own user received from each peer.
// It never sees other peers' private contribution ledgers.
//
// Synchronization contract: policies are NOT internally synchronized.  The
// simulator drives each policy from a single thread; any caller that mixes
// threads must serialize access externally, as the live TCP server does by
// calling its policy only under its pacing mutex (net/peer_server.hpp).
#pragma once

#include <cstdint>
#include <span>

namespace fairshare::alloc {

/// Read-only view handed to AllocationPolicy::allocate each slot.
struct PeerContext {
  std::size_t self = 0;          ///< this peer's index
  std::uint64_t slot = 0;        ///< current time slot t
  double capacity = 0.0;         ///< mu_i available this slot (kbps)
  /// requesting[j] != 0 iff I_j(t) = 1.
  std::span<const std::uint8_t> requesting;
  /// Capacity each peer publicly declares (truthful peers declare mu_j;
  /// liars may inflate).  Only declared-proportional policies read this.
  std::span<const double> declared;
};

/// What this peer's own user received in the slot that just ended:
/// received[j] = mu_ji(t), the bandwidth peer j devoted to user i.
/// This is the "periodic feedback to peer u" of Figure 4(b).
struct SlotFeedback {
  std::uint64_t slot = 0;
  std::span<const double> received;
};

/// Per-peer allocation strategy.  allocate() must fill out[j] with the
/// bandwidth this peer devotes to user j this slot; the engine zeroes
/// entries for non-requesting users and rescales if the row sum exceeds
/// capacity (a peer cannot upload more than its physical link allows).
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;

  virtual void allocate(const PeerContext& ctx, std::span<double> out) = 0;

  /// End-of-slot local observation; default ignores it.
  virtual void observe(const SlotFeedback& feedback) { (void)feedback; }
};

}  // namespace fairshare::alloc
