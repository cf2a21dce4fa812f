// Reliable-delivery session layer over the lossy simulated WAN, for the
// lock-based baselines (Replicated Commit, 2PC/Paxos) only.
//
// sim::Network with an active FaultPlan loses, duplicates, and reorders
// messages. Helios-family gossip does not use this layer: it is
// anti-entropy (the timetable resends unacked log records every interval
// and Ingest is idempotent), so it rides the faulty network bare. The
// baselines' request/reply RPCs are not loss-tolerant: one dropped Paxos
// reply wedges a closed-loop client forever. ReliableMesh restores
// exactly-once, in-order delivery per directed datacenter pair the way
// real stacks do — sequence numbers, cumulative acks, and timeout
// retransmission with exponential backoff — so the baselines can run
// their unmodified logic over a faulty network.
//
// Determinism contract: when disabled (the zero-fault default) every call
// forwards straight to Network with no sequence numbers, no acks, and no
// extra RNG draws, so fault-free runs stay bit-for-bit identical to a
// build without this layer. Acks and retransmissions themselves travel
// over the same faulty links; cumulative acking makes their loss safe.

#ifndef HELIOS_SIM_RELIABLE_H_
#define HELIOS_SIM_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace helios::sim {

struct ReliableConfig {
  bool enabled = true;
  /// Initial retransmission timeout = link mean RTT x this multiplier,
  /// clamped to [min_rto, max_rto]; doubles (x backoff) per retry.
  double rto_rtt_multiplier = 2.0;
  Duration min_rto = Millis(10);
  Duration max_rto = Seconds(5);
  double backoff = 2.0;
  /// Transmissions per message before giving up; 0 retries forever, which
  /// is the right default under a FaultPlan whose faults eventually end.
  int max_attempts = 0;
};

/// One reliable session per directed datacenter pair, multiplexed over a
/// Network. Both must outlive the mesh, and all sends between a fixed pair
/// of protocol endpoints must go through the same mesh (sequence numbers
/// are per directed pair, not per connection).
class ReliableMesh {
 public:
  ReliableMesh(Scheduler* scheduler, Network* network,
               ReliableConfig config = {});

  bool enabled() const { return config_.enabled; }

  /// Reliable counterpart of Network::Send: `deliver` runs exactly once
  /// at the receiver, in send order per directed pair, as long as faults
  /// eventually relent (and max_attempts permits).
  void Send(int from, int to, std::function<void()> deliver);

  /// Optional retransmit tracing: each resend becomes a net.retransmit
  /// span covering the timeout wait that triggered it.
  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }

  uint64_t retransmits() const { return retransmits_; }
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  uint64_t acks_sent() const { return acks_sent_; }
  uint64_t gave_up() const { return gave_up_; }

 private:
  /// One in-flight message. `deliver` is captured once at Send time and
  /// reused verbatim by every retransmission.
  struct Packet {
    std::function<void()> deliver;
    int attempts = 0;
    Duration rto = 0;
    SimTime last_tx = 0;
  };
  /// State of one directed pair: sender side (next_seq, unacked) and
  /// receiver side (delivered_through, reorder buffer) live together
  /// because the simulator models both hosts.
  struct Channel {
    uint64_t next_seq = 1;
    std::map<uint64_t, Packet> unacked;
    uint64_t delivered_through = 0;
    std::map<uint64_t, std::function<void()>> buffer;
  };

  Channel& Chan(int from, int to) {
    return channels_[static_cast<size_t>(from) * n_ + static_cast<size_t>(to)];
  }
  Duration InitialRto(int from, int to) const;
  void TransmitData(int from, int to, uint64_t seq);
  void ArmTimer(int from, int to, uint64_t seq, Duration rto);
  void OnData(int from, int to, uint64_t seq);
  void SendAck(int from, int to);
  void OnAck(int from, int to, uint64_t cumulative);

  Scheduler* scheduler_;
  Network* network_;
  ReliableConfig config_;
  int n_;
  std::vector<Channel> channels_;
  obs::TraceRecorder* trace_ = nullptr;
  uint64_t retransmits_ = 0;
  uint64_t duplicates_suppressed_ = 0;
  uint64_t acks_sent_ = 0;
  uint64_t gave_up_ = 0;
};

}  // namespace helios::sim

#endif  // HELIOS_SIM_RELIABLE_H_
