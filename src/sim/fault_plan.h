// FaultPlan: a declarative, JSON-round-trippable schedule of faults for
// the simulated WAN — the chaos-harness counterpart of ExperimentSpec.
//
// Real geo-links do not limit themselves to the two clean failure modes
// the simulator originally modeled (whole-node crash, binary partition):
// they lose, duplicate, reorder, and delay-spike packets. A FaultPlan
// describes all of those as data:
//
//   - LinkFault: a probabilistic message-fault process on one directed
//     link (or a wildcard over all links), active over a time window —
//     per-message loss probability, duplication probability, reordering
//     (extra random latency inside a window, exempt from FIFO), and a
//     deterministic delay spike.
//   - NodeEvent: timed crash / recover of a datacenter.
//   - PartitionEvent: timed cut / heal of a (bidirectional) link.
//   - GrayFault: a deterministic slow-but-alive degradation — sustained
//     link slowdown, one-directional (asymmetric) partition, process
//     stall, or fsync stall — the gray-failure modes that fail-stop
//     machinery never notices because nothing actually dies.
//
// Message-level faults are applied inside sim::Network deliveries, drawn
// from a dedicated RNG seeded from the experiment seed, so every chaos run
// is bit-for-bit reproducible and fault decisions never perturb the
// latency sampling stream. Timed events are scheduled by the harness
// (which also flips node-level down flags). See docs/FAULTS.md.

#ifndef HELIOS_SIM_FAULT_PLAN_H_
#define HELIOS_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/scheduler.h"

namespace helios::sim {

/// "Forever" for fault-activity windows.
inline constexpr SimTime kMaxSimTime = std::numeric_limits<int64_t>::max();

/// Sentinel for "any datacenter" in a LinkFault endpoint.
inline constexpr int kAnyDc = -1;

/// A probabilistic message-fault process on one directed link, active over
/// [active_from, active_until). Wildcard endpoints (kAnyDc) match every
/// sender/receiver. Multiple matching faults compose: probabilities are
/// drawn independently per fault, delays add.
struct LinkFault {
  int from = kAnyDc;
  int to = kAnyDc;
  double loss = 0.0;       ///< P(message silently dropped).
  double duplicate = 0.0;  ///< P(a second, independently delayed copy).
  /// P(message gets extra latency uniform in [0, reorder_window] and is
  /// exempted from the channel's FIFO clamp, so it can overtake).
  double reorder = 0.0;
  Duration reorder_window = 0;
  /// Deterministic extra one-way latency while active (a delay spike).
  Duration delay = 0;
  SimTime active_from = 0;
  SimTime active_until = kMaxSimTime;

  bool ActiveOn(int f, int t, SimTime now) const {
    return (from == kAnyDc || from == f) && (to == kAnyDc || to == t) &&
           now >= active_from && now < active_until;
  }
  bool HasEffect() const {
    return loss > 0.0 || duplicate > 0.0 || reorder > 0.0 || delay > 0;
  }

  friend bool operator==(const LinkFault& a, const LinkFault& b) {
    return a.from == b.from && a.to == b.to && a.loss == b.loss &&
           a.duplicate == b.duplicate && a.reorder == b.reorder &&
           a.reorder_window == b.reorder_window && a.delay == b.delay &&
           a.active_from == b.active_from && a.active_until == b.active_until;
  }
};

/// Kinds of gray (slow-but-alive) faults. Unlike LinkFault's probabilistic
/// processes these are *deterministic* degradations: no RNG draw is ever
/// made for them, so adding a gray fault to a plan perturbs neither the
/// latency sampling stream nor the message-fault stream.
enum class GrayFaultKind {
  /// Every message on the directed link a->b takes slow_factor times its
  /// sampled latency plus extra_delay. FIFO order is preserved — the link
  /// is slow, not lossy or reordering.
  kSlowLink,
  /// Messages a->b silently vanish while b->a still flows: a half-open
  /// link, the classic gray partition that binary PartitionEvent cannot
  /// express.
  kAsymPartition,
  /// Datacenter `a`'s event loop freezes for the window (GC pause, VM
  /// migration, scheduler starvation): it receives but processes nothing
  /// and sends nothing until the window ends.
  kProcessStall,
  /// Datacenter `a`'s storage turns syrup-slow: every record it persists
  /// costs an extra `extra_delay` of service time while active.
  kFsyncStall,
};

/// One deterministic gray degradation, active over [active_from,
/// active_until). Link kinds use the directed pair (a, b) with kAnyDc
/// wildcards; node kinds use `a` only.
struct GrayFault {
  GrayFaultKind kind = GrayFaultKind::kSlowLink;
  int a = kAnyDc;
  int b = kAnyDc;
  /// kSlowLink: multiplier on the sampled one-way latency (>= 1).
  double slow_factor = 1.0;
  /// kSlowLink: additive per-message latency. kFsyncStall: per-record
  /// extra service time. Unused otherwise.
  Duration extra_delay = 0;
  SimTime active_from = 0;
  SimTime active_until = kMaxSimTime;

  bool ActiveOn(int f, int t, SimTime now) const {
    return (a == kAnyDc || a == f) && (b == kAnyDc || b == t) &&
           now >= active_from && now < active_until;
  }
  bool IsLinkKind() const {
    return kind == GrayFaultKind::kSlowLink ||
           kind == GrayFaultKind::kAsymPartition;
  }

  friend bool operator==(const GrayFault& x, const GrayFault& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b &&
           x.slow_factor == y.slow_factor && x.extra_delay == y.extra_delay &&
           x.active_from == y.active_from && x.active_until == y.active_until;
  }
};

/// Round-trips GrayFaultKind to the JSON spelling ("slow_link", ...).
const char* GrayFaultKindName(GrayFaultKind kind);

/// Timed crash (up = false) or recovery (up = true) of one datacenter.
struct NodeEvent {
  SimTime at = 0;
  int node = 0;
  bool up = false;

  friend bool operator==(const NodeEvent& a, const NodeEvent& b) {
    return a.at == b.at && a.node == b.node && a.up == b.up;
  }
};

/// Timed cut (partitioned = true) or heal of the link between `a` and `b`.
struct PartitionEvent {
  SimTime at = 0;
  int a = 0;
  int b = 0;
  bool partitioned = true;

  friend bool operator==(const PartitionEvent& x, const PartitionEvent& y) {
    return x.at == y.at && x.a == y.a && x.b == y.b &&
           x.partitioned == y.partitioned;
  }
};

struct FaultPlan {
  std::vector<GrayFault> gray_faults;
  std::vector<LinkFault> link_faults;
  std::vector<NodeEvent> node_events;
  std::vector<PartitionEvent> partition_events;

  bool empty() const {
    return gray_faults.empty() && link_faults.empty() &&
           node_events.empty() && partition_events.empty();
  }

  /// True if any link fault can ever drop/duplicate/reorder/delay a
  /// message. Decides whether the network engages fault sampling and
  /// whether the baselines get reliable delivery; a plan of timed
  /// crash/partition events alone keeps the message path untouched.
  bool HasMessageFaults() const {
    for (const LinkFault& f : link_faults) {
      if (f.HasEffect()) return true;
    }
    return false;
  }

  /// True if any effective link fault is still active after `t` — i.e. the
  /// message-fault plan has no quiet tail from `t` onward.
  bool HasMessageFaultsActiveAfter(SimTime t) const {
    for (const LinkFault& f : link_faults) {
      if (f.HasEffect() && f.active_until > t) return true;
    }
    return false;
  }

  /// True if the plan contains any gray (slow-but-alive) degradation.
  /// Deliberately NOT part of HasMessageFaults(): gray faults are
  /// deterministic, engage no fault RNG, and must not put the baselines
  /// on reliable delivery.
  bool HasGrayFaults() const { return !gray_faults.empty(); }

  /// True if any gray fault acts on the message path (slow link or
  /// asymmetric partition, as opposed to node stalls); decides whether the
  /// network exports its gray counters.
  bool HasGrayLinkFaults() const {
    for (const GrayFault& g : gray_faults) {
      if (g.IsLinkKind()) return true;
    }
    return false;
  }

  /// Range-checks every entry against a deployment of `num_datacenters`:
  /// probabilities in [0, 1], windows/durations non-negative, node and
  /// link indices in range, no self-links, crisp messages for each.
  Status Validate(int num_datacenters) const;

  // --- Builders (all-link faults active forever unless windowed) ---------
  FaultPlan& WithLoss(double p) {
    LinkFault f;
    f.loss = p;
    link_faults.push_back(f);
    return *this;
  }
  FaultPlan& WithDuplication(double p) {
    LinkFault f;
    f.duplicate = p;
    link_faults.push_back(f);
    return *this;
  }
  FaultPlan& AddLinkFault(LinkFault f) {
    link_faults.push_back(f);
    return *this;
  }
  FaultPlan& AddCrash(SimTime at, int node) {
    node_events.push_back(NodeEvent{at, node, false});
    return *this;
  }
  FaultPlan& AddRecover(SimTime at, int node) {
    node_events.push_back(NodeEvent{at, node, true});
    return *this;
  }
  FaultPlan& AddPartition(SimTime at, int a, int b) {
    partition_events.push_back(PartitionEvent{at, a, b, true});
    return *this;
  }
  FaultPlan& AddHeal(SimTime at, int a, int b) {
    partition_events.push_back(PartitionEvent{at, a, b, false});
    return *this;
  }
  FaultPlan& AddSlowLink(SimTime from, SimTime until, int a, int b,
                         double factor, Duration extra_delay = 0) {
    GrayFault g;
    g.kind = GrayFaultKind::kSlowLink;
    g.a = a;
    g.b = b;
    g.slow_factor = factor;
    g.extra_delay = extra_delay;
    g.active_from = from;
    g.active_until = until;
    gray_faults.push_back(g);
    return *this;
  }
  FaultPlan& AddAsymPartition(SimTime from, SimTime until, int a, int b) {
    GrayFault g;
    g.kind = GrayFaultKind::kAsymPartition;
    g.a = a;
    g.b = b;
    g.active_from = from;
    g.active_until = until;
    gray_faults.push_back(g);
    return *this;
  }
  FaultPlan& AddProcessStall(SimTime from, SimTime until, int node) {
    GrayFault g;
    g.kind = GrayFaultKind::kProcessStall;
    g.a = node;
    g.active_from = from;
    g.active_until = until;
    gray_faults.push_back(g);
    return *this;
  }
  FaultPlan& AddFsyncStall(SimTime from, SimTime until, int node,
                           Duration per_record) {
    GrayFault g;
    g.kind = GrayFaultKind::kFsyncStall;
    g.a = node;
    g.extra_delay = per_record;
    g.active_from = from;
    g.active_until = until;
    gray_faults.push_back(g);
    return *this;
  }

  /// Deterministic JSON: stable alphabetical keys, empty sections omitted.
  /// An empty plan renders as "{}".
  std::string ToJson() const;

  /// Parses ToJson() output or hand-written plans. Unknown keys are an
  /// error. Use Validate() before running.
  static Result<FaultPlan> FromJson(const std::string& text);
  /// Same, from an already parsed JSON object (for embedding in specs).
  static Result<FaultPlan> FromJsonValue(const json::Value& root);

  friend bool operator==(const FaultPlan& a, const FaultPlan& b) {
    return a.gray_faults == b.gray_faults && a.link_faults == b.link_faults &&
           a.node_events == b.node_events &&
           a.partition_events == b.partition_events;
  }
};

}  // namespace helios::sim

#endif  // HELIOS_SIM_FAULT_PLAN_H_
