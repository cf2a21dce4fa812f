#include "check/oracles.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/history.h"
#include "rdict/record.h"
#include "shard/txn_status_store.h"
#include "wal/wal_sink.h"
#include "workload/client.h"

namespace helios::check {

namespace {

using harness::ExperimentResult;
using harness::ExperimentSpec;
using harness::RunCapture;
using workload::SessionEvent;
using workload::SessionLog;

/// Versions compare in (version_ts, writer) order — the same total order
/// MvStore's chains use, so "older/newer" here matches what replicas
/// installed.
using Version = std::pair<Timestamp, TxnId>;

bool VersionLess(const Version& a, const Version& b) {
  if (a.first != b.first) return a.first < b.first;
  return a.second < b.second;
}

std::string VersionStr(const Version& v) {
  return "ts=" + std::to_string(v.first) + " writer=" + v.second.ToString();
}

const RunCapture* Capture(const ExperimentResult& result) {
  return result.capture.get();
}

// --- serializability --------------------------------------------------------

Status CheckSerializabilityOracle(const ExperimentResult& result) {
  // RunExperiment already ran the check when the spec asked for it; fall
  // back to the captured history otherwise.
  if (result.serializability.has_value()) return *result.serializability;
  const RunCapture* cap = Capture(result);
  if (cap == nullptr) {
    return Status::FailedPrecondition(
        "no serializability result and no captured history "
        "(run with capture_artifacts)");
  }
  return core::CheckSerializable(cap->history);
}

// --- sessions ---------------------------------------------------------------

Status CheckSessionsOracle(const ExperimentSpec& spec,
                           const ExperimentResult& result) {
  if (spec.protocol == harness::Protocol::kReplicatedCommit) {
    // Majority reads answer from whichever majority replies first; two
    // majorities only overlap, so a later read can legitimately miss a
    // version an earlier read (or the session's own commit) observed.
    return Status::Ok();
  }
  const RunCapture* cap = Capture(result);
  if (cap == nullptr) {
    return Status::FailedPrecondition("no captured session logs");
  }

  // Join key: the server-assigned TxnId each commit outcome carries.
  struct Committed {
    Version version;
    const TxnBody* body;
  };
  std::unordered_map<TxnId, Committed, TxnIdHash> committed;
  committed.reserve(cap->history.size());
  for (const core::CommittedTxn& t : cap->history) {
    committed.emplace(t.id, Committed{{t.version_ts, t.id}, t.body.get()});
  }

  for (const SessionLog& session : cap->sessions) {
    // Floor from the session's own committed writes (read-your-writes) and
    // from its previous reads (monotonic reads), per key.
    std::map<Key, Version> own_writes;
    std::map<Key, Version> last_read;
    for (const SessionEvent& ev : session.events) {
      if (ev.kind == SessionEvent::Kind::kCommit) {
        if (!ev.committed) continue;
        auto it = committed.find(ev.txn);
        // A committed outcome missing from the history is exactly-once's
        // business; sessions just cannot derive a floor from it.
        if (it == committed.end()) continue;
        for (const WriteEntry& w : it->second.body->write_set) {
          auto [fit, inserted] = own_writes.emplace(w.key, it->second.version);
          if (!inserted && VersionLess(fit->second, it->second.version)) {
            fit->second = it->second.version;
          }
        }
        continue;
      }
      // Reads from read-only snapshot transactions may legitimately
      // observe older versions (Appendix B); only read-write reads are
      // covered by the guarantees.
      if (ev.read_only) continue;
      const auto own = own_writes.find(ev.key);
      const auto prev = last_read.find(ev.key);
      if (ev.not_found) {
        if (own != own_writes.end()) {
          return Status::FailedPrecondition(
              "read-your-writes violation: client " +
              std::to_string(session.client_id) + " key '" + ev.key +
              "' read NotFound after own committed write (" +
              VersionStr(own->second) + ")");
        }
        if (prev != last_read.end()) {
          return Status::FailedPrecondition(
              "monotonic-reads violation: client " +
              std::to_string(session.client_id) + " key '" + ev.key +
              "' read NotFound after observing " + VersionStr(prev->second));
        }
        continue;
      }
      const Version v{ev.version_ts, ev.version_writer};
      if (own != own_writes.end() && VersionLess(v, own->second)) {
        return Status::FailedPrecondition(
            "read-your-writes violation: client " +
            std::to_string(session.client_id) + " key '" + ev.key +
            "' read " + VersionStr(v) + " older than own committed write (" +
            VersionStr(own->second) + ")");
      }
      if (prev != last_read.end() && VersionLess(v, prev->second)) {
        return Status::FailedPrecondition(
            "monotonic-reads violation: client " +
            std::to_string(session.client_id) + " key '" + ev.key +
            "' read " + VersionStr(v) + " older than earlier read (" +
            VersionStr(prev->second) + ")");
      }
      last_read[ev.key] = v;
    }
  }
  return Status::Ok();
}

// --- shard_atomicity / staged_resolution ------------------------------------

/// Finalize outcomes observed for one TxnId: which shard (1-based, 0 =
/// none yet) journaled a committed and an aborted finished record.
struct ShardOutcome {
  int committed_shard = 0;
  int aborted_shard = 0;
};

Status CheckShardAtomicityOracle(const ExperimentResult& result) {
  const RunCapture* cap = Capture(result);
  if (cap == nullptr) {
    return Status::FailedPrecondition("no captured WAL journals");
  }

  // Within one datacenter, every shard that finalizes a transaction must
  // finalize it the same way. Single-shard transactions can only appear
  // in one shard's journal (the TxnId residue scheme keeps id spaces
  // disjoint), so any id seen by two shards is a cross-shard commit.
  for (size_t dc = 0; dc < cap->journals.size(); ++dc) {
    const std::vector<wal::WalContents>& journals = cap->journals[dc];
    if (journals.size() <= 1) continue;  // Unsharded: nothing to compare.
    std::unordered_map<TxnId, ShardOutcome, TxnIdHash> outcomes;
    for (int s = 0; s < static_cast<int>(journals.size()); ++s) {
      for (const rdict::LogRecord& r :
           journals[static_cast<size_t>(s)].records) {
        if (r.type != rdict::RecordType::kFinished || r.body == nullptr) {
          continue;
        }
        ShardOutcome& o = outcomes[r.body->id];
        if (r.committed) {
          if (o.aborted_shard != 0) {
            return Status::FailedPrecondition(
                "shard-atomicity violation: txn " + r.body->id.ToString() +
                " committed on shard " + std::to_string(s) +
                " but aborted on shard " +
                std::to_string(o.aborted_shard - 1) + " at datacenter " +
                std::to_string(dc));
          }
          o.committed_shard = s + 1;
        } else {
          if (o.committed_shard != 0) {
            return Status::FailedPrecondition(
                "shard-atomicity violation: txn " + r.body->id.ToString() +
                " aborted on shard " + std::to_string(s) +
                " but committed on shard " +
                std::to_string(o.committed_shard - 1) + " at datacenter " +
                std::to_string(dc));
          }
          o.aborted_shard = s + 1;
        }
      }
    }
  }
  return Status::Ok();
}

Status CheckStagedResolutionOracle(const ExperimentResult& result) {
  const RunCapture* cap = Capture(result);
  if (cap == nullptr) {
    return Status::FailedPrecondition("no captured coordinator status");
  }
  // Every datacenter journals once per shard.
  const size_t shards =
      cap->journals.empty() ? 0 : cap->journals.front().size();
  if (shards <= 1) return Status::Ok();

  // Global view of finalize outcomes across every (datacenter, shard)
  // journal — slice records replicate, and a remote replica finalizing
  // against the coordinator's durable decision is just as much a bug.
  std::unordered_map<TxnId, ShardOutcome, TxnIdHash> outcomes;
  for (const std::vector<wal::WalContents>& journals : cap->journals) {
    for (int s = 0; s < static_cast<int>(journals.size()); ++s) {
      for (const rdict::LogRecord& r :
           journals[static_cast<size_t>(s)].records) {
        if (r.type != rdict::RecordType::kFinished || r.body == nullptr) {
          continue;
        }
        ShardOutcome& o = outcomes[r.body->id];
        if (r.committed) {
          o.committed_shard = s + 1;
        } else {
          o.aborted_shard = s + 1;
        }
      }
    }
  }

  // The durable status table is the source of truth for parallel commits.
  for (size_t dc = 0; dc < cap->txn_status.size(); ++dc) {
    for (const auto& [id, rec] : cap->txn_status[dc]) {
      const auto it = outcomes.find(id);
      const bool committed =
          it != outcomes.end() && it->second.committed_shard != 0;
      const bool aborted =
          it != outcomes.end() && it->second.aborted_shard != 0;
      switch (rec.status) {
        case shard::TxnStatus::kCommitted:
          if (aborted) {
            return Status::FailedPrecondition(
                "staged-resolution violation: txn " + id.ToString() +
                " is COMMITTED in datacenter " + std::to_string(dc) +
                "'s status table but a shard journaled an aborted finalize");
          }
          break;
        case shard::TxnStatus::kAborted:
          if (committed) {
            return Status::FailedPrecondition(
                "staged-resolution violation: txn " + id.ToString() +
                " is ABORTED in datacenter " + std::to_string(dc) +
                "'s status table but a shard journaled a committed "
                "finalize");
          }
          break;
        case shard::TxnStatus::kStaged:
          // Still undecided at end of run: a committed finalize without
          // the durable COMMITTED flip is exactly the bug the
          // skip_staged_resolution mutation seeds.
          if (committed) {
            return Status::FailedPrecondition(
                "staged-resolution violation: txn " + id.ToString() +
                " never left STAGED in datacenter " + std::to_string(dc) +
                "'s status table yet a shard journaled a committed "
                "finalize");
          }
          break;
      }
    }
  }

  // Every client-observed cross-shard commit (TxnId residue 0 in the
  // seq-partition scheme) must have reached COMMITTED at its origin — the
  // durable flip happens before the client reply.
  const uint64_t stride = static_cast<uint64_t>(shards) + 1;
  for (const SessionLog& session : cap->sessions) {
    for (const SessionEvent& ev : session.events) {
      if (ev.kind != SessionEvent::Kind::kCommit || !ev.committed) continue;
      if (ev.txn.seq % stride != 0) continue;  // Single-shard fast path.
      const size_t origin = static_cast<size_t>(ev.txn.origin);
      if (origin >= cap->txn_status.size()) continue;
      const auto& table = cap->txn_status[origin];
      const auto it = table.find(ev.txn);
      if (it == table.end() ||
          it->second.status != shard::TxnStatus::kCommitted) {
        return Status::FailedPrecondition(
            "staged-resolution violation: client " +
            std::to_string(session.client_id) + " observed cross-shard txn " +
            ev.txn.ToString() +
            " as committed but its origin's status table says " +
            (it == table.end() ? "nothing"
                               : shard::TxnStatusName(it->second.status)));
      }
    }
  }
  return Status::Ok();
}

// --- exactly_once -----------------------------------------------------------

bool IsCommittedFinished(const rdict::LogRecord& r) {
  return r.type == rdict::RecordType::kFinished && r.committed &&
         r.body != nullptr;
}

Status CheckExactlyOnceOracle(const ExperimentSpec& spec,
                              const ExperimentResult& result) {
  const RunCapture* cap = Capture(result);
  if (cap == nullptr) {
    return Status::FailedPrecondition("no captured WAL journals");
  }

  // Per-journal: every committed transaction journaled at most once (PR
  // 4's journal-then-apply dedup is what makes redelivery of the same
  // decision idempotent). The dedup scope is one journal, not one
  // datacenter: a cross-shard transaction legitimately has one committed
  // slice record in each participating shard's journal, always with the
  // same version_ts — which the cross-journal agreement check enforces.
  const int n = static_cast<int>(cap->journals.size());
  std::vector<std::unordered_set<TxnId, TxnIdHash>> journaled(
      static_cast<size_t>(n));
  std::unordered_map<TxnId, std::pair<Timestamp, int>, TxnIdHash> agreed;
  for (int dc = 0; dc < n; ++dc) {
    const size_t i = static_cast<size_t>(dc);
    for (const wal::WalContents& wal : cap->journals[i]) {
      std::unordered_set<TxnId, TxnIdHash> in_this_journal;
      for (const rdict::LogRecord& r : wal.records) {
        if (!IsCommittedFinished(r)) continue;
        if (!in_this_journal.insert(r.body->id).second) {
          return Status::FailedPrecondition(
              "exactly-once violation: txn " + r.body->id.ToString() +
              " has two committed records in one of datacenter " +
              std::to_string(dc) + "'s journals");
        }
        journaled[i].insert(r.body->id);
        auto [ait, fresh] = agreed.emplace(r.body->id,
                                           std::make_pair(r.version_ts, dc));
        if (!fresh && ait->second.first != r.version_ts) {
          return Status::FailedPrecondition(
              "divergence: txn " + r.body->id.ToString() +
              " journaled with version_ts " + std::to_string(r.version_ts) +
              " at datacenter " + std::to_string(dc) + " but " +
              std::to_string(ait->second.first) + " at datacenter " +
              std::to_string(ait->second.second));
        }
      }
    }
  }

  // The history commits each id once.
  std::unordered_set<TxnId, TxnIdHash> in_history;
  in_history.reserve(cap->history.size());
  for (const core::CommittedTxn& t : cap->history) {
    if (!in_history.insert(t.id).second) {
      return Status::FailedPrecondition(
          "exactly-once violation: txn " + t.id.ToString() +
          " recorded twice in the committed history");
    }
  }

  // Every client-observed commit is in the history and durably journaled
  // at its authoritative datacenter — the one that applies the decision
  // before replying (the origin; the coordinator for 2PC). That journal
  // survives crashes, so no down-skip is needed.
  const bool two_pc = spec.protocol == harness::Protocol::kTwoPcPaxos;
  for (const SessionLog& session : cap->sessions) {
    for (const SessionEvent& ev : session.events) {
      if (ev.kind != SessionEvent::Kind::kCommit || !ev.committed) continue;
      if (in_history.count(ev.txn) == 0) {
        return Status::FailedPrecondition(
            "lost commit: client " + std::to_string(session.client_id) +
            " observed txn " + ev.txn.ToString() +
            " as committed but the history has no record of it");
      }
      const DcId authority =
          two_pc ? spec.two_pc_coordinator : ev.txn.origin;
      const size_t ai = static_cast<size_t>(authority);
      if (authority < 0 || authority >= n || cap->journals[ai].empty()) {
        continue;
      }
      if (journaled[ai].count(ev.txn) == 0) {
        return Status::FailedPrecondition(
            "durability violation: committed txn " + ev.txn.ToString() +
            " is missing from datacenter " + std::to_string(authority) +
            "'s journal");
      }
    }
  }
  return Status::Ok();
}

// --- wal_replay -------------------------------------------------------------

Status CheckWalReplayOracle(const ExperimentResult& result) {
  const RunCapture* cap = Capture(result);
  if (cap == nullptr) {
    return Status::FailedPrecondition("no captured WAL journals");
  }
  const int n = static_cast<int>(cap->journals.size());
  for (int dc = 0; dc < n; ++dc) {
    const size_t i = static_cast<size_t>(dc);
    const std::vector<wal::WalContents>& journals = cap->journals[i];
    if (journals.empty()) continue;
    if (cap->dc_down[i]) continue;  // Crashed at end: store is amnesiac.

    // Replay: the latest journaled version of every key, merged across
    // the datacenter's journals. Shard key partitions are disjoint, so
    // for sharded captures the merge is a plain union.
    struct Latest {
      Version version{kMinTimestamp, TxnId{}};
      const Value* value = nullptr;
    };
    std::map<Key, Latest> replay;
    for (const wal::WalContents& wal : journals) {
      for (const rdict::LogRecord& r : wal.records) {
        if (!IsCommittedFinished(r)) continue;
        const Version v{r.version_ts, r.body->id};
        for (const WriteEntry& w : r.body->write_set) {
          Latest& slot = replay[w.key];
          if (slot.value == nullptr || VersionLess(slot.version, v)) {
            slot.version = v;
            slot.value = &w.value;
          }
        }
      }
    }

    const std::map<Key, VersionedValue>& live = cap->stores[i];
    for (const auto& [key, want] : replay) {
      auto it = live.find(key);
      if (it == live.end()) {
        return Status::FailedPrecondition(
            "wal-replay divergence at datacenter " + std::to_string(dc) +
            ": journaled key '" + key + "' (" + VersionStr(want.version) +
            ") is absent from the live store");
      }
      const Version got{it->second.ts, it->second.writer};
      if (got != want.version || it->second.value != *want.value) {
        return Status::FailedPrecondition(
            "wal-replay divergence at datacenter " + std::to_string(dc) +
            ": key '" + key + "' journal says " + VersionStr(want.version) +
            " but live store has " + VersionStr(got));
      }
    }
    for (const auto& [key, v] : live) {
      // Keys the journal never saw must be untouched initial loads
      // (LoadInitialAll bypasses the log; loaders stamp a negative origin).
      if (replay.count(key) > 0) continue;
      if (v.writer.origin >= 0) {
        return Status::FailedPrecondition(
            "wal-replay divergence at datacenter " + std::to_string(dc) +
            ": live store key '" + key + "' has committed version " +
            VersionStr({v.ts, v.writer}) + " that was never journaled");
      }
    }
  }
  return Status::Ok();
}

// --- metrics ----------------------------------------------------------------

Status CheckMetricsOracle(const ExperimentSpec& spec,
                          const ExperimentResult& result) {
  const obs::MetricsSnapshot& m = result.metrics;
  if (m.FindCounter("sim.events_processed") == nullptr) {
    return Status::FailedPrecondition(
        "metrics snapshot missing (run with tracing enabled)");
  }

  // recovery.recoveries is exported (and nonzero) iff a scheduled recover
  // event actually revived a crashed datacenter. The harness runs the
  // scheduler only until the end of the drain, so later events never fire.
  uint64_t expected_recoveries = 0;
  {
    std::vector<sim::NodeEvent> events = spec.fault_plan.node_events;
    std::sort(events.begin(), events.end(),
              [](const sim::NodeEvent& a, const sim::NodeEvent& b) {
                return a.at < b.at;
              });
    const sim::SimTime run_end = spec.warmup + spec.measure + spec.drain;
    std::set<int> down;
    for (const sim::NodeEvent& e : events) {
      if (e.at > run_end) break;
      if (!e.up) {
        down.insert(e.node);
      } else if (down.erase(e.node) > 0) {
        ++expected_recoveries;
      }
    }
  }
  const auto* recoveries = m.FindCounter("recovery.recoveries");
  if (expected_recoveries > 0) {
    if (recoveries == nullptr || recoveries->value != expected_recoveries) {
      return Status::FailedPrecondition(
          "metrics mismatch: scheduled " +
          std::to_string(expected_recoveries) +
          " recoveries but recovery.recoveries is " +
          (recoveries == nullptr ? std::string("absent")
                                 : std::to_string(recoveries->value)));
    }
  } else if (recoveries != nullptr && recoveries->value != 0) {
    return Status::FailedPrecondition(
        "metrics mismatch: no crash/recover scheduled but "
        "recovery.recoveries = " +
        std::to_string(recoveries->value));
  }

  // Fault counters are exported exactly when the plan has message faults
  // (the export gating that keeps fault-free snapshots byte-stable).
  const bool has_message_faults = spec.fault_plan.HasMessageFaults();
  const bool has_fault_counters = m.FindCounter("net.fault_drops") != nullptr;
  if (has_message_faults != has_fault_counters) {
    return Status::FailedPrecondition(
        has_message_faults
            ? "metrics mismatch: message faults scheduled but net.fault_* "
              "counters absent"
            : "metrics mismatch: net.fault_* counters exported without "
              "message faults");
  }

  // Same gating contract for the deterministic gray-fault counters.
  const bool has_gray_link = spec.fault_plan.HasGrayLinkFaults();
  const bool has_gray_counters = m.FindCounter("net.gray_slowed") != nullptr;
  if (has_gray_link != has_gray_counters) {
    return Status::FailedPrecondition(
        has_gray_link
            ? "metrics mismatch: gray link faults scheduled but net.gray_* "
              "counters absent"
            : "metrics mismatch: net.gray_* counters exported without gray "
              "link faults");
  }

  uint64_t committed = 0;
  for (const harness::DcResult& dc : result.per_dc) committed += dc.committed;
  const auto* committed_counter = m.FindCounter("client.committed");
  if (committed_counter == nullptr || committed_counter->value != committed) {
    return Status::FailedPrecondition(
        "metrics mismatch: client.committed counter disagrees with the "
        "per-datacenter totals");
  }

  // Liveness: a measurement window this long must commit something —
  // unless the plan can wedge clients (crashes/partitions) while no
  // timeout is armed to unwedge them.
  const bool can_wedge = !spec.fault_plan.node_events.empty() ||
                         !spec.fault_plan.partition_events.empty() ||
                         !spec.fault_plan.gray_faults.empty();
  // Message faults can blank a window without any protocol bug: every
  // swallowed reply parks its client for a full commit timeout. The
  // scenario generator keeps crash/partition/gray faults quiet for the
  // last 2s of the window precisely so this check stays sound, but link
  // faults are allowed to run to the end of time; when one does, only
  // claim liveness if the window dwarfs the per-client parking budget —
  // below 4x the timeout the check would be flagging bad luck.
  const sim::SimTime lossy_quiet_from =
      spec.warmup + spec.measure - Millis(2000);
  const bool lossy_thin_window =
      spec.fault_plan.HasMessageFaultsActiveAfter(lossy_quiet_from) &&
      spec.client_timeout > 0 && spec.measure < 4 * spec.client_timeout;
  if (spec.measure >= Seconds(1) && (!can_wedge || spec.client_timeout > 0) &&
      !lossy_thin_window && committed == 0) {
    return Status::FailedPrecondition(
        "liveness violation: nothing committed in a " +
        std::to_string(spec.measure / 1000) + "ms measurement window");
  }

  if (spec.client_timeout > 0) {
    const auto* timeouts = m.FindCounter("client.timeouts");
    if (timeouts == nullptr || timeouts->value != result.client_timeouts) {
      return Status::FailedPrecondition(
          "metrics mismatch: client.timeouts counter disagrees with the "
          "client totals");
    }
  }
  return Status::Ok();
}

}  // namespace

bool OracleReport::ok() const {
  for (const OracleVerdict& v : verdicts) {
    if (!v.status.ok()) return false;
  }
  return true;
}

Status OracleReport::status() const {
  for (const OracleVerdict& v : verdicts) {
    if (!v.status.ok()) return v.status;
  }
  return Status::Ok();
}

std::string OracleReport::FirstFailureName() const {
  for (const OracleVerdict& v : verdicts) {
    if (!v.status.ok()) return v.name;
  }
  return "";
}

std::string OracleReport::Summary() const {
  std::string out;
  for (const OracleVerdict& v : verdicts) {
    out += v.name;
    out += v.status.ok() ? ": ok" : ": FAILED " + v.status.ToString();
    out += '\n';
  }
  return out;
}

OracleReport RunOracles(const ExperimentSpec& spec,
                        const ExperimentResult& result,
                        const OracleOptions& options) {
  OracleReport report;
  if (options.serializability) {
    report.verdicts.push_back(
        {"serializability", CheckSerializabilityOracle(result)});
  }
  if (options.sessions) {
    report.verdicts.push_back({"sessions", CheckSessionsOracle(spec, result)});
  }
  if (options.shard_atomicity) {
    report.verdicts.push_back(
        {"shard_atomicity", CheckShardAtomicityOracle(result)});
  }
  if (options.staged_resolution) {
    report.verdicts.push_back(
        {"staged_resolution", CheckStagedResolutionOracle(result)});
  }
  if (options.exactly_once) {
    report.verdicts.push_back(
        {"exactly_once", CheckExactlyOnceOracle(spec, result)});
  }
  if (options.wal_replay) {
    report.verdicts.push_back({"wal_replay", CheckWalReplayOracle(result)});
  }
  if (options.metrics) {
    report.verdicts.push_back({"metrics", CheckMetricsOracle(spec, result)});
  }
  return report;
}

}  // namespace helios::check
