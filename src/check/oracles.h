// OracleSuite: per-scenario invariant checks over a run's captured
// artifacts (harness::RunCapture), in the style of Jepsen's black-box
// history checkers.
//
// Oracles and what each one leans on:
//
//  * "serializability" — conflict serializability of the committed
//    history via core::CheckSerializable (the paper's Section 3 claim).
//  * "sessions" — read-your-writes and monotonic reads per client session,
//    replayed from the client-side SessionLogs against the history.
//    Versions compare in (version_ts, writer) order, the same total order
//    MvStore installs. Skipped for Replicated Commit: its majority reads
//    answer from whichever majority replies first, and two majorities only
//    overlap — the protocol never promised session guarantees, so checking
//    them would be a false alarm, not a bug.
//  * "exactly_once" — no TxnId committed twice: per-datacenter WAL
//    journals contain at most one committed finished record per TxnId
//    (PR 4's journal-then-apply dedup), every datacenter that journaled a
//    transaction agrees on its version timestamp, the history commits each
//    id once, and every client-observed commit is durably journaled at its
//    authoritative datacenter (origin; the coordinator for 2PC).
//  * "wal_replay" — replaying each datacenter's journal reproduces the
//    latest version of every key in its live store (skipping datacenters
//    still down at the end). This is the durability half of crash
//    recovery: the store must never hold a committed version the journal
//    cannot rebuild, and vice versa.
//  * "shard_atomicity" — sharded runs only (src/shard): a cross-shard
//    transaction must finalize the same way on every shard. Within one
//    datacenter, no TxnId may have a committed finished record in one
//    shard's journal and an aborted one in another's.
//  * "staged_resolution" — sharded runs only: the durable coordinator
//    status table is the single source of truth for parallel commits. A
//    COMMITTED entry forbids aborted finalizes, an ABORTED or
//    still-STAGED entry forbids committed finalizes, and every
//    client-observed cross-shard commit must have a COMMITTED entry at
//    its origin.
//  * "metrics" — exported counters match the scenario: recovery.recoveries
//    is nonzero iff a crash/recover pair was scheduled, fault counters are
//    exported iff the plan has message faults, and runs whose fault plan
//    cannot wedge clients (or whose clients have timeouts armed) actually
//    committed work.
//
// RunOracles never runs a simulation; it only inspects spec + result.
// Callers produce the inputs with check::RunScenario (runner.h).

#ifndef HELIOS_CHECK_ORACLES_H_
#define HELIOS_CHECK_ORACLES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"

namespace helios::check {

struct OracleOptions {
  bool serializability = true;
  bool sessions = true;
  /// Sharded captures only; pass trivially with one journal per datacenter.
  bool shard_atomicity = true;
  bool staged_resolution = true;
  bool exactly_once = true;
  bool wal_replay = true;
  bool metrics = true;
};

struct OracleVerdict {
  std::string name;
  Status status;
};

struct OracleReport {
  std::vector<OracleVerdict> verdicts;

  bool ok() const;
  /// First failing verdict's status (OK when all passed).
  Status status() const;
  /// First failing oracle's name, or "" when all passed. The Shrinker keys
  /// on this so a candidate only counts as "still failing" when the SAME
  /// invariant breaks.
  std::string FirstFailureName() const;
  /// One line per oracle: "serializability: ok" / "sessions: FAILED ...".
  std::string Summary() const;
};

/// Runs every enabled oracle over one finished experiment. `result` must
/// come from a run with capture_artifacts and tracing enabled (see
/// check::RunScenario); oracles whose inputs are missing fail crisply
/// rather than vacuously passing.
OracleReport RunOracles(const harness::ExperimentSpec& spec,
                        const harness::ExperimentResult& result,
                        const OracleOptions& options = {});

}  // namespace helios::check

#endif  // HELIOS_CHECK_ORACLES_H_
