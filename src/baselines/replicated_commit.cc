#include "baselines/replicated_commit.h"

#include <algorithm>

namespace helios::baselines {

ReplicatedCommitCluster::ReplicatedCommitCluster(sim::Scheduler* scheduler,
                                                 sim::Network* network,
                                                 ReplicatedCommitConfig config)
    : BaselineCluster(scheduler, network, config.num_datacenters,
                      config.client_link_one_way, config.decision_timeout,
                      config.service, config.clock_offsets, kInvalidDc),
      config_(std::move(config)),
      locks_(static_cast<size_t>(config_.num_datacenters),
             LockTable(LockPolicy::kNoWait)) {}

void ReplicatedCommitCluster::OnCrash(DcId dc) {
  locks_[static_cast<size_t>(dc)] = LockTable(LockPolicy::kNoWait);
}

// --- Server-side handlers -----------------------------------------------------

void ReplicatedCommitCluster::HandleLockRead(
    DcId dc, const TxnId& txn, Timestamp start_ts, const Key& key,
    std::function<void(Result<VersionedValue>)> reply) {
  Serve(dc, config_.service.read + config_.service.lock_op,
        [this, dc, txn, start_ts, key, reply = std::move(reply)]() {
          if (state(dc).recovering) {
            reply(Status::Unavailable("recovering"));
            return;
          }
          locks_[static_cast<size_t>(dc)].Acquire(
              key, LockMode::kShared, txn, start_ts,
              [this, dc, &key, &reply](Status s) {
                // No-wait: the grant callback runs synchronously.
                if (!s.ok()) {
                  reply(Status::Aborted("read lock refused"));
                  return;
                }
                reply(store(dc).Read(key));
              });
        });
}

void ReplicatedCommitCluster::HandleVote(
    DcId dc, const TxnId& txn, Timestamp start_ts,
    const std::vector<ReadEntry>& reads, const std::vector<WriteEntry>& writes,
    std::function<void(VoteReply)> reply) {
  const Duration vote_cost =
      config_.service.commit_request +
      config_.service.lock_op *
          static_cast<Duration>(reads.size() + writes.size());
  Serve(dc, vote_cost, [this, dc, txn, start_ts, reads, writes,
                        reply = std::move(reply)]() {
    if (state(dc).recovering) {
      // A store that has not caught up cannot validate reads; vote no
      // rather than risk validating against stale versions.
      reply(VoteReply{});
      return;
    }
    LockTable& locks = locks_[static_cast<size_t>(dc)];
    const MvStore& st = store(dc);
    VoteReply vote;
    vote.yes = true;
    // Acquire write locks (no-wait: grants are synchronous).
    for (const WriteEntry& w : writes) {
      bool got = false;
      locks.Acquire(w.key, LockMode::kExclusive, txn, start_ts,
                    [&got](Status s) { got = s.ok(); });
      if (!got) {
        vote.yes = false;
        break;
      }
      vote.max_write_version_ts =
          std::max(vote.max_write_version_ts, st.LatestVersionTs(w.key));
    }
    // Validate reads: either the shared lock is still held (the normal
    // path) or the version the client read is still current.
    if (vote.yes) {
      for (const ReadEntry& r : reads) {
        if (locks.Holds(r.key, txn, LockMode::kShared)) continue;
        bool got = false;
        locks.Acquire(r.key, LockMode::kShared, txn, start_ts,
                      [&got](Status s) { got = s.ok(); });
        auto current = st.Read(r.key);
        const bool matches = current.ok()
                                 ? current.value().writer == r.version_writer
                                 : !r.version_writer.valid();
        if (!got || !matches) {
          vote.yes = false;
          break;
        }
      }
    }
    // Locks (granted or partial) stay held until the decision.
    reply(vote);
  });
}

void ReplicatedCommitCluster::HandleDecision(DcId dc, const TxnId& txn,
                                             bool commit, TxnBodyPtr body,
                                             Timestamp version_ts) {
  const Duration cost =
      commit ? config_.service.write_apply *
                   static_cast<Duration>(body ? body->write_set.size() : 0)
             : Micros(10);
  Serve(dc, cost, [this, dc, txn, commit, body = std::move(body),
                   version_ts]() {
    // A false return from ApplyDecision means catch-up already applied
    // this decision, so the broadcast copy is a no-op.
    if (commit && body != nullptr) ApplyDecision(dc, txn, body, version_ts);
    locks_[static_cast<size_t>(dc)].ReleaseAll(txn);
  });
}

void ReplicatedCommitCluster::BroadcastDecision(DcId home, const TxnId& txn,
                                                bool commit, TxnBodyPtr body,
                                                Timestamp version_ts) {
  for (DcId dc = 0; dc < config_.num_datacenters; ++dc) {
    Route(home, dc, [this, dc, txn, commit, body, version_ts]() {
      HandleDecision(dc, txn, commit, body, version_ts);
    });
  }
  txn_start_ts_.erase(txn);
}

// --- Client-side protocol ------------------------------------------------------

void ReplicatedCommitCluster::TxnRead(DcId client_dc, const TxnId& txn,
                                      const Key& key, ReadCallback done) {
  const int n = config_.num_datacenters;
  const int majority = n / 2 + 1;
  const Timestamp start_ts = StartTs(client_dc, txn);

  struct ReadState {
    int replies = 0;
    int granted = 0;
    bool answered = false;
    bool have_value = false;
    VersionedValue best;
  };
  auto state = std::make_shared<ReadState>();
  auto on_reply = [this, state, n, majority, done](
                      Result<VersionedValue> r) {
    ++state->replies;
    if (r.ok()) {
      ++state->granted;
      const VersionedValue& v = r.value();
      if (!state->have_value || state->best.ts < v.ts ||
          (state->best.ts == v.ts && state->best.writer < v.writer)) {
        state->have_value = true;
        state->best = v;
      }
    } else if (r.status().code() == StatusCode::kNotFound) {
      // Key absent but lock granted: counts toward the majority.
      ++state->granted;
    }
    if (state->answered) return;
    if (state->granted >= majority) {
      state->answered = true;
      if (state->have_value) {
        done(state->best);
      } else {
        done(Status::NotFound("no replica has the key"));
      }
      return;
    }
    const int refused = state->replies - state->granted;
    if (refused > n - majority) {
      state->answered = true;
      done(Status::Aborted("read lock refused at a majority"));
    }
  };

  for (DcId dc = 0; dc < n; ++dc) {
    Route(client_dc, dc, [this, dc, txn, start_ts, key, client_dc,
                          on_reply]() {
      HandleLockRead(dc, txn, start_ts, key,
                     [this, dc, client_dc, on_reply](Result<VersionedValue> r) {
                       RouteBack(dc, client_dc,
                                 [on_reply, r = std::move(r)]() { on_reply(r); });
                     });
    });
  }
}

void ReplicatedCommitCluster::TxnCommit(DcId client_dc, const TxnId& txn,
                                        std::vector<ReadEntry> reads,
                                        std::vector<WriteEntry> writes,
                                        CommitCallback done) {
  const int n = config_.num_datacenters;
  const int majority = n / 2 + 1;
  const Timestamp start_ts = StartTs(client_dc, txn);
  TxnBodyPtr body = MakeTxnBody(txn, std::move(reads), std::move(writes));
  const sim::SimTime requested_at = scheduler_->Now();

  struct CommitState {
    int yes = 0;
    int no = 0;
    bool decided = false;
    Timestamp max_write_version_ts = kMinTimestamp;
  };
  auto state = std::make_shared<CommitState>();

  abandoned_[txn] = false;
  auto decide = [this, state, client_dc, txn, body, done,
                 requested_at](bool commit) {
    if (state->decided) return;
    state->decided = true;
    auto abandoned = abandoned_.find(txn);
    if (abandoned != abandoned_.end()) {
      if (abandoned->second) commit = false;
      abandoned_.erase(abandoned);
    }
    Timestamp version_ts = kMinTimestamp;
    if (commit) {
      // Dependency-bump the version timestamp above everything read or
      // overwritten so the per-key version order matches the lock order.
      version_ts = clock(client_dc).NowUnique();
      for (const ReadEntry& r : body->read_set) {
        version_ts = std::max(version_ts, r.version_ts + 1);
      }
      version_ts = std::max(version_ts, state->max_write_version_ts + 1);
      ++commits_;
      history_.RecordCommit(
          core::CommittedTxn{txn, client_dc, version_ts, body});
    } else {
      ++aborts_;
    }
    if (observed()) {
      RecordDecision(client_dc, txn, commit, requested_at,
                     commit ? "" : "vote:no-majority");
    }
    BroadcastDecision(client_dc, txn, commit, body, version_ts);
    done(CommitOutcome{txn, commit, commit ? "" : "vote:no-majority"});
  };

  auto on_vote = [state, majority, n, decide](const VoteReply& vote) {
    if (state->decided) return;
    if (vote.yes) {
      ++state->yes;
      state->max_write_version_ts =
          std::max(state->max_write_version_ts, vote.max_write_version_ts);
    } else {
      ++state->no;
    }
    if (state->yes >= majority) {
      decide(true);
    } else if (state->no > n - majority) {
      decide(false);
    }
  };

  for (DcId dc = 0; dc < n; ++dc) {
    Route(client_dc, dc, [this, dc, txn, start_ts, body, client_dc,
                          on_vote]() {
      HandleVote(dc, txn, start_ts, body->read_set, body->write_set,
                 [this, dc, client_dc, on_vote](VoteReply vote) {
                   RouteBack(dc, client_dc, [on_vote, vote]() { on_vote(vote); });
                 });
    });
  }

  // Outage guard: if votes can never resolve (crashed datacenters), abort.
  scheduler_->After(decision_timeout_, [decide]() { decide(false); });
}

void ReplicatedCommitCluster::TxnAbandon(DcId client_dc, const TxnId& txn) {
  auto voting = abandoned_.find(txn);
  if (voting != abandoned_.end()) voting->second = true;
  BroadcastDecision(client_dc, txn, false, nullptr, kMinTimestamp);
}

}  // namespace helios::baselines
