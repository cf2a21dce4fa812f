#include "sim/reliable.h"

#include <algorithm>
#include <utility>

namespace helios::sim {

ReliableMesh::ReliableMesh(Scheduler* scheduler, Network* network,
                           ReliableConfig config)
    : scheduler_(scheduler),
      network_(network),
      config_(config),
      n_(network->size()),
      channels_(static_cast<size_t>(n_) * static_cast<size_t>(n_)) {}

Duration ReliableMesh::InitialRto(int from, int to) const {
  const double rtt = static_cast<double>(network_->MeanRtt(from, to));
  const auto rto = static_cast<Duration>(rtt * config_.rto_rtt_multiplier);
  return std::clamp(rto, config_.min_rto, config_.max_rto);
}

void ReliableMesh::Send(int from, int to, std::function<void()> deliver) {
  if (!config_.enabled) {
    // Strict passthrough: no session state, no acks, no extra events.
    network_->Send(from, to, std::move(deliver));
    return;
  }
  Channel& ch = Chan(from, to);
  const uint64_t seq = ch.next_seq++;
  Packet p;
  p.deliver = std::move(deliver);
  p.attempts = 1;
  p.rto = InitialRto(from, to);
  p.last_tx = scheduler_->Now();
  const Duration rto = p.rto;
  ch.unacked.emplace(seq, std::move(p));
  TransmitData(from, to, seq);
  ArmTimer(from, to, seq, rto);
}

void ReliableMesh::TransmitData(int from, int to, uint64_t seq) {
  // The data packet "carries" the payload closure by reference: on arrival
  // the receiver fetches it from the sender's unacked map, which is safe
  // because the sender erases an entry only after a cumulative ack — and
  // acks are only generated after the first copy was accepted, at which
  // point every later copy is suppressed before the lookup.
  network_->Send(from, to, [this, from, to, seq]() { OnData(from, to, seq); });
}

void ReliableMesh::ArmTimer(int from, int to, uint64_t seq, Duration rto) {
  scheduler_->After(rto, [this, from, to, seq]() {
    Channel& ch = Chan(from, to);
    auto it = ch.unacked.find(seq);
    if (it == ch.unacked.end()) return;  // Acked meanwhile.
    Packet& p = it->second;
    if (config_.max_attempts > 0 && p.attempts >= config_.max_attempts) {
      ++gave_up_;
      ch.unacked.erase(it);
      return;
    }
    ++p.attempts;
    ++retransmits_;
    if (trace_ != nullptr) {
      trace_->Span(obs::EventKind::kNetRetransmit, from, TxnId{}, p.last_tx,
                   scheduler_->Now(), to);
    }
    p.last_tx = scheduler_->Now();
    p.rto = std::min(
        static_cast<Duration>(static_cast<double>(p.rto) * config_.backoff),
        config_.max_rto);
    const Duration next_rto = p.rto;
    TransmitData(from, to, seq);
    ArmTimer(from, to, seq, next_rto);
  });
}

void ReliableMesh::OnData(int from, int to, uint64_t seq) {
  Channel& ch = Chan(from, to);
  if (seq <= ch.delivered_through || ch.buffer.count(seq) != 0) {
    // A retransmitted or network-duplicated copy of something already
    // accepted. Re-ack so the sender stops resending (the earlier ack may
    // itself have been lost).
    ++duplicates_suppressed_;
    SendAck(from, to);
    return;
  }
  auto it = ch.unacked.find(seq);
  // A copy can outlive its packet if max_attempts gave up while it was in
  // flight; the payload is gone, so the copy is just a late loss.
  if (it == ch.unacked.end()) return;
  // Copy, not move: the sender may still retransmit this payload until the
  // ack lands.
  ch.buffer[seq] = it->second.deliver;
  while (true) {
    auto next = ch.buffer.find(ch.delivered_through + 1);
    if (next == ch.buffer.end()) break;
    ++ch.delivered_through;
    auto deliver = std::move(next->second);
    ch.buffer.erase(next);
    deliver();
  }
  SendAck(from, to);
}

void ReliableMesh::SendAck(int from, int to) {
  Channel& ch = Chan(from, to);
  const uint64_t cumulative = ch.delivered_through;
  ++acks_sent_;
  // Acks ride the same faulty network, in the reverse direction; being
  // cumulative, a lost or reordered ack is subsumed by any later one.
  network_->Send(to, from, [this, from, to, cumulative]() {
    OnAck(from, to, cumulative);
  });
}

void ReliableMesh::OnAck(int from, int to, uint64_t cumulative) {
  Channel& ch = Chan(from, to);
  auto it = ch.unacked.begin();
  while (it != ch.unacked.end() && it->first <= cumulative) {
    it = ch.unacked.erase(it);
  }
}

}  // namespace helios::sim
