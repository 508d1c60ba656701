// Client sessions for the attested execution gateway.
//
// The expensive part of trusting a device is the RA handshake (Tab 3: four
// protocol messages, two network round-trips, ECDHE + ECDSA on both ends).
// The session manager amortises it: the handshake runs once per
// (client session, device) pair and the verified evidence is cached under
// the session id. Policy decides when the cache goes stale — a TTL on the
// evidence, or the device's boot count moving (a rebooted or swapped board
// has a new trusted-OS state and must re-prove itself).
//
// Concurrency: sessions are handed out as shared_ptr so a work item queued
// on a backend worker can outlive a concurrent detach. detach() marks the
// session closed (checked by every worker before touching it) and unlinks
// it from the table; the state itself is freed when the last in-flight
// reference drops. The per-session evidence map has its own mutex, and the
// lock is NEVER held across a handshake — two workers attesting the same
// session against different devices proceed in parallel.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attestation/evidence.hpp"
#include "common/result.hpp"

namespace watz::gateway {

struct SessionPolicy {
  /// Evidence older than this is re-collected. Default: never expires by
  /// age (boot-count changes still force re-attestation).
  std::uint64_t evidence_ttl_ns = ~0ull;
};

/// Cached appraisal result for one device under one session.
struct DeviceAttestation {
  attestation::Evidence evidence;
  std::uint64_t attested_at_ns = 0;
  std::uint64_t boot_count = 0;
};

struct Session {
  std::uint64_t id = 0;
  std::string client;
  std::uint64_t created_at_ns = 0;
  std::atomic<std::uint64_t> invocations{0};
  /// Set by detach; queued work observing it fails instead of executing.
  std::atomic<bool> closed{false};
  /// Soft slot-affinity hint: 1 + the fleet-wide id of the sandbox slot
  /// that last completed an invoke for this session (0 = none yet).
  /// Placement prefers the hinted slot when it is idle, so repeat invokes
  /// land on the slot whose warm pool already holds this session's
  /// instance. A hint, not a binding: a busy or vanished slot is simply
  /// ignored.
  std::atomic<std::uint64_t> affinity_slot{0};
  std::mutex mu;  ///< guards `attested` (leaf lock; never held across I/O)
  std::map<std::string, DeviceAttestation> attested;  // keyed by device hostname
};

using SessionPtr = std::shared_ptr<Session>;

/// Fabric round-trips one WaTZ handshake costs (msg0->msg1, msg2->msg3).
inline constexpr std::uint32_t kRaExchangesPerHandshake = 2;

class SessionManager {
 public:
  explicit SessionManager(SessionPolicy policy = {}) : policy_(policy) {}

  SessionPtr attach(std::string client, std::uint64_t now_ns);
  SessionPtr find(std::uint64_t session_id);

  /// Unlinks the session and marks it closed. Work already queued against
  /// it holds its own reference and fails fast on the closed flag, so no
  /// worker ever dereferences freed session state.
  bool detach(std::uint64_t session_id);

  /// The lazy per-invoke check: true (a reused handshake) when `session`
  /// holds evidence for `device_name` fresh under the policy at `now_ns`;
  /// otherwise drops any stale entry and returns false — the caller then
  /// re-proves with no lock held (racing callers both do; last record wins).
  bool reuse_fresh(Session& session, const std::string& device_name,
                   std::uint64_t boot_count, std::uint64_t now_ns);

  /// Records one handshake lane's evidence (Gateway::attest). Counts as a
  /// run handshake; fails without touching the cache when the session was
  /// detached while the batch was in flight.
  Status record_attestation(Session& session, const std::string& device_name,
                            std::uint64_t boot_count, std::uint64_t now_ns,
                            attestation::Evidence evidence);

  /// True when `session` holds evidence for `device_name` that is fresh
  /// under the policy at `now_ns` (same boot count, TTL not lapsed). Pure
  /// read — never runs a handshake. The batch-dedup path uses it to decide
  /// whether a follower lane may ride a leader's execution.
  bool has_fresh(Session& session, const std::string& device_name,
                 std::uint64_t boot_count, std::uint64_t now_ns) const;

  /// Sessions whose evidence for `device_name` (at `boot_count`) is older
  /// than `max_age_ns` but not yet detached — what the gateway's
  /// background renewal sweep re-attests BEFORE the TTL lapses, so the
  /// invoke hot path never pays a lazy handshake. Lock discipline: the
  /// session table lock and each session's lock are taken in sequence,
  /// never nested.
  std::vector<SessionPtr> renewal_candidates(const std::string& device_name,
                                             std::uint64_t boot_count,
                                             std::uint64_t now_ns,
                                             std::uint64_t max_age_ns);

  std::size_t active() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sessions_.size();
  }
  std::uint64_t sessions_total() const noexcept {
    return sessions_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t handshakes_run() const noexcept {
    return handshakes_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t handshakes_reused() const noexcept {
    return handshakes_reused_.load(std::memory_order_relaxed);
  }

 private:
  const SessionPolicy policy_;
  mutable std::mutex mu_;  // guards sessions_ and next_id_
  std::map<std::uint64_t, SessionPtr> sessions_;
  std::uint64_t next_id_ = 1;
  std::atomic<std::uint64_t> sessions_total_{0};
  std::atomic<std::uint64_t> handshakes_run_{0};
  std::atomic<std::uint64_t> handshakes_reused_{0};
};

}  // namespace watz::gateway
