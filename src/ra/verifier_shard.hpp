// Sharded verifier front-end: N independent ra::Verifier instances, each
// behind its own mutex with its own RNG stream and ephemeral-keypair
// rotation state, so fleet-wide attach storms scale with cores instead of
// serialising every handshake on one verifier lock.
//
// Sessions are routed by DEPTH, not by hash: a new handshake (msg0, plain
// or batch lane) is placed on the shard with the fewest open handshakes at
// that instant, recorded in a routing table so the session's later frames
// (msg2) land on the same shard — the protocol is stateful per session.
// Hash routing (splitmix64 of the session id) survives only as the
// fallback for frames whose session was never depth-routed, and as the
// tie-break between equally deep shards. Depth routing is what keeps an
// attach storm's lanes level across shards even when the id structure is
// skewed or a shard is slowed by a long appraisal.
//
// Lock discipline: handling any frame — batched or not — locks exactly ONE
// shard at a time. The batch handler walks its lanes sequentially,
// releasing each shard before touching the next, so no ordering between
// shard mutexes ever exists and the shard tier stays a leaf of the
// gateway's lock hierarchy (DESIGN.md §2).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "crypto/fortuna.hpp"
#include "ra/verifier.hpp"

namespace watz::ra {

struct ShardedVerifierConfig {
  /// Number of independent verifier shards (>= 1).
  std::size_t shards = 4;
  /// Applied to every shard; includes the per-shard ephemeral keypair
  /// rotation window (VerifierPolicy::session_key_reuse).
  VerifierPolicy policy{};
  /// Modeled wall-clock cost of one msg2 appraisal, charged (as a sleep)
  /// while the owning shard's lock is held. A production verifier spends
  /// real time per appraisal (policy engine, HSM signature, audit log);
  /// the simulation charges it the way hw::LatencyConfig::device_side
  /// charges remote-board latency — as a sleep — so shard count converts
  /// into overlap on any host. 0 (the default) disables the charge; tests
  /// keep it off.
  std::uint64_t appraisal_latency_ns = 0;
};

struct VerifierShardStats {
  std::uint64_t msg0s = 0;       ///< handshakes started on this shard
  std::uint64_t handshakes = 0;  ///< appraisals passed (msg3 issued)
  /// Frames this shard rejected (appraisal failures and per-lane protocol
  /// errors). Whole-batch FRAMING rejections never reach a shard — see
  /// ShardedVerifier::batch_framing_rejects().
  std::uint64_t rejects = 0;
  std::uint64_t key_rotations = 0;
  std::size_t active_sessions = 0;
};

/// One shard: a Verifier serialised by its own mutex, fed by its own
/// Fortuna stream (no RNG contention between shards).
class VerifierShard {
 public:
  VerifierShard(const crypto::KeyPair& identity, ByteView seed,
                const VerifierPolicy& policy);
  VerifierShard(const VerifierShard&) = delete;
  VerifierShard& operator=(const VerifierShard&) = delete;

  /// Handles one protocol frame for `session_id` under this shard's lock,
  /// charging `appraisal_latency_ns` on the appraisal message (msg2).
  Result<Bytes> handle(std::uint64_t session_id, ByteView message,
                       std::uint64_t appraisal_latency_ns);
  void end_session(std::uint64_t session_id);

  void endorse_device(const crypto::EcPoint& attestation_key);
  void add_reference_measurement(const crypto::Sha256Digest& claim);
  void set_secret_provider(SecretProvider provider);
  void set_policy(VerifierPolicy policy);

  VerifierShardStats stats() const;

 private:
  mutable std::mutex mu_;
  crypto::Fortuna rng_;  // declared before verifier_, which holds a reference
  Verifier verifier_;
  std::uint64_t msg0s_ = 0;
  std::uint64_t rejects_ = 0;
};

class ShardedVerifier {
 public:
  ShardedVerifier(crypto::KeyPair identity, ByteView seed,
                  ShardedVerifierConfig config);

  const crypto::EcPoint& identity_key() const noexcept { return identity_.pub; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// The HASH shard of a session id (the routing fallback; with depth
  /// routing on, live sessions may be placed elsewhere — see
  /// shard_depths()).
  std::size_t shard_for(std::uint64_t session_id) const noexcept;
  /// Open (routed, unfinished) handshakes per shard — what depth routing
  /// levels. Exposed for tests and the gateway's STATS.
  std::vector<std::uint32_t> shard_depths() const;
  /// The virtual session id of a batch lane (see ra/messages.hpp framing).
  /// Bit 63 tags the lane id space so no lane can ever alias a plain
  /// connection's session id (fabric conn ids are a small sequential
  /// counter; without the tag, conn C == (D << 20) | (lane + 1) would let
  /// a late plain handshake clobber an in-flight batch lane's state).
  static std::uint64_t lane_session_id(std::uint64_t conn_id, std::uint32_t lane) {
    return (1ull << 63) | (conn_id << 20) | (static_cast<std::uint64_t>(lane) + 1);
  }

  // Endorsements, reference values, the secret provider and the policy are
  // broadcast to every shard (one shard lock at a time).
  void endorse_device(const crypto::EcPoint& attestation_key);
  void add_reference_measurement(const crypto::Sha256Digest& claim);
  void set_secret_provider(const SecretProvider& provider);
  void set_policy(const VerifierPolicy& policy);

  /// Handles one RA-endpoint message: plain protocol frames route to the
  /// connection's shard; a batch frame fans its lanes out across shards and
  /// returns a batch reply with per-lane status (a lane failing appraisal
  /// fails alone — the batch partially succeeds). A malformed batch frame
  /// is a protocol error for the whole exchange.
  Result<Bytes> handle(std::uint64_t conn_id, ByteView message);

  /// Drops the connection's session state: the plain session plus every
  /// batch lane opened over it.
  void end_session(std::uint64_t conn_id);

  std::vector<VerifierShardStats> stats() const;
  /// Sum of per-shard appraisals passed (reconciles against the gateway's
  /// handshakes_run counter in the storm tests).
  std::uint64_t handshakes_completed() const;
  std::size_t active_sessions() const;
  /// Batch frames rejected wholesale for malformed framing (count/payload
  /// mismatch, duplicate lanes, truncation) before touching any shard.
  std::uint64_t batch_framing_rejects() const noexcept {
    return batch_framing_rejects_.load(std::memory_order_relaxed);
  }

 private:
  Result<Bytes> handle_batch(std::uint64_t conn_id, ByteView message);
  /// Runs one plain protocol frame of a routed session on its shard (an
  /// RaAppraise span around a msg2's appraisal) and retires the route's
  /// depth once the handshake is over.
  Result<Bytes> handle_on_shard(std::size_t shard, std::uint64_t session_id,
                                ByteView frame);

  /// Routes one protocol frame's session: a sticky table hit wins; a msg0
  /// opens a new route on the least-deep shard (depth routing) or the hash
  /// shard; anything else falls back to the hash. `opening` marks msg0s.
  std::size_t route_session(std::uint64_t session_id, bool opening);
  /// Marks a routed handshake finished (msg2 answered, either way): its
  /// shard's depth drops but the sticky mapping survives until the
  /// connection sweep, so late frames still find the right shard.
  void finish_session(std::uint64_t session_id);
  /// Drops the sticky mapping (connection sweep) and returns the shard the
  /// session actually lived on (hash shard when never routed).
  std::size_t erase_route(std::uint64_t session_id);

  crypto::KeyPair identity_;
  ShardedVerifierConfig config_;
  std::vector<std::unique_ptr<VerifierShard>> shards_;

  /// Batch lanes opened per connection, so end_session can sweep the
  /// virtual sessions a dropped device left behind mid-handshake.
  std::mutex lanes_mu_;
  std::map<std::uint64_t, std::set<std::uint32_t>> lanes_;
  std::atomic<std::uint64_t> batch_framing_rejects_{0};

  /// Depth-routing state: session → placed shard (+ whether the handshake
  /// is still open) and the per-shard open-handshake counts the placement
  /// argmin reads. Leaf lock, never held across a shard handle().
  struct Route {
    std::size_t shard = 0;
    bool open = false;
  };
  mutable std::mutex routes_mu_;
  std::map<std::uint64_t, Route> routes_;
  std::vector<std::uint32_t> depths_;
};

}  // namespace watz::ra
