#include "ra/verifier_shard.hpp"

#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "crypto/sha256.hpp"
#include "obs/trace.hpp"

namespace watz::ra {

namespace {

/// splitmix64 finaliser: spreads the structured session ids (sequential
/// fabric connections, (conn << 20) | lane virtual ids) uniformly before
/// the modulo picks a shard.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool is_msg0(ByteView message) {
  return !message.empty() &&
         message[0] == static_cast<std::uint8_t>(MsgTag::Msg0);
}

bool is_msg2(ByteView message) {
  return !message.empty() &&
         message[0] == static_cast<std::uint8_t>(MsgTag::Msg2);
}

Bytes shard_seed(ByteView seed, std::size_t index) {
  crypto::Sha256 hasher;
  hasher.update(seed);
  hasher.update(to_bytes("watz-verifier-shard-" + std::to_string(index)));
  const crypto::Sha256Digest digest = hasher.finish();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace

// -- VerifierShard -----------------------------------------------------------

VerifierShard::VerifierShard(const crypto::KeyPair& identity, ByteView seed,
                             const VerifierPolicy& policy)
    : rng_(seed), verifier_(identity, rng_) {
  verifier_.set_policy(policy);
}

Result<Bytes> VerifierShard::handle(std::uint64_t session_id, ByteView message,
                                    std::uint64_t appraisal_latency_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool is_msg0 =
      !message.empty() && message[0] == static_cast<std::uint8_t>(MsgTag::Msg0);
  const bool is_msg2 =
      !message.empty() && message[0] == static_cast<std::uint8_t>(MsgTag::Msg2);
  // The modeled appraisal cost is charged under the shard lock on purpose:
  // it is THIS serialisation that sharding exists to break up.
  if (is_msg2 && appraisal_latency_ns)
    std::this_thread::sleep_for(std::chrono::nanoseconds(appraisal_latency_ns));
  auto reply = verifier_.handle(session_id, message);
  if (is_msg0) ++msg0s_;
  if (!reply.ok()) ++rejects_;
  // A completed handshake (msg2 -> msg3) has no further messages on this
  // session; dropping the state here keeps storm-long shards from
  // accumulating finished sessions until connection close.
  if (is_msg2 && reply.ok()) verifier_.end_session(session_id);
  return reply;
}

void VerifierShard::end_session(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  verifier_.end_session(session_id);
}

void VerifierShard::endorse_device(const crypto::EcPoint& attestation_key) {
  std::lock_guard<std::mutex> lock(mu_);
  verifier_.endorse_device(attestation_key);
}

void VerifierShard::add_reference_measurement(const crypto::Sha256Digest& claim) {
  std::lock_guard<std::mutex> lock(mu_);
  verifier_.add_reference_measurement(claim);
}

void VerifierShard::set_secret_provider(SecretProvider provider) {
  std::lock_guard<std::mutex> lock(mu_);
  verifier_.set_secret_provider(std::move(provider));
}

void VerifierShard::set_policy(VerifierPolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  verifier_.set_policy(policy);
}

VerifierShardStats VerifierShard::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  VerifierShardStats stats;
  stats.msg0s = msg0s_;
  stats.handshakes = verifier_.handshakes_completed();
  stats.rejects = rejects_;
  stats.key_rotations = verifier_.key_rotations();
  stats.active_sessions = verifier_.active_sessions();
  return stats;
}

// -- ShardedVerifier ---------------------------------------------------------

ShardedVerifier::ShardedVerifier(crypto::KeyPair identity, ByteView seed,
                                 ShardedVerifierConfig config)
    : identity_(std::move(identity)), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    shards_.push_back(std::make_unique<VerifierShard>(identity_, shard_seed(seed, i),
                                                      config_.policy));
  depths_.assign(config_.shards, 0);
}

std::size_t ShardedVerifier::shard_for(std::uint64_t session_id) const noexcept {
  return static_cast<std::size_t>(mix(session_id) % shards_.size());
}

std::vector<std::uint32_t> ShardedVerifier::shard_depths() const {
  std::lock_guard<std::mutex> lock(routes_mu_);
  return depths_;
}

std::size_t ShardedVerifier::route_session(std::uint64_t session_id, bool opening) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  const auto it = routes_.find(session_id);
  if (it != routes_.end()) return it->second.shard;
  if (!opening) return shard_for(session_id);  // mid-protocol stray: hash
  // Least-open-handshakes placement; the hash shard wins ties so a quiet
  // verifier still spreads by id instead of piling on shard 0.
  std::size_t shard = shard_for(session_id);
  for (std::size_t s = 0; s < depths_.size(); ++s)
    if (depths_[s] < depths_[shard]) shard = s;
  routes_[session_id] = Route{shard, true};
  ++depths_[shard];
  return shard;
}

void ShardedVerifier::finish_session(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  const auto it = routes_.find(session_id);
  if (it == routes_.end() || !it->second.open) return;
  it->second.open = false;
  --depths_[it->second.shard];
}

std::size_t ShardedVerifier::erase_route(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  const auto it = routes_.find(session_id);
  if (it == routes_.end()) return shard_for(session_id);
  const std::size_t shard = it->second.shard;
  if (it->second.open) --depths_[shard];
  routes_.erase(it);
  return shard;
}

void ShardedVerifier::endorse_device(const crypto::EcPoint& attestation_key) {
  for (auto& shard : shards_) shard->endorse_device(attestation_key);
}

void ShardedVerifier::add_reference_measurement(const crypto::Sha256Digest& claim) {
  for (auto& shard : shards_) shard->add_reference_measurement(claim);
}

void ShardedVerifier::set_secret_provider(const SecretProvider& provider) {
  for (auto& shard : shards_) shard->set_secret_provider(provider);
}

void ShardedVerifier::set_policy(const VerifierPolicy& policy) {
  config_.policy = policy;
  for (auto& shard : shards_) shard->set_policy(policy);
}

Result<Bytes> ShardedVerifier::handle(std::uint64_t conn_id, ByteView message) {
  if (is_batch_frame(message)) return handle_batch(conn_id, message);
  return handle_on_shard(route_session(conn_id, is_msg0(message)), conn_id,
                         message);
}

Result<Bytes> ShardedVerifier::handle_on_shard(std::size_t shard,
                                               std::uint64_t session_id,
                                               ByteView frame) {
  // msg2 carries the evidence: the shard's appraisal is the expensive leg
  // of a handshake, so it gets its own span (detail = shard index) when a
  // lazy handshake runs on a traced lane's thread.
  std::optional<obs::ScopedSpan> appraise_span;
  if (is_msg2(frame))
    appraise_span.emplace(obs::Stage::RaAppraise,
                          static_cast<std::uint32_t>(shard));
  auto reply = shards_[shard]->handle(session_id, frame,
                                      config_.appraisal_latency_ns);
  appraise_span.reset();
  // A handshake is over once its msg2 is answered (msg3 or rejection) —
  // and a rejected msg0 never opened one. Either way the shard's depth
  // drops; the sticky mapping survives until the connection sweep.
  if (is_msg2(frame) || !reply.ok()) finish_session(session_id);
  return reply;
}

Result<Bytes> ShardedVerifier::handle_batch(std::uint64_t conn_id, ByteView message) {
  // Framing errors fail the whole exchange — a count/payload mismatch must
  // never half-parse into live sessions. Per-lane *protocol* failures, by
  // contrast, travel in the reply item status: the batch partially succeeds.
  auto items = decode_batch(message);
  if (!items.ok()) {
    batch_framing_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Result<Bytes>::err("ra verifier: " + items.error());
  }

  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    std::set<std::uint32_t>& open = lanes_[conn_id];
    for (const BatchItem& item : *items) open.insert(item.lane);
  }

  // Lanes grouped by shard, groups appraised CONCURRENTLY (one task per
  // shard group, the caller's thread taking the first group): each task
  // serialises on exactly one shard and locks it one handle() at a time —
  // no thread ever holds two shard mutexes, so the shard tier needs no
  // ordering. With one shard this degenerates to the plain sequential
  // walk on the caller's thread.
  struct Pending {
    std::size_t index = 0;  // reply slot (lane order is preserved)
    std::uint64_t id = 0;
    const BatchItem* item = nullptr;
  };
  // Route every lane first (sticky table hit, or least-deep shard for a
  // fresh msg0), then group by the PLACED shard — the walk below only ever
  // locks the shard a lane actually lives on.
  std::vector<std::vector<Pending>> groups(shards_.size());
  for (std::size_t i = 0; i < items->size(); ++i) {
    const BatchItem& item = (*items)[i];
    const std::uint64_t id = lane_session_id(conn_id, item.lane);
    groups[route_session(id, is_msg0(item.frame))].push_back(Pending{i, id, &item});
  }

  std::vector<BatchReplyItem> replies(items->size());
  const auto run_group = [&](std::size_t shard, const std::vector<Pending>& group) {
    for (const Pending& pending : group) {
      auto reply = handle_on_shard(shard, pending.id, pending.item->frame);
      BatchReplyItem out;
      out.lane = pending.item->lane;
      if (reply.ok()) {
        out.ok = true;
        out.payload = std::move(*reply);
      } else {
        out.error = reply.error();
      }
      replies[pending.index] = std::move(out);
    }
  };
  struct Occupied {
    std::size_t shard = 0;
    const std::vector<Pending>* group = nullptr;
  };
  std::vector<Occupied> occupied;
  for (std::size_t s = 0; s < groups.size(); ++s)
    if (!groups[s].empty()) occupied.push_back(Occupied{s, &groups[s]});
  // Per-exchange threading, bounded by min(lanes, shards) - 1 tasks and
  // gone when the exchange returns — the same thread-per-exchange
  // convention as Fabric::send_async, which every batch already rode in on.
  std::vector<std::future<void>> tasks;
  for (std::size_t g = 1; g < occupied.size(); ++g)
    tasks.push_back(std::async(std::launch::async, [&run_group, o = occupied[g]] {
      run_group(o.shard, *o.group);
    }));
  if (!occupied.empty()) run_group(occupied.front().shard, *occupied.front().group);
  for (std::future<void>& task : tasks) task.get();
  return encode_batch_reply(replies);
}

void ShardedVerifier::end_session(std::uint64_t conn_id) {
  std::set<std::uint32_t> open;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    const auto it = lanes_.find(conn_id);
    if (it != lanes_.end()) {
      open = std::move(it->second);
      lanes_.erase(it);
    }
  }
  // erase_route resolves the shard a session was actually PLACED on (the
  // depth-routed one when it exists, the hash shard otherwise) and retires
  // the sticky mapping.
  shards_[erase_route(conn_id)]->end_session(conn_id);
  for (const std::uint32_t lane : open) {
    const std::uint64_t id = lane_session_id(conn_id, lane);
    shards_[erase_route(id)]->end_session(id);
  }
}

std::vector<VerifierShardStats> ShardedVerifier::stats() const {
  std::vector<VerifierShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats());
  return stats;
}

std::uint64_t ShardedVerifier::handshakes_completed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->stats().handshakes;
  return total;
}

std::size_t ShardedVerifier::active_sessions() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->stats().active_sessions;
  return total;
}

}  // namespace watz::ra
