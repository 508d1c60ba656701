#include "gateway/session_manager.hpp"

namespace watz::gateway {

namespace {

/// The one freshness rule (has_fresh, reuse_fresh, renewal_candidates):
/// evidence taken at `boot_count` and at most `max_age_ns` old at `now_ns`.
bool fresh(const DeviceAttestation& cached, std::uint64_t boot_count,
           std::uint64_t now_ns, std::uint64_t max_age_ns) {
  return cached.boot_count == boot_count && now_ns - cached.attested_at_ns <= max_age_ns;
}

}  // namespace

SessionPtr SessionManager::attach(std::string client, std::uint64_t now_ns) {
  auto session = std::make_shared<Session>();
  session->client = std::move(client);
  session->created_at_ns = now_ns;
  std::lock_guard<std::mutex> lock(mu_);
  session->id = next_id_++;
  sessions_[session->id] = session;
  sessions_total_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

SessionPtr SessionManager::find(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionManager::detach(std::uint64_t session_id) {
  SessionPtr session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return false;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Queued/in-flight work holding the shared_ptr observes the flag and
  // fails instead of executing against a detached session.
  session->closed.store(true, std::memory_order_release);
  return true;
}

bool SessionManager::reuse_fresh(Session& session, const std::string& device_name,
                                 std::uint64_t boot_count, std::uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(session.mu);
  const auto it = session.attested.find(device_name);
  if (it == session.attested.end()) return false;
  if (fresh(it->second, boot_count, now_ns, policy_.evidence_ttl_ns)) {
    handshakes_reused_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  session.attested.erase(it);  // stale: the caller re-proves
  return false;
}

bool SessionManager::has_fresh(Session& session, const std::string& device_name,
                               std::uint64_t boot_count,
                               std::uint64_t now_ns) const {
  if (session.closed.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(session.mu);
  const auto it = session.attested.find(device_name);
  return it != session.attested.end() &&
         fresh(it->second, boot_count, now_ns, policy_.evidence_ttl_ns);
}

std::vector<SessionPtr> SessionManager::renewal_candidates(
    const std::string& device_name, std::uint64_t boot_count, std::uint64_t now_ns,
    std::uint64_t max_age_ns) {
  // Snapshot the table first, inspect each session after releasing the
  // table lock: mu_ and session.mu never nest.
  std::vector<SessionPtr> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) all.push_back(session);
  }
  std::vector<SessionPtr> due;
  for (const SessionPtr& session : all) {
    if (session->closed.load(std::memory_order_acquire)) continue;
    std::lock_guard<std::mutex> lock(session->mu);
    const auto it = session->attested.find(device_name);
    if (it == session->attested.end()) continue;
    // A stale boot count is not renewable evidence — the next invoke must
    // run a full fresh handshake anyway (and will, lazily).
    if (it->second.boot_count != boot_count) continue;
    if (fresh(it->second, boot_count, now_ns, max_age_ns)) continue;
    due.push_back(session);
  }
  return due;
}

Status SessionManager::record_attestation(Session& session,
                                          const std::string& device_name,
                                          std::uint64_t boot_count,
                                          std::uint64_t now_ns,
                                          attestation::Evidence evidence) {
  std::lock_guard<std::mutex> lock(session.mu);
  if (session.closed.load(std::memory_order_acquire))
    return Status::err("gateway: session detached");
  handshakes_run_.fetch_add(1, std::memory_order_relaxed);
  session.attested[device_name] =
      DeviceAttestation{std::move(evidence), now_ns, boot_count};
  return {};
}

}  // namespace watz::gateway
