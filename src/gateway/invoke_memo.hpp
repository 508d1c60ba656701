// The invoke result memo: a bounded, TTL'd map from the invoke
// dedup key (measurement + entry + args + heap) to the most recent
// successful response, remembering WHICH device produced it at WHAT boot
// count and FOR WHICH session.
//
// Two duties since the chaos work:
//
//   * Amortisation: a twin admitted within the TTL by a session trusting
//     the producing device rides the memoised result instead of entering
//     a sandbox.
//
//   * Replay absorption (exactly-once under failure): every invoke lane
//     consults the memo before admission, so a client
//     retrying a request whose RESPONSE was lost in flight (the fabric
//     stall fault — the sandbox ran, the reply didn't arrive) redeems the
//     recorded result instead of executing again. The producer_session
//     field is what makes this safe across reboots: a session redeeming
//     its OWN result needs no evidence-freshness gate (the result was
//     produced under evidence that was fresh at execution time, and the
//     TTL bounds the window), whereas a boot-count bump would fail the
//     has_fresh gate and silently re-execute the lane.
//
// Eviction is hot-aware: the victim is the entry with the FEWEST hits,
// stalest last-touch breaking ties — a measurement the fleet keeps
// re-deduplicating stays resident while one-shot results cycle out
// (previously eviction was purely stalest-first, so a burst of one-shot
// invokes could flush the hottest entry).
//
// Thread safety: every method locks the internal mutex; the gateway's
// evidence trust gate runs OUTSIDE it (lookup returns a copy, note_hit
// re-locks once the gate passes).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "gateway/protocol.hpp"

namespace watz::gateway {

class InvokeMemo {
 public:
  struct Entry {
    InvokeResponse response;
    std::string device;                  ///< hostname that executed
    std::uint64_t boot_count = 0;        ///< at execution (freshness gate)
    std::uint64_t producer_session = 0;  ///< session whose invoke ran
    std::uint64_t stamp_ns = 0;          ///< execution time (TTL anchor)
  };

  explicit InvokeMemo(std::size_t capacity) : capacity_(capacity) {}

  /// TTL-checked copy of the entry under `key`; expired entries are
  /// erased en passant. No hit accounting here — the caller's trust gate
  /// decides whether this becomes a hit (note_hit) or a miss.
  std::optional<Entry> lookup(const std::string& key, std::uint64_t now_ns,
                              std::uint64_t ttl_ns);

  /// Records a served hit: bumps the entry's heat and freshens its
  /// last-touch, both of which the eviction order keys on.
  void note_hit(const std::string& key, std::uint64_t now_ns);

  /// Inserts/overwrites the entry under `key`. At capacity the entry with
  /// the fewest hits is evicted, stalest last-touch breaking ties.
  void store(const std::string& key, Entry entry, std::uint64_t now_ns);

  std::size_t size() const;
  bool contains(const std::string& key) const;

 private:
  struct Slot {
    Entry entry;
    std::uint64_t hits = 0;
    std::uint64_t last_touch = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<std::string, Slot> map_;
};

}  // namespace watz::gateway
