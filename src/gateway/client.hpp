// Client side of the attested execution gateway: frames requests onto the
// fabric, opens response envelopes, and drives the async completion model.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gateway/protocol.hpp"
#include "net/fabric.hpp"

namespace watz::gateway {

/// Client-side convenience wrapper: frames requests, opens envelopes.
///
/// Threading: one instance per client thread — the blocking calls are not
/// locked against each other, but any number of GatewayClients may drive
/// the same gateway concurrently. The *_async calls are the exception:
/// they are safe to issue from the owning thread while earlier async work
/// is still in flight, because completions are serviced by ONE internal
/// drain thread (started lazily on the first async call, joined by
/// close()/the destructor after every issued future and callback has been
/// fulfilled). Completion callbacks and future fulfilment run on that
/// drain thread, in issue order, never concurrently with each other — a
/// callback must not call back into this client.
class GatewayClient {
 public:
  /// Retry policy for QUEUE_FULL backpressure: exponential backoff with
  /// full jitter (deterministic xorshift stream per client), replacing the
  /// old busy-poll. `max_retries` bounds invoke()'s transparent retries.
  struct BackoffConfig {
    int max_retries = 8;
    std::uint64_t base_ns = 200'000;     ///< first sleep; doubles per retry
    std::uint64_t cap_ns = 10'000'000;   ///< sleep ceiling
  };

  explicit GatewayClient(net::Fabric& fabric) : fabric_(fabric) {}
  ~GatewayClient() { close(); }
  GatewayClient(const GatewayClient&) = delete;
  GatewayClient& operator=(const GatewayClient&) = delete;

  Status connect(const std::string& host, std::uint16_t port);
  void close();
  void set_backoff(BackoffConfig backoff) { backoff_ = backoff; }

  /// Per-item completion of invoke_batch_async: the request's index in
  /// the submitted vector plus its result, delivered on the drain thread.
  using InvokeBatchCallback =
      std::function<void(std::size_t index, Result<InvokeResponse> result)>;

  Result<AttachResponse> attach(const std::string& client_name);
  /// Batched attach: one ATTACH_BATCH op per chunk of kAttachBatchChunk
  /// names, chunks pipelined concurrently over the connection
  /// (net::Fabric::exchange_all), results spliced back in order. The call
  /// succeeds when the wire did — inspect each AttachBatchResult for
  /// per-session verdicts (partial success is expected behaviour).
  Result<AttachBatchResponse> attach_all(const std::vector<std::string>& clients);
  Result<LoadModuleResponse> load_module(std::uint64_t session_id, ByteView binary);

  // -- invoke ----------------------------------------------------------------
  // Four invoke methods over one chunk codec: a chunk of one request
  // crosses the wire as an INVOKE frame, a larger chunk (up to
  // kInvokeBatchChunk) as an INVOKE_BATCH frame, and every reply maps back
  // onto one Result per request.

  /// Invokes on the calling thread, transparently absorbing up to
  /// max_retries QUEUE_FULL rejections with jittered backoff. A still-full
  /// fleet surfaces the final QUEUE_FULL error (is_queue_full()).
  Result<InvokeResponse> invoke(const InvokeRequest& request);
  /// Batched invoke: one wire exchange per chunk of kInvokeBatchChunk
  /// requests (chunks pipelined concurrently via Fabric::exchange_all),
  /// one result per request in order — O(1) wire exchanges in the batch
  /// size. Partial success is the contract: the call succeeds when the
  /// wire did; inspect each Result.
  std::vector<Result<InvokeResponse>> invoke_all(
      const std::vector<InvokeRequest>& requests);

  // -- async API -------------------------------------------------------------
  // Future-returning counterparts of the blocking calls, built on
  // Fabric::send_async: the wire exchange runs concurrently and the
  // decoded response arrives through the future, fulfilled by the
  // client's drain thread. QUEUE_FULL is NOT absorbed here — an async
  // caller owns its own retry policy, so backpressure surfaces through
  // the future (is_queue_full()).
  std::future<Result<AttachResponse>> attach_async(const std::string& client_name);
  std::future<Result<LoadModuleResponse>> load_async(std::uint64_t session_id,
                                                     Bytes binary);
  std::future<Result<InvokeResponse>> invoke_async(const InvokeRequest& request);
  /// Fully non-blocking batch: chunks `requests` like invoke_all,
  /// fires every chunk as a concurrent Fabric::send_async exchange and
  /// returns immediately; `on_complete` fires once per request (index +
  /// result) on the drain thread. The chunks EXECUTE concurrently but
  /// their callbacks are delivered in chunk-issue order (the drain thread
  /// is FIFO), so one slow early chunk delays delivery — not execution —
  /// of later ones; total completion time is still the slowest chunk. A
  /// chunk-level transport failure completes every index of that chunk
  /// with the error. Fails fast (without issuing anything) when not
  /// connected or the batch is empty.
  Status invoke_batch_async(const std::vector<InvokeRequest>& requests,
                            InvokeBatchCallback on_complete);

  /// `detail` asks the gateway to include its slow-invoke ring.
  Result<GatewayStats> stats(std::uint64_t session_id, bool detail = false);
  Status detach(std::uint64_t session_id);

  /// Names one ATTACH_BATCH frame carries; attach_all pipelines larger
  /// requests as concurrent chunk exchanges.
  static constexpr std::size_t kAttachBatchChunk = 32;
  /// Invocations one wire frame carries; invoke_all and
  /// invoke_batch_async pipeline larger batches as concurrent chunks.
  static constexpr std::size_t kInvokeBatchChunk = 32;

 private:
  Result<Bytes> call(ByteView request);
  /// Sleeps the jittered backoff for retry `attempt` (0-based).
  void backoff_sleep(int attempt);
  std::uint64_t next_jitter();

  /// One pending async exchange: the wire future plus the decode/fulfil
  /// step the drain thread runs when it lands.
  struct Completion {
    std::future<Result<Bytes>> wire;
    std::function<void(Result<Bytes>)> complete;
  };
  /// Hands a wire future to the drain thread (started lazily).
  void enqueue_completion(std::future<Result<Bytes>> wire,
                          std::function<void(Result<Bytes>)> complete);
  /// Drain loop: pops completions in issue order, waits for each wire
  /// exchange OUTSIDE the queue lock, runs the completion step. On stop it
  /// drains everything still queued before exiting, so no issued future
  /// or callback is ever abandoned.
  void drain_loop();

  net::Fabric& fabric_;
  std::uint64_t conn_ = 0;
  bool connected_ = false;
  BackoffConfig backoff_{};
  /// xorshift64 state; `this` decorrelates sibling clients' retry storms.
  std::uint64_t jitter_state_ =
      0x9E3779B97F4A7C15ull ^ reinterpret_cast<std::uint64_t>(this);

  /// Completion-drain machinery (see class comment for the thread model).
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::deque<Completion> completions_;
  bool drain_stop_ = false;
  std::thread drain_thread_;
};

}  // namespace watz::gateway
