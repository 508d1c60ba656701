#include "gateway/client.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <thread>

namespace watz::gateway {

// -- GatewayClient -----------------------------------------------------------

Status GatewayClient::connect(const std::string& host, std::uint16_t port) {
  auto conn = fabric_.connect(host, port);
  if (!conn.ok()) return Status::err(conn.error());
  conn_ = *conn;
  connected_ = true;
  return {};
}

void GatewayClient::close() {
  // Retire the drain thread FIRST: it waits out every in-flight wire
  // exchange and fulfils every issued future/callback before exiting, so
  // async work is never abandoned mid-air by a teardown. Only then does
  // the connection go away.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_stop_ = true;
  }
  drain_cv_.notify_all();
  if (drain_thread_.joinable()) drain_thread_.join();
  drain_thread_ = std::thread();
  drain_stop_ = false;  // a later connect() may start async work again
  if (connected_) fabric_.close(conn_);
  connected_ = false;
}

void GatewayClient::enqueue_completion(std::future<Result<Bytes>> wire,
                                       std::function<void(Result<Bytes>)> complete) {
  std::lock_guard<std::mutex> lock(drain_mu_);
  completions_.push_back(Completion{std::move(wire), std::move(complete)});
  if (!drain_thread_.joinable())
    drain_thread_ = std::thread([this] { drain_loop(); });
  drain_cv_.notify_one();
}

void GatewayClient::drain_loop() {
  for (;;) {
    Completion completion;
    {
      std::unique_lock<std::mutex> lock(drain_mu_);
      drain_cv_.wait(lock, [&] { return drain_stop_ || !completions_.empty(); });
      if (completions_.empty()) return;  // stop requested and queue drained
      completion = std::move(completions_.front());
      completions_.pop_front();
    }
    // The wire wait and the decode/fulfil step both run OUTSIDE drain_mu_,
    // so the owning thread keeps issuing async work while this one waits.
    completion.complete(completion.wire.get());
  }
}

Result<Bytes> GatewayClient::call(ByteView request) {
  if (!connected_) return Result<Bytes>::err("gateway client: not connected");
  auto response = fabric_.send_recv(conn_, request);
  if (!response.ok()) return response;
  return open_envelope(*response);
}

std::uint64_t GatewayClient::next_jitter() {
  // xorshift64: cheap, deterministic per client (seeded at construction),
  // good enough to decorrelate retry storms across client threads.
  std::uint64_t x = jitter_state_;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  jitter_state_ = x;
  return x;
}

void GatewayClient::backoff_sleep(int attempt) {
  std::uint64_t window = backoff_.base_ns;
  for (int i = 0; i < attempt && window < backoff_.cap_ns; ++i) window <<= 1;
  if (window > backoff_.cap_ns) window = backoff_.cap_ns;
  // Full jitter: sleep uniformly in (0, window] so retries from many
  // clients spread out instead of re-colliding in lockstep.
  const std::uint64_t sleep_ns = next_jitter() % window + 1;
  std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
}

Result<AttachResponse> GatewayClient::attach(const std::string& client_name) {
  auto payload = call(AttachRequest{client_name}.encode());
  if (!payload.ok()) return Result<AttachResponse>::err(payload.error());
  return AttachResponse::decode(*payload);
}

Result<AttachBatchResponse> GatewayClient::attach_all(
    const std::vector<std::string>& clients) {
  using R = Result<AttachBatchResponse>;
  if (clients.empty()) return R::err("gateway client: empty attach batch");

  // Chunk, then pipeline every chunk as a concurrent exchange on the one
  // connection: wall-clock is the slowest chunk, and the gateway sees the
  // chunks as parallel ATTACH_BATCH requests fanning across its workers.
  std::vector<Bytes> frames;
  for (std::size_t start = 0; start < clients.size(); start += kAttachBatchChunk) {
    AttachBatchRequest chunk;
    const std::size_t end = std::min(clients.size(), start + kAttachBatchChunk);
    chunk.clients.assign(clients.begin() + static_cast<std::ptrdiff_t>(start),
                         clients.begin() + static_cast<std::ptrdiff_t>(end));
    frames.push_back(chunk.encode());
  }
  if (!connected_) return R::err("gateway client: not connected");
  std::vector<Result<Bytes>> replies = fabric_.exchange_all(conn_, std::move(frames));

  // Per-chunk failures become per-result errors at that chunk's indices:
  // sibling chunks may already have attached server-side, and swallowing
  // their session ids would leak sessions the caller can never detach.
  // (Partial success is the documented contract — per lane AND per chunk.)
  AttachBatchResponse merged;
  for (std::size_t c = 0; c < replies.size(); ++c) {
    const std::size_t chunk_size =
        std::min(kAttachBatchChunk, clients.size() - c * kAttachBatchChunk);
    const auto fail_chunk = [&](const std::string& error) {
      for (std::size_t i = 0; i < chunk_size; ++i) {
        AttachBatchResult failed;
        failed.error = error;
        merged.results.push_back(std::move(failed));
      }
    };
    if (!replies[c].ok()) {
      fail_chunk(replies[c].error());
      continue;
    }
    auto payload = open_envelope(*replies[c]);
    if (!payload.ok()) {
      fail_chunk(payload.error());
      continue;
    }
    auto chunk = AttachBatchResponse::decode(*payload);
    if (!chunk.ok() || chunk->results.size() != chunk_size) {
      fail_chunk(chunk.ok() ? "gateway client: attach batch result count mismatch"
                            : chunk.error());
      continue;
    }
    merged.ra_fabric_exchanges += chunk->ra_fabric_exchanges;
    for (AttachBatchResult& result : chunk->results)
      merged.results.push_back(std::move(result));
  }
  return merged;
}

Result<LoadModuleResponse> GatewayClient::load_module(std::uint64_t session_id,
                                                      ByteView binary) {
  LoadModuleRequest request;
  request.session_id = session_id;
  request.binary.assign(binary.begin(), binary.end());
  auto payload = call(request.encode());
  if (!payload.ok()) return Result<LoadModuleResponse>::err(payload.error());
  return LoadModuleResponse::decode(*payload);
}

// -- async client API --------------------------------------------------------

namespace {

/// Opens the envelope of an async wire reply and decodes the payload,
/// fulfilling `promise` with the result — the tail every *_async call
/// shares, run on the client's drain thread.
template <typename T>
void fulfil_async(const std::shared_ptr<std::promise<Result<T>>>& promise,
                  const Result<Bytes>& wire,
                  Result<T> (*decode)(ByteView)) {
  if (!wire.ok()) {
    promise->set_value(Result<T>::err(wire.error()));
    return;
  }
  auto payload = open_envelope(*wire);
  if (!payload.ok()) {
    promise->set_value(Result<T>::err(payload.error()));
    return;
  }
  promise->set_value(decode(*payload));
}

}  // namespace

std::future<Result<AttachResponse>> GatewayClient::attach_async(
    const std::string& client_name) {
  auto promise = std::make_shared<std::promise<Result<AttachResponse>>>();
  auto future = promise->get_future();
  if (!connected_) {
    promise->set_value(Result<AttachResponse>::err("gateway client: not connected"));
    return future;
  }
  enqueue_completion(fabric_.send_async(conn_, AttachRequest{client_name}.encode()),
                     [promise](Result<Bytes> wire) {
                       fulfil_async(promise, wire, &AttachResponse::decode);
                     });
  return future;
}

std::future<Result<LoadModuleResponse>> GatewayClient::load_async(
    std::uint64_t session_id, Bytes binary) {
  auto promise = std::make_shared<std::promise<Result<LoadModuleResponse>>>();
  auto future = promise->get_future();
  if (!connected_) {
    promise->set_value(
        Result<LoadModuleResponse>::err("gateway client: not connected"));
    return future;
  }
  LoadModuleRequest request;
  request.session_id = session_id;
  request.binary = std::move(binary);
  enqueue_completion(fabric_.send_async(conn_, request.encode()),
                     [promise](Result<Bytes> wire) {
                       fulfil_async(promise, wire, &LoadModuleResponse::decode);
                     });
  return future;
}

// -- invoke ------------------------------------------------------------------

namespace {

constexpr std::size_t kChunk = GatewayClient::kInvokeBatchChunk;

/// Encodes one chunk of requests: a lone request as an INVOKE frame, more
/// as an INVOKE_BATCH frame whose lane ids are positions within the chunk.
Bytes encode_chunk(std::span<const InvokeRequest> chunk) {
  if (chunk.size() == 1) return chunk.front().encode();
  InvokeBatchRequest batch;
  batch.lanes.reserve(chunk.size());
  for (std::size_t i = 0; i < chunk.size(); ++i)
    batch.lanes.push_back(
        InvokeBatchRequest::Lane{static_cast<std::uint32_t>(i), chunk[i]});
  return batch.encode();
}

/// Encodes `requests` as one frame per chunk of kInvokeBatchChunk.
std::vector<Bytes> encode_chunks(const std::vector<InvokeRequest>& requests) {
  std::vector<Bytes> frames;
  for (std::size_t base = 0; base < requests.size(); base += kChunk)
    frames.push_back(encode_chunk(std::span(requests).subspan(
        base, std::min(kChunk, requests.size() - base))));
  return frames;
}

/// Maps one chunk's wire reply onto its requests' results through
/// `deliver(index_within_chunk, result)`, exactly once per index. A
/// chunk-level failure (transport, envelope, malformed frame) becomes an
/// error at every index the chunk carried: sibling chunks may already
/// have executed server-side, so swallowing the whole batch would lose
/// their results.
template <typename Deliver>
void deliver_chunk(const Result<Bytes>& reply, std::size_t chunk_size,
                   Deliver&& deliver) {
  using R = Result<InvokeResponse>;
  const auto fail_chunk = [&](const std::string& error) {
    for (std::size_t i = 0; i < chunk_size; ++i)
      deliver(i, R::err(error));
  };
  if (!reply.ok()) {
    fail_chunk(reply.error());
    return;
  }
  auto payload = open_envelope(*reply);
  if (!payload.ok()) {
    fail_chunk(payload.error());
    return;
  }
  if (chunk_size == 1) {
    deliver(0, InvokeResponse::decode(*payload));
    return;
  }
  auto chunk = InvokeBatchResponse::decode(*payload);
  if (!chunk.ok() || chunk->results.size() != chunk_size) {
    fail_chunk(chunk.ok() ? "gateway client: invoke batch result count mismatch"
                          : chunk.error());
    return;
  }
  std::vector<bool> delivered(chunk_size, false);
  for (InvokeBatchResult& result : chunk->results) {
    // Lane ids were issued as positions within the chunk; an id the chunk
    // never opened (or a repeat — the decoder already rejects those) must
    // not scribble over a sibling's slot.
    if (result.lane >= chunk_size || delivered[result.lane]) continue;
    delivered[result.lane] = true;
    deliver(result.lane, result.ok() ? R(std::move(result.result)) : R::err(result.error));
  }
  for (std::size_t i = 0; i < chunk_size; ++i)
    if (!delivered[i])
      deliver(i, R::err("gateway client: invoke batch reply missing lane"));
}

}  // namespace

Result<InvokeResponse> GatewayClient::invoke(const InvokeRequest& request) {
  // Synchronous on the calling thread: no hop through the drain thread.
  const Bytes frame = encode_chunk({&request, 1});
  for (int attempt = 0;; ++attempt) {
    std::optional<Result<InvokeResponse>> result;
    deliver_chunk(connected_ ? fabric_.send_recv(conn_, frame)
                             : Result<Bytes>::err("gateway client: not connected"),
                  1, [&](std::size_t, Result<InvokeResponse> r) {
                    result.emplace(std::move(r));
                  });
    // QUEUE_FULL is backpressure, not failure: back off (jittered, growing)
    // and re-admit. Anything else is final.
    if (result->ok() || !is_queue_full(result->error()) ||
        attempt >= backoff_.max_retries)
      return std::move(*result);
    backoff_sleep(attempt);
  }
}

std::future<Result<InvokeResponse>> GatewayClient::invoke_async(
    const InvokeRequest& request) {
  auto promise = std::make_shared<std::promise<Result<InvokeResponse>>>();
  auto future = promise->get_future();
  if (!connected_) {
    promise->set_value(Result<InvokeResponse>::err("gateway client: not connected"));
    return future;
  }
  enqueue_completion(fabric_.send_async(conn_, encode_chunk({&request, 1})),
                     [promise](Result<Bytes> wire) {
                       deliver_chunk(wire, 1,
                                     [&](std::size_t, Result<InvokeResponse> r) {
                                       promise->set_value(std::move(r));
                                     });
                     });
  return future;
}

std::vector<Result<InvokeResponse>> GatewayClient::invoke_all(
    const std::vector<InvokeRequest>& requests) {
  std::vector<Result<InvokeResponse>> results(
      requests.size(), Result<InvokeResponse>::err("gateway client: not connected"));
  if (requests.empty() || !connected_) return results;
  // Chunk, then pipeline every chunk as a concurrent exchange on the one
  // connection: wall-clock is the slowest chunk, and the gateway fans each
  // chunk's lanes across its workers in one admission pass.
  std::vector<Result<Bytes>> replies =
      fabric_.exchange_all(conn_, encode_chunks(requests));
  for (std::size_t c = 0; c < replies.size(); ++c) {
    const std::size_t base = c * kChunk;
    deliver_chunk(replies[c], std::min(kChunk, requests.size() - base),
                  [&](std::size_t i, Result<InvokeResponse> result) {
                    results[base + i] = std::move(result);
                  });
  }
  return results;
}

Status GatewayClient::invoke_batch_async(const std::vector<InvokeRequest>& requests,
                                         InvokeBatchCallback on_complete) {
  if (requests.empty()) return Status::err("gateway client: empty invoke batch");
  if (!connected_) return Status::err("gateway client: not connected");
  if (!on_complete) return Status::err("gateway client: null completion callback");
  // Every chunk rides its own send_async exchange; the drain thread maps
  // each reply back to per-request callbacks as it lands. Nothing here
  // blocks on the gateway.
  std::vector<Bytes> frames = encode_chunks(requests);
  for (std::size_t c = 0; c < frames.size(); ++c) {
    const std::size_t base = c * kChunk;
    const std::size_t chunk_size = std::min(kChunk, requests.size() - base);
    enqueue_completion(
        fabric_.send_async(conn_, std::move(frames[c])),
        [on_complete, base, chunk_size](Result<Bytes> wire) {
          deliver_chunk(wire, chunk_size,
                        [&](std::size_t i, Result<InvokeResponse> result) {
                          on_complete(base + i, std::move(result));
                        });
        });
  }
  return {};
}

Result<GatewayStats> GatewayClient::stats(std::uint64_t session_id, bool detail) {
  StatsRequest request;
  request.session_id = session_id;
  request.detail = detail;
  auto payload = call(request.encode());
  if (!payload.ok()) return Result<GatewayStats>::err(payload.error());
  return GatewayStats::decode(*payload);
}

Status GatewayClient::detach(std::uint64_t session_id) {
  auto payload = call(DetachRequest{session_id}.encode());
  return payload.ok() ? Status{} : Status::err(payload.error());
}

}  // namespace watz::gateway
