// Numeric and memory semantics shared by the interpreter and the AOT
// executor. One implementation of every arithmetic rule keeps the two
// execution modes bit-identical — a property the tests assert.
#pragma once

#include <cstdint>
#include <vector>

#include "wasm/instance.hpp"
#include "wasm/opcodes.hpp"

namespace watz::wasm {

/// Executes a pure numeric/parametric opcode against the operand stack.
/// Handles comparison, arithmetic, conversion and sign-extension opcodes
/// (0x45..0xc4 except control/memory/const). Traps throw TrapException.
void exec_numeric(std::uint16_t op, std::vector<std::uint64_t>& stack, std::size_t& sp);

/// Executes a 0xFC-prefixed saturating truncation (sub-opcodes 0..7).
void exec_trunc_sat(std::uint32_t sub_op, std::vector<std::uint64_t>& stack,
                    std::size_t& sp);

/// Loads per `op` (one of the 14 load opcodes) at addr+offset, pushing the
/// result. Traps on out-of-bounds.
std::uint64_t mem_load(Memory& mem, std::uint8_t op, std::uint32_t addr,
                       std::uint64_t offset);

/// Stores `value` per `op` (one of the 9 store opcodes) at addr+offset.
void mem_store(Memory& mem, std::uint8_t op, std::uint32_t addr, std::uint64_t offset,
               std::uint64_t value);

[[noreturn]] inline void trap(std::string message) { throw TrapException{std::move(message)}; }

/// Calls the host function in `slot`, for both executors: pops its params
/// off the operand stack and pushes its results. Traps on a host error or
/// a result count that disagrees with the function type.
void call_host(Instance& inst, const FuncSlot& slot, std::vector<std::uint64_t>& stack,
               std::size_t& sp);

/// RAII span covering one guest entry — the time actually spent running
/// guest code, common to the interpreter and the AOT executor (constructed
/// in Instance::invoke_index, so both modes report identically). Emits an
/// obs Guest span when the calling thread carries a trace; one
/// thread-local load otherwise. Out-of-line so the executor does not pull
/// the obs headers into every translation unit.
class GuestSpan {
 public:
  GuestSpan() noexcept;
  ~GuestSpan();
  GuestSpan(const GuestSpan&) = delete;
  GuestSpan& operator=(const GuestSpan&) = delete;

 private:
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace watz::wasm
