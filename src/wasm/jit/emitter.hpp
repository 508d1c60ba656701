// Minimal x86-64 machine-code emitter for the baseline JIT tier.
//
// Plain-struct encodings appended to a byte buffer: REX prefixes, ModRM/SIB
// addressing and rel32 control flow — just enough of the ISA for the
// codegen in codegen.cpp. No external dependencies, no assembler: every
// helper writes the exact bytes of one instruction form, so the emitted
// stream is auditable against the Intel SDM opcode tables. Labels are the
// caller's problem (codegen records patch sites and back-patches rel32 /
// disp32 fields after layout), which keeps this layer stateless.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace watz::wasm::jit {

/// Register numbers as encoded in ModRM (REX.B/R extends to r8-r15).
enum Reg : std::uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Condition codes (the low nibble of the 0F 8x / 0F 9x opcodes).
enum Cond : std::uint8_t {
  CC_O = 0x0,
  CC_NO = 0x1,
  CC_B = 0x2,   // unsigned <
  CC_AE = 0x3,  // unsigned >=
  CC_E = 0x4,
  CC_NE = 0x5,
  CC_BE = 0x6,  // unsigned <=
  CC_A = 0x7,   // unsigned >
  CC_S = 0x8,
  CC_NS = 0x9,
  CC_P = 0xa,   // parity (unordered after ucomis)
  CC_NP = 0xb,  // no parity (ordered)
  CC_L = 0xc,   // signed <
  CC_GE = 0xd,  // signed >=
  CC_LE = 0xe,  // signed <=
  CC_G = 0xf,   // signed >
};

class Emitter {
 public:
  std::vector<std::uint8_t> buf;

  std::size_t size() const noexcept { return buf.size(); }
  void u8(std::uint8_t b) { buf.push_back(b); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// Back-patches a 32-bit little-endian field written earlier.
  void patch32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  // -- prefixes / ModRM --------------------------------------------------------

  /// Emits a REX prefix when any bit is needed (or forced by `w`).
  void rex(bool w, std::uint8_t reg, std::uint8_t index, std::uint8_t base) {
    const std::uint8_t r = (w ? 0x8 : 0) | ((reg & 8) >> 1) | ((index & 8) >> 2) |
                           ((base & 8) >> 3);
    if (r || w) u8(0x40 | r);
  }

  /// REX for an instruction with the byte-register operand `byte`: spl,
  /// bpl, sil and dil (4..7) are only addressable with a REX prefix.
  void rex8(std::uint8_t byte, std::uint8_t reg, std::uint8_t index, std::uint8_t base) {
    const std::uint8_t r = ((reg & 8) >> 1) | ((index & 8) >> 2) | ((base & 8) >> 3);
    if (r || (byte >= 4 && byte < 8)) u8(0x40 | r);
  }

  void modrm(std::uint8_t mod, std::uint8_t reg, std::uint8_t rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }

  /// ModRM (+SIB +disp) for a [base + index*scale + disp] memory operand.
  /// `index` = 0xff for none. Handles the RSP/R12 SIB requirement and the
  /// RBP/R13 no-mod-00 rule.
  void mem(std::uint8_t reg, Reg base, std::uint8_t index, std::uint8_t scale_log2,
           std::int32_t disp) {
    const bool need_sib = index != 0xff || (base & 7) == 4;
    const bool no_disp0 = (base & 7) == 5;  // rbp/r13: mod 00 means rip/disp32
    std::uint8_t mod;
    if (disp == 0 && !no_disp0)
      mod = 0;
    else if (disp >= -128 && disp <= 127)
      mod = 1;
    else
      mod = 2;
    if (need_sib) {
      modrm(mod, reg, 4);
      u8(static_cast<std::uint8_t>((scale_log2 << 6) | ((index == 0xff ? 4 : (index & 7)) << 3) |
                                   (base & 7)));
    } else {
      modrm(mod, reg, base);
    }
    if (mod == 1)
      u8(static_cast<std::uint8_t>(disp));
    else if (mod == 2)
      u32(static_cast<std::uint32_t>(disp));
  }

  // -- moves -------------------------------------------------------------------

  void mov_ri64(Reg r, std::uint64_t imm) {  // movabs r64, imm64
    rex(true, 0, 0, r);
    u8(static_cast<std::uint8_t>(0xB8 | (r & 7)));
    u64(imm);
  }
  void mov_ri32(Reg r, std::uint32_t imm) {  // mov r32, imm32 (zero-extends)
    rex(false, 0, 0, r);
    u8(static_cast<std::uint8_t>(0xB8 | (r & 7)));
    u32(imm);
  }
  /// Shortest mov of a 64-bit constant: zero-extending imm32, sign-extending
  /// imm32, else movabs. Never `xor` (constants materialise between a
  /// compare and the jcc/cmov consuming its flags).
  void mov_imm(Reg r, std::uint64_t imm) {
    if (imm <= 0xffffffffull) {
      mov_ri32(r, static_cast<std::uint32_t>(imm));
    } else if (static_cast<std::int64_t>(imm) ==
               static_cast<std::int32_t>(static_cast<std::uint32_t>(imm))) {
      rex(true, 0, 0, r);  // mov r/m64, imm32 (sign-extended)
      u8(0xC7);
      modrm(3, 0, r);
      u32(static_cast<std::uint32_t>(imm));
    } else {
      mov_ri64(r, imm);
    }
  }
  void mov_rr(Reg dst, Reg src, bool wide = true) {  // mov r64/r32, r64/r32
    rex(wide, src, 0, dst);
    u8(0x89);
    modrm(3, src, dst);
  }
  /// mov r64, [base + disp]
  void load64(Reg dst, Reg base, std::int32_t disp) {
    rex(true, dst, 0, base);
    u8(0x8B);
    mem(dst, base, 0xff, 0, disp);
  }
  /// mov r32, [base + disp] — zero-extends into the full register.
  void load32(Reg dst, Reg base, std::int32_t disp) {
    rex(false, dst, 0, base);
    u8(0x8B);
    mem(dst, base, 0xff, 0, disp);
  }
  /// mov [base + disp], r64
  void store64(Reg base, std::int32_t disp, Reg src) {
    rex(true, src, 0, base);
    u8(0x89);
    mem(src, base, 0xff, 0, disp);
  }
  /// Sized load from [base + index + disp] with sign/zero extension.
  /// width_log2: 0/1/2/3 bytes; sign extends to 32 (`wide`=false) or 64.
  void load_mem_extend(Reg dst, Reg base, Reg index, std::int32_t disp,
                       std::uint8_t width_log2, bool sign, bool wide) {
    switch (width_log2) {
      case 0:
        rex(sign ? wide : false, dst, index, base);
        u8(0x0F);
        u8(sign ? 0xBE : 0xB6);
        break;
      case 1:
        rex(sign ? wide : false, dst, index, base);
        u8(0x0F);
        u8(sign ? 0xBF : 0xB7);
        break;
      case 2:
        if (sign) {
          rex(true, dst, index, base);  // movsxd r64, r/m32
          u8(0x63);
        } else {
          rex(false, dst, index, base);  // mov r32, r/m32
          u8(0x8B);
        }
        break;
      default:
        rex(true, dst, index, base);
        u8(0x8B);
        break;
    }
    mem(dst, base, index, 0, disp);
  }
  /// Sized store of the low bytes of `src` to [base + index + disp].
  void store_mem(Reg base, Reg index, std::int32_t disp, std::uint8_t width_log2,
                 Reg src) {
    switch (width_log2) {
      case 0:
        rex8(src, src, index, base);
        u8(0x88);
        break;
      case 1:
        u8(0x66);
        rex(false, src, index, base);
        u8(0x89);
        break;
      case 2:
        rex(false, src, index, base);
        u8(0x89);
        break;
      default:
        rex(true, src, index, base);
        u8(0x89);
        break;
    }
    mem(src, base, index, 0, disp);
  }
  /// mov r32, [base + index*4] (zero-extends) — br_table offset fetch.
  void load32_scaled4(Reg dst, Reg base, Reg index) {
    rex(false, dst, index, base);
    u8(0x8B);
    mem(dst, base, index, 2, 0);
  }

  // -- ALU ---------------------------------------------------------------------

  /// Two-register ALU op (MR form: dst = dst OP src). `op` is the 32-bit
  /// opcode byte: add 01, or 09, and 21, sub 29, xor 31, cmp 39.
  void alu_rr(std::uint8_t op, Reg dst, Reg src, bool wide) {
    rex(wide, src, 0, dst);
    u8(op);
    modrm(3, src, dst);
  }
  void add_rr(Reg dst, Reg src, bool wide = true) { alu_rr(0x01, dst, src, wide); }
  void sub_rr(Reg dst, Reg src, bool wide = true) { alu_rr(0x29, dst, src, wide); }
  void and_rr(Reg dst, Reg src, bool wide = true) { alu_rr(0x21, dst, src, wide); }
  void or_rr(Reg dst, Reg src, bool wide = true) { alu_rr(0x09, dst, src, wide); }
  void xor_rr(Reg dst, Reg src, bool wide = true) { alu_rr(0x31, dst, src, wide); }
  void cmp_rr(Reg a, Reg b, bool wide = true) { alu_rr(0x39, a, b, wide); }
  void test_rr(Reg a, Reg b, bool wide = true) {
    rex(wide, b, 0, a);
    u8(0x85);
    modrm(3, b, a);
  }
  /// ALU with immediate (81 /ext id or 83 /ext ib). ext: add 0, sub 5, cmp 7.
  void alu_ri(std::uint8_t ext, Reg r, std::int32_t imm, bool wide) {
    rex(wide, 0, 0, r);
    if (imm >= -128 && imm <= 127) {
      u8(0x83);
      modrm(3, ext, r);
      u8(static_cast<std::uint8_t>(imm));
    } else {
      u8(0x81);
      modrm(3, ext, r);
      u32(static_cast<std::uint32_t>(imm));
    }
  }
  void add_ri(Reg r, std::int32_t imm, bool wide = true) { alu_ri(0, r, imm, wide); }
  void cmp_ri(Reg r, std::int32_t imm, bool wide = true) { alu_ri(7, r, imm, wide); }
  void imul_rr(Reg dst, Reg src, bool wide) {  // imul r, r/m
    rex(wide, dst, 0, src);
    u8(0x0F);
    u8(0xAF);
    modrm(3, dst, src);
  }
  void imul_rri(Reg dst, Reg src, std::int32_t imm, bool wide) {  // imul r, r/m, imm
    rex(wide, dst, 0, src);
    if (imm >= -128 && imm <= 127) {
      u8(0x6B);
      modrm(3, dst, src);
      u8(static_cast<std::uint8_t>(imm));
    } else {
      u8(0x69);
      modrm(3, dst, src);
      u32(static_cast<std::uint32_t>(imm));
    }
  }
  /// Shift/rotate by CL: ext — rol 0, ror 1, shl 4, shr 5, sar 7.
  void shift_cl(std::uint8_t ext, Reg r, bool wide) {
    rex(wide, 0, 0, r);
    u8(0xD3);
    modrm(3, ext, r);
  }
  /// Shift/rotate by immediate (C1 /ext ib), same ext codes as shift_cl.
  void shift_ri(std::uint8_t ext, Reg r, std::uint8_t imm, bool wide) {
    rex(wide, 0, 0, r);
    u8(0xC1);
    modrm(3, ext, r);
    u8(imm);
  }
  void cdq() { u8(0x99); }
  void cqo() {
    u8(0x48);
    u8(0x99);
  }
  void idiv(Reg r, bool wide) {  // F7 /7
    rex(wide, 0, 0, r);
    u8(0xF7);
    modrm(3, 7, r);
  }
  void div(Reg r, bool wide) {  // F7 /6
    rex(wide, 0, 0, r);
    u8(0xF7);
    modrm(3, 6, r);
  }
  /// movsx within/into a register: 8->32/64, 16->32/64, 32->64.
  void movsx_rr(Reg dst, Reg src, std::uint8_t from_log2, bool wide) {
    if (from_log2 == 2) {
      rex(true, dst, 0, src);  // movsxd
      u8(0x63);
    } else {
      // 8-bit source: low byte of rax..r15 needs REX when src >= 4.
      if (from_log2 == 0 && src >= RSP && !wide && !(dst & 8) && !(src & 8)) u8(0x40);
      rex(wide, dst, 0, src);
      u8(0x0F);
      u8(from_log2 == 0 ? 0xBE : 0xBF);
    }
    modrm(3, dst, src);
  }
  void setcc(Cond cc, Reg r) {  // setcc r8
    rex8(r, 0, 0, r);
    u8(0x0F);
    u8(static_cast<std::uint8_t>(0x90 | cc));
    modrm(3, 0, r);
  }
  void movzx8_rr(Reg dst, Reg src) {  // movzx r32, r8
    rex8(src, dst, 0, src);
    u8(0x0F);
    u8(0xB6);
    modrm(3, dst, src);
  }
  void cmovcc(Cond cc, Reg dst, Reg src, bool wide = true) {
    rex(wide, dst, 0, src);
    u8(0x0F);
    u8(static_cast<std::uint8_t>(0x40 | cc));
    modrm(3, dst, src);
  }
  /// cmovcc r, [base + disp]
  void cmovcc_rm(Cond cc, Reg dst, Reg base, std::int32_t disp, bool wide = true) {
    rex(wide, dst, 0, base);
    u8(0x0F);
    u8(static_cast<std::uint8_t>(0x40 | cc));
    mem(dst, base, 0xff, 0, disp);
  }
  /// lea dst, [base + index*8]
  void lea_scaled8(Reg dst, Reg base, Reg index) {
    rex(true, dst, index, base);
    u8(0x8D);
    mem(dst, base, index, 3, 0);
  }
  /// lea dst, [base + disp]
  void lea_disp(Reg dst, Reg base, std::int32_t disp) {
    rex(true, dst, 0, base);
    u8(0x8D);
    mem(dst, base, 0xff, 0, disp);
  }
  /// lea dst, [rip + disp32]; returns the patch offset of the disp32 field.
  /// The final displacement is relative to the END of this instruction.
  std::size_t lea_rip(Reg dst) {
    rex(true, dst, 0, 0);
    u8(0x8D);
    modrm(0, dst, 5);
    const std::size_t at = size();
    u32(0);
    return at;
  }
  /// cmp qword [base + disp], imm8
  void cmp_m64_imm8(Reg base, std::int32_t disp, std::int8_t imm) {
    rex(true, 0, 0, base);
    u8(0x83);
    mem(7, base, 0xff, 0, disp);
    u8(static_cast<std::uint8_t>(imm));
  }
  /// mov qword [base + disp], imm32 (sign-extended)
  void store_imm32(Reg base, std::int32_t disp, std::int32_t imm) {
    rex(true, 0, 0, base);
    u8(0xC7);
    mem(0, base, 0xff, 0, disp);
    u32(static_cast<std::uint32_t>(imm));
  }
  /// mov dword [base + disp], imm32
  void store_dword_imm(Reg base, std::int32_t disp, std::uint32_t imm) {
    rex(false, 0, 0, base);
    u8(0xC7);
    mem(0, base, 0xff, 0, disp);
    u32(imm);
  }
  /// ALU [base + disp], imm (81 /ext id or 83 /ext ib): add 0, sub 5, cmp 7.
  void alu_mi(std::uint8_t ext, Reg base, std::int32_t disp, std::int32_t imm,
              bool wide) {
    rex(wide, 0, 0, base);
    const bool imm8 = imm >= -128 && imm <= 127;
    u8(imm8 ? 0x83 : 0x81);
    mem(ext, base, 0xff, 0, disp);
    if (imm8)
      u8(static_cast<std::uint8_t>(imm));
    else
      u32(static_cast<std::uint32_t>(imm));
  }
  /// ALU [base + disp], src (MR form; `op` as for alu_rr, e.g. cmp 39).
  void alu_mr(std::uint8_t op, Reg base, std::int32_t disp, Reg src, bool wide) {
    rex(wide, src, 0, base);
    u8(op);
    mem(src, base, 0xff, 0, disp);
  }
  /// rep stosq: fills rcx qwords at [rdi] with rax.
  void rep_stosq() {
    u8(0xF3);
    u8(0x48);
    u8(0xAB);
  }

  /// Two-register ALU op, RM form (dst = dst OP [base + disp]). `op` is the
  /// RM opcode byte: add 03, or 0B, and 23, sub 2B, xor 33, cmp 3B.
  void alu_rm(std::uint8_t op, Reg dst, Reg base, std::int32_t disp, bool wide) {
    rex(wide, dst, 0, base);
    u8(op);
    mem(dst, base, 0xff, 0, disp);
  }
  void imul_rm(Reg dst, Reg base, std::int32_t disp, bool wide) {
    rex(wide, dst, 0, base);
    u8(0x0F);
    u8(0xAF);
    mem(dst, base, 0xff, 0, disp);
  }

  // -- SSE2 scalar float -------------------------------------------------------
  // XMM registers share the GPR ModRM/REX numbering; the `x` parameters are
  // xmm indices. The mandatory prefix (F2/F3/66, 0 = none) always precedes
  // any REX byte.

  /// Generic xmm, xmm form: prefix 0F opc /r.
  void sse_rr(std::uint8_t prefix, std::uint8_t opc, std::uint8_t xdst,
              std::uint8_t xsrc) {
    if (prefix) u8(prefix);
    rex(false, xdst, 0, xsrc);
    u8(0x0F);
    u8(opc);
    modrm(3, xdst, xsrc);
  }
  /// Generic xmm, [base + disp] form.
  void sse_rm(std::uint8_t prefix, std::uint8_t opc, std::uint8_t x, Reg base,
              std::int32_t disp) {
    if (prefix) u8(prefix);
    rex(false, x, 0, base);
    u8(0x0F);
    u8(opc);
    mem(x, base, 0xff, 0, disp);
  }

  /// Generic xmm, [base + index + disp] form.
  void sse_rmi(std::uint8_t prefix, std::uint8_t opc, std::uint8_t x, Reg base,
               Reg index, std::int32_t disp) {
    if (prefix) u8(prefix);
    rex(false, x, index, base);
    u8(0x0F);
    u8(opc);
    mem(x, base, index, 0, disp);
  }

  /// movsd/movss xmm, [mem] (scalar load; zeroes the upper lanes).
  void movf_load(bool f64, std::uint8_t x, Reg base, std::int32_t disp) {
    sse_rm(f64 ? 0xF2 : 0xF3, 0x10, x, base, disp);
  }
  /// movsd/movss [mem], xmm (scalar store).
  void movf_store(bool f64, Reg base, std::int32_t disp, std::uint8_t x) {
    sse_rm(f64 ? 0xF2 : 0xF3, 0x11, x, base, disp);
  }
  void movaps_rr(std::uint8_t xdst, std::uint8_t xsrc) { sse_rr(0, 0x28, xdst, xsrc); }
  void xorps_rr(std::uint8_t xdst, std::uint8_t xsrc) { sse_rr(0, 0x57, xdst, xsrc); }
  /// movq/movd xmm, r64/r32 (66 [REX.W] 0F 6E; zeroes the upper lanes).
  void mov_xr(std::uint8_t x, Reg r, bool wide) {
    u8(0x66);
    rex(wide, x, 0, r);
    u8(0x0F);
    u8(0x6E);
    modrm(3, x, r);
  }
  /// movq/movd r64/r32, xmm (66 [REX.W] 0F 7E; the r32 form zero-extends).
  void mov_rx(Reg r, std::uint8_t x, bool wide) {
    u8(0x66);
    rex(wide, x, 0, r);
    u8(0x0F);
    u8(0x7E);
    modrm(3, x, r);
  }
  /// Scalar arith xmm, xmm. opc: sqrt 51, add 58, mul 59, sub 5C, min 5D,
  /// div 5E, max 5F.
  void sse_arith_rr(bool f64, std::uint8_t opc, std::uint8_t xdst, std::uint8_t xsrc) {
    sse_rr(f64 ? 0xF2 : 0xF3, opc, xdst, xsrc);
  }
  /// Scalar arith xmm, [mem] — the load-op fusion form.
  void sse_arith_rm(bool f64, std::uint8_t opc, std::uint8_t x, Reg base,
                    std::int32_t disp) {
    sse_rm(f64 ? 0xF2 : 0xF3, opc, x, base, disp);
  }
  /// ucomisd/ucomiss xmm(a), xmm(b): compares a against b; unordered sets
  /// ZF=PF=CF=1.
  void ucomis_rr(bool f64, std::uint8_t xa, std::uint8_t xb) {
    sse_rr(f64 ? 0x66 : 0x00, 0x2E, xa, xb);
  }
  void andpd_rr(std::uint8_t xdst, std::uint8_t xsrc) { sse_rr(0x66, 0x54, xdst, xsrc); }
  void orpd_rr(std::uint8_t xdst, std::uint8_t xsrc) { sse_rr(0x66, 0x56, xdst, xsrc); }
  /// cvttsd2si/cvttss2si r32/r64, xmm (truncating float -> int).
  void cvtt_f2i(bool f64_src, bool wide, Reg dst, std::uint8_t x) {
    u8(f64_src ? 0xF2 : 0xF3);
    rex(wide, dst, 0, x);
    u8(0x0F);
    u8(0x2C);
    modrm(3, dst, x);
  }
  /// cvtsi2sd/cvtsi2ss xmm, r32/r64 (int -> float).
  void cvt_i2f(bool f64_dst, bool wide, std::uint8_t x, Reg src) {
    u8(f64_dst ? 0xF2 : 0xF3);
    rex(wide, x, 0, src);
    u8(0x0F);
    u8(0x2A);
    modrm(3, x, src);
  }
  void cvtsd2ss(std::uint8_t xdst, std::uint8_t xsrc) { sse_rr(0xF2, 0x5A, xdst, xsrc); }
  void cvtss2sd(std::uint8_t xdst, std::uint8_t xsrc) { sse_rr(0xF3, 0x5A, xdst, xsrc); }

  // -- control flow ------------------------------------------------------------

  /// jcc rel32; returns the patch offset of the rel32 field.
  std::size_t jcc(Cond cc) {
    u8(0x0F);
    u8(static_cast<std::uint8_t>(0x80 | cc));
    const std::size_t at = size();
    u32(0);
    return at;
  }
  /// jmp rel32; returns the patch offset of the rel32 field.
  std::size_t jmp() {
    u8(0xE9);
    const std::size_t at = size();
    u32(0);
    return at;
  }
  /// Resolves a rel32 patch site against a target buffer offset.
  void patch_rel32(std::size_t at, std::size_t target) {
    patch32(at, static_cast<std::uint32_t>(target - (at + 4)));
  }
  void jmp_r(Reg r) {  // jmp r64
    rex(false, 0, 0, r);
    u8(0xFF);
    modrm(3, 4, r);
  }
  void call_r(Reg r) {  // call r64
    rex(false, 0, 0, r);
    u8(0xFF);
    modrm(3, 2, r);
  }
  void push_r(Reg r) {
    if (r & 8) u8(0x41);
    u8(static_cast<std::uint8_t>(0x50 | (r & 7)));
  }
  void pop_r(Reg r) {
    if (r & 8) u8(0x41);
    u8(static_cast<std::uint8_t>(0x58 | (r & 7)));
  }
  void ret() { u8(0xC3); }
  void sub_rsp8() {  // sub rsp, 8 (alignment slot)
    u8(0x48);
    u8(0x83);
    u8(0xEC);
    u8(0x08);
  }
  void add_rsp8() {
    u8(0x48);
    u8(0x83);
    u8(0xC4);
    u8(0x08);
  }
  /// Pads with int3 to the given alignment (between code and data tables).
  void align(std::size_t a) {
    while (buf.size() % a) u8(0xCC);
  }
};

}  // namespace watz::wasm::jit
