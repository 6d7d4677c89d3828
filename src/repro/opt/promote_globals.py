"""Register promotion of global scalars across loops (O2).

Mini-C has no address-of operator, so a global *scalar* can never alias
an array access or another name — promoting it to a register across a
loop is unconditionally sound provided the loop makes no calls (a callee
could read/write it) and does not return from inside the loop.

For each natural loop (innermost first) and each global scalar accessed
in it:

* a preheader load brings the value into a fresh temp;
* loads inside the loop become register moves, stores become moves into
  the temp;
* if the loop writes the scalar, every exit edge is split and a
  write-back store placed on it.

This is the optimization that lets tight loops over globals (SHA's H0..H4
chain, the synthetic benchmarks' scalar pool) speed up at -O2 the way
real compilers make them — without it, Fig. 11's speedups collapse for
any globals-heavy code.
"""

from __future__ import annotations

from repro.ir.cfg import ControlFlowGraph, find_natural_loops
from repro.ir.instructions import (
    Address,
    BasicBlockRef,
    Branch,
    Call,
    IRFunction,
    IRProgram,
    Jump,
    Load,
    LoadAddress,
    Print,
    Ret,
    Store,
    Temp,
    UnOp,
)


def _global_scalar_symbol(addr: Address, scalar_globals: set[str]) -> str | None:
    if isinstance(addr.base, str) and addr.index is None and addr.base in scalar_globals:
        return addr.base
    return None


def promote_globals_function(
    func: IRFunction,
    scalar_globals: dict[str, str],
    max_int_candidates: int = 8,
    max_float_candidates: int = 8,
) -> int:
    """Promote global scalars across loops of *func*; returns count.

    ``max_*_candidates`` bound how many scalars are promoted per loop —
    on a register-starved target, promoting everything just converts
    reloads into spill traffic, so the hottest (most-accessed) scalars
    win.
    """
    promoted = 0
    # Label counter continues past any stubs from earlier pipeline stages
    # (the pass runs at both O1 and O2).
    stub_counter = sum(
        1 for blk in func.blocks if blk.label.startswith(("gpromo", "gwb"))
    )
    # Innermost-first: sort loops by body size ascending each round.
    changed = True
    processed_headers: set[str] = set()
    while changed:
        changed = False
        cfg = ControlFlowGraph(func)
        loops = sorted(find_natural_loops(cfg), key=lambda lp: len(lp.body))
        for loop in loops:
            if loop.header in processed_headers:
                continue
            processed_headers.add(loop.header)
            body_blocks = [blk for blk in func.blocks if blk.label in loop.body]
            has_call = any(
                isinstance(instr, Call)
                for blk in body_blocks
                for instr in blk.instrs
            )
            has_ret = any(
                isinstance(instr, Ret)
                for blk in body_blocks
                for instr in blk.instrs
            )
            if has_call:
                continue
            reads: dict[str, str] = {}
            writes: dict[str, str] = {}
            access_counts: dict[str, int] = {}
            for blk in body_blocks:
                for instr in blk.instrs:
                    if isinstance(instr, Load):
                        symbol = _global_scalar_symbol(instr.addr, set(scalar_globals))
                        if symbol is not None:
                            reads[symbol] = scalar_globals[symbol]
                            access_counts[symbol] = access_counts.get(symbol, 0) + 1
                    elif isinstance(instr, Store):
                        symbol = _global_scalar_symbol(instr.addr, set(scalar_globals))
                        if symbol is not None:
                            writes[symbol] = scalar_globals[symbol]
                            access_counts[symbol] = access_counts.get(symbol, 0) + 1
            if has_ret:
                # Cannot place write-backs before an in-loop return: only
                # promote read-only scalars.
                candidates = {s: k for s, k in reads.items() if s not in writes}
            else:
                candidates = {**reads, **writes}
            if not candidates:
                continue
            # Keep the hottest candidates within the register budget.
            by_heat = sorted(candidates, key=lambda s: -access_counts.get(s, 0))
            kept: dict[str, str] = {}
            int_used = 0
            float_used = 0
            for symbol in by_heat:
                kind = candidates[symbol]
                if kind == "f":
                    if float_used < max_float_candidates:
                        kept[symbol] = kind
                        float_used += 1
                elif int_used < max_int_candidates:
                    kept[symbol] = kind
                    int_used += 1
            if not kept:
                continue
            stub_counter = self_promote(func, loop, kept, stub_counter)
            promoted += len(kept)
            changed = True
            break  # CFG changed: recompute loops
    return promoted


def self_promote(func: IRFunction, loop, candidates: dict[str, str],
                 stub_counter: int) -> int:
    """Apply promotion of *candidates* for one loop.  Returns stub count."""
    temps: dict[str, Temp] = {
        symbol: func.new_temp(kind) for symbol, kind in candidates.items()
    }
    written: set[str] = set()
    # Rewrite loads/stores inside the loop body.
    for blk in func.blocks:
        if blk.label not in loop.body:
            continue
        rewritten = []
        for instr in blk.instrs:
            if isinstance(instr, Load):
                symbol = instr.addr.base if isinstance(instr.addr.base, str) else None
                if symbol in temps and instr.addr.index is None:
                    op = "fmov" if instr.dst.kind == "f" else "mov"
                    rewritten.append(UnOp(op, instr.dst, temps[symbol]))
                    continue
            elif isinstance(instr, Store):
                symbol = instr.addr.base if isinstance(instr.addr.base, str) else None
                if symbol in temps and instr.addr.index is None:
                    temp = temps[symbol]
                    op = "fmov" if temp.kind == "f" else "mov"
                    rewritten.append(UnOp(op, temp, instr.src))
                    written.add(symbol)
                    continue
            rewritten.append(instr)
        blk.instrs = rewritten
    # Preheader: load every candidate before entering the loop.
    preheader_instrs = [
        Load(temps[symbol], Address(symbol)) for symbol in temps
    ]
    preheader_label = f"gpromo{stub_counter}.{loop.header}"
    stub_counter += 1
    preheader = BasicBlockRef(preheader_label, preheader_instrs + [Jump(loop.header)])
    back_edges = set(loop.back_edges)
    for blk in func.blocks:
        if blk.label in back_edges or blk.label == preheader_label:
            continue
        term = blk.terminator
        if isinstance(term, Jump) and term.label == loop.header:
            term.label = preheader_label
        elif isinstance(term, Branch):
            if term.then_label == loop.header:
                term.then_label = preheader_label
            if term.other_label == loop.header:
                term.other_label = preheader_label
    header_index = next(
        i for i, blk in enumerate(func.blocks) if blk.label == loop.header
    )
    func.blocks.insert(header_index, preheader)
    # Write-backs on every exit edge (written scalars only).
    if written:
        exits: list[tuple[str, str]] = []  # (from label, to label)
        for blk in func.blocks:
            if blk.label not in loop.body:
                continue
            for succ in blk.successor_labels():
                if succ not in loop.body:
                    exits.append((blk.label, succ))
        for src_label, dst_label in exits:
            stub_label = f"gwb{stub_counter}.{src_label}"
            stub_counter += 1
            # In candidate order, not set order: the emitted code must
            # not depend on the interpreter's string-hash seed.
            stores = [
                Store(temp, Address(symbol))
                for symbol, temp in temps.items() if symbol in written
            ]
            stub = BasicBlockRef(stub_label, stores + [Jump(dst_label)])
            src_block = next(b for b in func.blocks if b.label == src_label)
            term = src_block.terminator
            if isinstance(term, Jump) and term.label == dst_label:
                term.label = stub_label
            elif isinstance(term, Branch):
                if term.then_label == dst_label:
                    term.then_label = stub_label
                if term.other_label == dst_label:
                    term.other_label = stub_label
            dst_index = next(
                i for i, b in enumerate(func.blocks) if b.label == dst_label
            )
            func.blocks.insert(dst_index, stub)
    return stub_counter


def promote_globals(program: IRProgram, allocatable_int_regs: int = 16) -> int:
    """Run global-scalar promotion program-wide; returns promotion count."""
    scalar_globals = {
        name: gvar.kind
        for name, gvar in program.globals.items()
        if gvar.size == 1
    }
    if not scalar_globals:
        return 0
    max_int = max(3, allocatable_int_regs - 4)
    max_float = max(3, allocatable_int_regs - 4)
    return sum(
        promote_globals_function(func, scalar_globals, max_int, max_float)
        for func in program.functions.values()
    )
