"""Natural-loop detection on machine-code CFGs.

The SFGL needs loop structure of the *profiled binary* (not the IR), so
dominators and back edges are recomputed here over machine blocks.  Call
edges do not leave the function: a block ending in ``call`` flows to its
fall-through continuation, matching how Pin's BBL view sees control flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.machine import MachineFunction


def machine_cfg(func: MachineFunction) -> dict[int, list[int]]:
    """Successor map (block index -> indices) for one machine function."""
    succs: dict[int, list[int]] = {}
    for idx, blk in enumerate(func.blocks):
        out: list[int] = []
        last = blk.instrs[-1] if blk.instrs else None
        if last is None:
            if blk.fall_through is not None:
                out.append(blk.fall_through)
        elif last.op == "jmp":
            out.append(last.target)
        elif last.op in ("bt", "bf"):
            out.append(last.target)
            if blk.fall_through is not None:
                out.append(blk.fall_through)
        elif last.op == "ret":
            pass
        else:  # call or plain fall-through
            if blk.fall_through is not None:
                out.append(blk.fall_through)
        succs[idx] = out
    return succs


def _reverse_postorder(succs: dict[int, list[int]], entry: int) -> list[int]:
    visited = {entry}
    order: list[int] = []
    stack: list[tuple[int, iter]] = [(entry, iter(succs[entry]))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succs[succ])))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def _dominators(succs: dict[int, list[int]], entry: int) -> dict[int, set[int]]:
    order = _reverse_postorder(succs, entry)
    reachable = set(order)
    preds: dict[int, list[int]] = {node: [] for node in order}
    for node in order:
        for succ in succs[node]:
            if succ in reachable:
                preds[succ].append(node)
    dom: dict[int, set[int]] = {node: set(order) for node in order}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for node in order:
            if node == entry:
                continue
            node_preds = preds[node]
            if not node_preds:
                continue
            new_set = set(dom[node_preds[0]])
            for pred in node_preds[1:]:
                new_set &= dom[pred]
            new_set.add(node)
            if new_set != dom[node]:
                dom[node] = new_set
                changed = True
    return dom


@dataclass
class MachineLoop:
    """A natural loop in a machine function."""

    func_index: int
    header: int  # block index within the function
    body: set[int] = field(default_factory=set)
    back_edges: list[int] = field(default_factory=list)
    parent: "MachineLoop | None" = None
    children: list["MachineLoop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth


def loop_header_gbids(binary) -> list[int]:
    """Global block ids of every natural-loop header in *binary*.

    The replay kernel cuts its segment memo at occurrences of these
    blocks: each cut starts a loop iteration, the unit that repeats in
    the dynamic block sequence.
    """
    headers: list[int] = []
    for func in binary.functions:
        for loop in find_machine_loops(func):
            headers.append(func.blocks[loop.header].gbid)
    return sorted(set(headers))


def find_machine_loops(func: MachineFunction) -> list[MachineLoop]:
    """Natural loops of one machine function, outermost-first."""
    if not func.blocks:
        return []
    succs = machine_cfg(func)
    dom = _dominators(succs, 0)
    preds: dict[int, list[int]] = {node: [] for node in dom}
    for node in dom:
        for succ in succs[node]:
            if succ in dom:
                preds[succ].append(node)
    loops_by_header: dict[int, MachineLoop] = {}
    for node in dom:
        for succ in succs[node]:
            if succ in dom.get(node, set()):
                loop = loops_by_header.setdefault(
                    succ, MachineLoop(func_index=func.index, header=succ)
                )
                loop.back_edges.append(node)
                body = {succ, node}
                stack = [node]
                while stack:
                    current = stack.pop()
                    if current == succ:
                        continue
                    for pred in preds.get(current, []):
                        if pred not in body:
                            body.add(pred)
                            stack.append(pred)
                loop.body |= body
    loops = sorted(loops_by_header.values(), key=lambda lp: len(lp.body))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1 :]:
            if inner.header in outer.body and inner.body <= outer.body:
                inner.parent = outer
                outer.children.append(inner)
                break
    loops.sort(key=lambda lp: -len(lp.body))
    return loops
