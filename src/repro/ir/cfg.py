"""Control-flow graph utilities: dominators and natural-loop detection.

Used twice in the system: by the optimizer (LICM, unrolling) and — more
importantly for the paper — by the SFGL profiler, which needs to know
which basic blocks form loops and how deeply they nest so that the
synthesizer can regenerate ``for`` nests (§III-A.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.instructions import BasicBlockRef, IRFunction

BasicBlock = BasicBlockRef


class ControlFlowGraph:
    """Successor/predecessor view over an :class:`IRFunction`."""

    def __init__(self, func: IRFunction):
        self.func = func
        self.labels = [blk.label for blk in func.blocks]
        self.by_label = {blk.label: blk for blk in func.blocks}
        self.successors: dict[str, list[str]] = {}
        self.predecessors: dict[str, list[str]] = {label: [] for label in self.labels}
        for blk in func.blocks:
            succs = blk.successor_labels()
            self.successors[blk.label] = succs
            for succ in succs:
                self.predecessors[succ].append(blk.label)

    @property
    def entry(self) -> str:
        return self.func.blocks[0].label

    def reachable(self) -> set[str]:
        """Labels reachable from the entry block."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            label = stack.pop()
            for succ in self.successors[label]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen


def reverse_postorder(cfg: ControlFlowGraph) -> list[str]:
    """Reverse postorder of reachable blocks (entry first)."""
    visited: set[str] = set()
    order: list[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(cfg.successors[label]))]
        visited.add(label)
        while stack:
            current, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(cfg.successors[succ])))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(cfg.entry)
    order.reverse()
    return order


def compute_dominators(cfg: ControlFlowGraph) -> dict[str, set[str]]:
    """Iterative dataflow dominator computation.

    Returns, for each reachable label, the set of labels dominating it
    (including itself).
    """
    order = reverse_postorder(cfg)
    reachable = set(order)
    dominators: dict[str, set[str]] = {label: reachable.copy() for label in order}
    dominators[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == cfg.entry:
                continue
            preds = [p for p in cfg.predecessors[label] if p in reachable]
            if not preds:
                continue
            new_set = set(dominators[preds[0]])
            for pred in preds[1:]:
                new_set &= dominators[pred]
            new_set.add(label)
            if new_set != dominators[label]:
                dominators[label] = new_set
                changed = True
    return dominators


@dataclass
class Loop:
    """A natural loop: header plus body blocks, with nesting links."""

    header: str
    body: set[str] = field(default_factory=set)  # includes the header
    back_edges: list[str] = field(default_factory=list)  # latch labels
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Loop(header={self.header}, body={sorted(self.body)})"


def find_natural_loops(cfg: ControlFlowGraph) -> list[Loop]:
    """Detect natural loops via back edges and build the nesting forest.

    A back edge is an edge ``latch -> header`` where ``header`` dominates
    ``latch``.  Loops sharing a header are merged.  The returned list is
    ordered outermost-first; each loop links to its parent/children.
    """
    dominators = compute_dominators(cfg)
    loops_by_header: dict[str, Loop] = {}
    # Reverse postorder (the dominators' key order), never set order: the
    # loop list's order must not depend on the string-hash seed.
    for label in dominators:
        for succ in cfg.successors[label]:
            if succ in dominators[label]:
                # label -> succ is a back edge; succ is the header.
                loop = loops_by_header.setdefault(succ, Loop(header=succ))
                loop.back_edges.append(label)
                loop.body |= _loop_body(cfg, succ, label)
    loops = list(loops_by_header.values())
    # Establish nesting: parent is the smallest strictly-containing loop.
    loops.sort(key=lambda lp: len(lp.body))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1 :]:
            if inner.header in outer.body and inner.body <= outer.body and inner is not outer:
                inner.parent = outer
                outer.children.append(inner)
                break
    loops.sort(key=lambda lp: -len(lp.body))
    return loops


def _loop_body(cfg: ControlFlowGraph, header: str, latch: str) -> set[str]:
    """Blocks of the natural loop for back edge ``latch -> header``."""
    body = {header, latch}
    stack = [latch]
    while stack:
        label = stack.pop()
        if label == header:
            continue
        for pred in cfg.predecessors[label]:
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def loop_of_block(loops: list[Loop], label: str) -> Loop | None:
    """Innermost loop containing *label* (None if not in any loop)."""
    innermost: Loop | None = None
    for loop in loops:
        if label in loop.body:
            if innermost is None or len(loop.body) < len(innermost.body):
                innermost = loop
    return innermost
