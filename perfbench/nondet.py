"""Digest every clone compile, to expose hash-seed nondeterminism.

``python perfbench/nondet.py SOURCES.json OUT.json`` compiles each clone
source of ``SOURCES.json`` (``{pair: source}``) at every (ISA, ``-O``)
and writes ``{"pair@isa-On": sha256 of the pickled Binary}``.  The
benchmark runs it twice under two fixed, distinct ``PYTHONHASHSEED``
values and counts the binaries that differ (``nondet_binaries`` counts
those of the builtin pairs); a deterministic compiler gives 0.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys

from child import REPORT_COORDS


def digests(sources: dict) -> dict:
    from repro.cc.driver import compile_program

    out = {}
    for pair, source in sorted(sources.items()):
        for isa, level in REPORT_COORDS:
            binary = compile_program(source, isa, level).binary
            out[f"{pair}@{isa}-O{level}"] = hashlib.sha256(
                pickle.dumps(binary, protocol=4)).hexdigest()
    return out


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        result = digests(json.load(fh))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
