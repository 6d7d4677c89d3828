"""The compiler's output must not depend on the string-hash seed.

A clone is compiled once and then read many times from the artifact
store, so two interpreters (``PYTHONHASHSEED`` differs per process
unless pinned) must emit byte-identical binaries from the same source.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

# Clone-shaped source: a pool of global scalars written inside loops
# (global promotion places write-back stores on every loop exit) and
# several sibling loops of equal size (the order loops are discovered
# in decides temp numbers and stub labels).
CLONE_SOURCE = r"""
int gS0 = 7;
int gS1 = 10;
int gS2 = 13;
int gS3 = 16;
int gS4 = 19;
unsigned mS[256];
unsigned gw0 = 0u;

void sf0() {
  for (int li0 = 0; li0 < 25; li0++) {
    gS2 = gS1 + li0;
    gS3 = gS3 ^ gS2;
    for (int li1 = 0; li1 < 9; li1++) {
      if (((li1 ^ li0) & 3) < 2) {
        gS1 = gS0 + 3;
      } else {
        gS4 = gS3 + 20;
      }
    }
    gw0 = (gw0 + 1u) & 255u;
    gS0 = gS0 + mS[gw0];
  }
}

void sf1() {
  for (int li0 = 0; li0 < 90; li0++) {
    gw0 = (gw0 + 1u) & 255u;
    gS4 = gS2 - gS4;
  }
  for (int li0 = 0; li0 < 90; li0++) {
    gw0 = (gw0 + 3u) & 255u;
    gS1 = gS1 + gS3;
  }
  for (int li0 = 0; li0 < 90; li0++) {
    gw0 = (gw0 + 5u) & 255u;
    gS0 = gS0 - gS2;
  }
  for (int li0 = 0; li0 < 90; li0++) {
    gw0 = (gw0 + 7u) & 255u;
    gS3 = gS3 ^ gS4;
  }
}

int main() {
  sf0();
  sf1();
  printf("checksum %d %d %d %d %d\n", gS0, gS1, gS2, gS3, gS4);
  return 0;
}
"""

_COMPILE_SCRIPT = (
    "import pickle, sys\n"
    "from repro.cc.driver import compile_program\n"
    "source = sys.stdin.read()\n"
    "binaries = [compile_program(source, isa, 2).binary\n"
    "            for isa in ('x86', 'x86_64', 'ia64')]\n"
    "sys.stdout.buffer.write(pickle.dumps(binaries, protocol=4))\n"
)


def _compile_under(hash_seed: int) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR),
           "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run(
        [sys.executable, "-c", _COMPILE_SCRIPT], input=CLONE_SOURCE.encode(),
        capture_output=True, check=True, env=env,
    ).stdout


def test_binaries_identical_across_hash_seeds():
    first, second = _compile_under(1), _compile_under(2)
    assert first, "compile subprocess produced no output"
    assert first == second
