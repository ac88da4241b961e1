"""Set-up cost one CLI run pays before its first state, in a fresh interpreter:
importing entguess.cli, then building and certifying the MUB family.

    python3 perfbench/setup_probe.py <src-dir> <d>

Prints the seconds taken.  Nothing is imported before the clock starts but
sys and time.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import entguess.cli  # noqa: E402,F401
from entguess import designs  # noqa: E402

designs.design_defect(designs.mub_family(int(sys.argv[2])))
print(repr(time.perf_counter() - start))
