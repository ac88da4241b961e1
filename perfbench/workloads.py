"""The benchmark's workloads, how their inputs follow from a seed, and the
check of each CLI invocation's output against references recorded from the
program.

Each workload is one fixed `entguess` command line.  A run repeats it in a
closed loop, giving each invocation a `--seed` drawn from POOL by a
generator keyed on the workload seed.  The pool is finite because every
invocation's output is checked against the values the program printed for
that seed when the references were recorded (refs/<workload>.json).
"""

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
OUT = BENCH / "_out"

# Invocation seeds whose outputs refs/ holds.  32 seeds give verify-large
# (about 8 invocations a run) a different subset for each workload seed and
# keep each reference file under 100 KB.
POOL = tuple(range(32))

MAIN_TOL = 1e-9  # main equality, and the game's analytic rate
MONOGAMY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI argv without --seed and --output
    d: int  # Alice's dimension, whose MUB family every invocation builds
    states: int  # states one invocation checks or plays
    trials: int  # relation checks (verify) or game rounds (game) per invocation
    tolerance: float

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def ops(self) -> int:
        """Operations per invocation: states for verify, the invocation for game."""
        return self.states if self.command == "verify" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-small",
            ("verify", "--relation", "main", "--family", "mub", "--d", "7", "--db", "4",
             "--nu", "0", "--samples", "200"),
            d=7, states=200, trials=200, tolerance=MAIN_TOL,
        ),
        Workload(
            "verify-large",
            ("verify", "--relation", "main", "--family", "mub", "--d", "31", "--db", "8",
             "--nu", "0.5", "--samples", "10"),
            d=31, states=10, trials=10, tolerance=MAIN_TOL,
        ),
        Workload(
            "game",
            ("game", "--state", "random", "--d", "13", "--db", "4", "--trials", "1000000"),
            d=13, states=1, trials=1_000_000, tolerance=MAIN_TOL,
        ),
        Workload(
            "monogamy",
            ("verify", "--relation", "monogamy", "--d", "5", "--db", "3", "--de", "4",
             "--samples", "200"),
            d=5, states=200, trials=200, tolerance=MONOGAMY_TOL,
        ),
    )
}


def invocation_seeds(workload: str, seed: int):
    """Endless, deterministic sequence of invocation seeds for a workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.choice(POOL)


def argv_for(w: Workload, inv_seed: int, output: Path) -> list:
    return [*w.args, "--seed", str(inv_seed), "--output", str(output)]


def import_cli():
    """Import entguess.cli from this checkout's source tree, nowhere else."""
    sys.path.insert(0, str(SRC))
    import entguess.cli

    where = Path(entguess.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"entguess was imported from {where}, not from {SRC}")
    return entguess.cli


def load_refs(w: Workload) -> dict:
    """Recorded value per invocation seed: one per report, or the game's rate."""
    doc = json.loads((REFS / f"{w.name}.json").read_text())
    if list(doc["args"]) != list(w.args):
        raise ValueError(f"refs/{w.name}.json was recorded for other arguments")
    return {int(k): v for k, v in doc["values"].items()}


def failed_ops(w: Workload, rc, text: str, ref) -> int:
    """Failed operations in one invocation, judged from its exit code and output.

    For verify, each state is an operation: its report must hold and both
    sides must lie within the relation's tolerance of the recorded value (the
    two sides agreed far inside it when it was recorded).  A run with the wrong
    number of reports or unreadable output fails every state.  For game the
    invocation is the operation: it must exit 0, play every trial and give
    the recorded analytic rate.
    """
    try:
        out = json.loads(text)
        if w.command == "game":
            ok = (
                rc == 0
                and out["trials"] == w.trials
                and abs(out["analytic_rate"] - ref) <= w.tolerance
            )
            return 0 if ok else 1
        if len(out) != w.states:
            return w.ops
        bad = sum(
            not (
                r["verdict"] == "holds"
                and abs(r["lhs"] - v) <= w.tolerance
                and abs(r["rhs"] - v) <= w.tolerance
            )
            for r, v in zip(out, ref)
        )
    except (ValueError, KeyError, TypeError):
        return w.ops
    return bad if rc == 0 else max(bad, 1)
