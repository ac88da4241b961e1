"""Command-line surface: seeded verification runs, bound sweeps, witness
evaluation from statistics files, and game simulations.

All output is machine readable (JSON or CSV), deterministic for a fixed
(config, seed) on one build and BLAS thread count, and numerically
formatted to 12 significant digits so the two formats carry identical
values.  Across BLAS thread counts `lhs`, `rhs` and the verdict stay the
same; the last bits of `defect` do not, since a threaded GEMM's summation
order follows its thread count.  Exit codes: 0 success/certified,
1 relation violated or game outside its 4-sigma band, 2 usage or input
error, 3 witness inconclusive.

`verify` writes each chunk's reports before it draws the next chunk, so
one chunk bounds its memory whatever --samples is (`--d 2 --db 2
--samples 100000` peaks at about 41 MB in either format, against 163 MB
in JSON and 80 MB in CSV when every report was kept to the end).  It
writes nothing before its first chunk's reports exist.  A run that fails
after that exits 2 and removes its --output file; on stdout it leaves the
chunks written before the failure, which in JSON is a list never closed.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import designs, game, relations
from .entropies import JointDistribution
from .errors import EntguessError, FormatError, _require_addressable, exact_int
from .linops import max_entangled
from .states import (
    DensityMatrix,
    mixed_rank_states,
    pure_states,
    random_density,
    random_separable,
)


def _option(default=None, flag="", type=None, no_effect=None, **commands):
    """A RunConfig field that is the one spec of its option: `flag` where it
    differs from the field's name, the argparse `type`, the `add_argument`
    settings of each command that takes it, and for a command, the test of
    its `_MODE_OPTION` value under which the option has no effect."""
    spec = {"flag": flag, "type": type, "commands": commands, "no_effect": no_effect or {}}
    return field(default=default, metadata=spec)


@dataclass
class RunConfig:
    """Parsed invocation, serializable for reproducibility records.

    Every field but `command` specifies its option, and its default is the
    CLI's unless a command's settings give their own.
    """

    command: str
    relation: str | None = _option(verify={"choices": ["main", "monogamy"], "required": True})
    state: str | None = _option(game={
        "default": "random",
        "help": "max-entangled | maximally-mixed | random | separable | file:<path>"})
    input_path: str | None = _option(flag="input", witness={"required": True})
    d: int | None = _option(type=int, sweep={"required": True}, game={"required": True},
                            verify={"required": True, "help": "Alice dimension (prime for MUBs)"})
    d_b: int | None = _option(
        flag="db", type=int, verify={"help": "Bob dimension (default: d)"}, game={},
        no_effect={"game": lambda state: state == "max-entangled" or state.startswith("file:")})
    d_e: int | None = _option(
        flag="de", type=int, verify={"help": "Eve dimension, monogamy only (default: d)"},
        no_effect={"verify": lambda relation: relation == "main"})
    rank: int | None = _option(type=int, game={},
                               no_effect={"game": lambda state: state != "random"})
    family: str = _option(
        "mub", verify={"help": "mub | sic | clifford | file:<path>"},
        game={"help": "mub | clifford | file:<path> (basis families only)"},
        no_effect={"verify": lambda relation: relation == "monogamy"})
    nu: float = _option(0.0, type=float, verify={},
                        no_effect={"verify": lambda relation: relation == "monogamy"})
    samples: int = _option(50, type=int, verify={})
    trials: int = _option(100000, type=int, game={})
    grid: int = _option(101, type=int, sweep={})
    seed: int = _option(0, type=int, verify={}, game={})
    tolerance: float | None = _option(type=float, verify={}, witness={})
    fmt: str = _option("json", flag="format", verify={"choices": ["json", "csv"]},
                       sweep={"choices": ["json", "csv"], "default": "csv"})
    output_path: str | None = _option(flag="output", verify={}, sweep={}, witness={}, game={})

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# every field but `command`, one per option
_OPTIONS = fields(RunConfig)[1:]
# the option whose value is a command's mode, which decides what has effect
_MODE_OPTION = {"verify": "relation", "game": "state"}


# `verify` evaluates its states in chunks sized so that a stack of the
# chunk's largest matrices (16 bytes per complex entry) holds about this many
# bytes: the stacked temporaries stay bounded whatever --samples is, and a
# matrix of this size or more is evaluated one state at a time.  256 KiB
# holds 20 states of 7 x 4 and 72 of monogamy's 5 x 3 x 4.  Against 128 KiB,
# its half as many chunks made 7 x 4 runs about 20 % faster for 0.5-1.1 MB
# more peak RSS; 512 KiB took 2.5-3.4 MB more, past a 5 % bound on the peak.
_CHUNK_BYTES = 1 << 18


def _chunks(count: int, n: int):
    """(start, stop) ranges covering `count` states whose largest matrix is n x n.

    UnsupportedDimensionError, raised at the call, if numpy could not address
    one such matrix; the ranges themselves are made as they are read.
    """
    _require_addressable((n, n), f"a {n} x {n} matrix")
    step = max(1, _CHUNK_BYTES // (16 * n * n))
    return ((start, min(start + step, count)) for start in range(0, count, step))


# `sweep` writes its rows in batches of this many
_SWEEP_ROWS = 1024


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write(path, texts):
    """Write the strings of `texts` to the file at `path`, or to stdout when
    there is no path.

    The output is opened only once the first string exists, so a failure
    before then writes nothing and leaves an existing file as it was.  A
    regular file is removed again if a later string fails, so no run leaves
    a partial file behind; stdout keeps what was written to it.
    """
    texts = iter(texts)
    texts = itertools.chain([next(texts)], texts)
    if not path:
        sys.stdout.writelines(texts)
        return
    with open(path, "w") as fh:
        try:
            fh.writelines(texts)
        except BaseException:
            opened = os.fstat(fh.fileno())
            with contextlib.suppress(OSError):
                # only the file opened, never a device, pipe or symlink at `path`
                found = os.lstat(path)
                if stat.S_ISREG(found.st_mode) and os.path.samestat(found, opened):
                    os.remove(path)
            raise


# the smallest normal double
_NORMAL_MIN = sys.float_info.min


def _json_float(x) -> str:
    """repr of x rounded to 12 significant digits; EntguessError for a NaN or
    infinity.

    The `.12g` text t is that repr itself when x is finite and normal and t
    holds "e-", or holds "." without "e+": t then has at most 12 digits,
    which name one normal double and no shorter text does, and repr's and
    `.12g`'s notations agree, both exponential below 1e-4 and neither from
    there to 1e12.  Every other x (integral, 1e12 and above, subnormal, zero,
    non-finite) is rounded through float and written by repr.
    """
    x = float(x)
    text = f"{x:.12g}"
    if _NORMAL_MIN <= abs(x) < math.inf and ("e-" in text or ("." in text and "e+" not in text)):
        return text
    rounded = float(text)
    if not math.isfinite(rounded):
        raise EntguessError(
            "output holds a non-finite value: "
            f"Out of range float values are not JSON compliant: {rounded!r}"
        )
    return repr(rounded)


def _json_value(x, pad: str) -> str:
    """x as JSON with sorted keys, two-space indent from `pad`, and floats
    rounded to 12 significant digits; EntguessError for a NaN or infinity.

    It writes what ``json.dumps(x, sort_keys=True, indent=2,
    allow_nan=False)`` writes for x with its floats rounded, in one walk.
    A dataclass, such as a report, is written as the dict of its fields.
    """
    if isinstance(x, (float, np.floating)):
        return _json_float(x)
    if isinstance(x, str):
        return _quote(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{inner}{_quote(k)}: {_json_value(v, inner)}" for k, v in sorted(x.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    if isinstance(x, (list, tuple)):
        items = [inner + _json_value(v, inner) for v in x]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return "null"
    if is_dataclass(x):
        return _json_value(vars(x), pad)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """Output document as JSON; a NaN or infinity is an error, never bare text."""
    return _json_value(doc, "") + "\n"


# a RelationReport in a list, from the template of its fields in sorted order
_REPORT_FIELDS = sorted(f.name for f in fields(relations.RelationReport))
_REPORT_TEMPLATE = (
    "{{\n" + ",\n".join(f"    {_quote(name)}: {{}}" for name in _REPORT_FIELDS) + "\n  }}"
)
# distinct metadata texts one list keeps, at most
_METADATA_TEXTS = 64


def _json_list_texts(batches):
    """`_json_text` of the list of every item in `batches`, as one string per
    batch and then its closing bracket, so that no more than one batch's
    text is held.

    A RelationReport is written from `_REPORT_TEMPLATE`, and the text of
    each distinct metadata is made once, keyed by its repr (at most
    `_METADATA_TEXTS` are kept): metadata holds JSON values (dicts, lists,
    strings, numbers, booleans, None), whose repr fixes their text."""
    metadata_texts = {}

    def text(name, value):
        if name != "metadata":
            return _json_value(value, "    ")
        key = repr(value)
        found = metadata_texts.get(key)
        if found is None:
            if len(metadata_texts) == _METADATA_TEXTS:
                metadata_texts.clear()
            found = metadata_texts[key] = _json_value(value, "    ")
        return found

    sep = "[\n  "
    for batch in batches:
        parts = []
        for item in batch:
            if type(item) is relations.RelationReport:
                values = vars(item)
                item_text = _REPORT_TEMPLATE.format(
                    *[text(name, values[name]) for name in _REPORT_FIELDS]
                )
            else:
                item_text = _json_value(item, "  ")
            parts.append(sep + item_text)
            sep = ",\n  "
        yield "".join(parts)
    yield "[]\n" if sep == "[\n  " else "\n]\n"


def _csv_texts(header, batches):
    """CSV of the rows in `batches` under `header`, as one string per batch,
    the first led by the header; a float cell is written as `_fmt` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for batch in batches:
        writer.writerows([_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in batch)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    yield buf.getvalue()  # the header, if there was no batch


def _load_json(path: str, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise FormatError(f"malformed {what} document: {exc}") from exc


def _family_for(name: str, d: int) -> designs.MeasurementFamily:
    if name == "mub":
        return designs.mub_family(d)
    if name == "sic":
        return designs.sic_povm(d)
    if name == "clifford":
        if d != 2:
            raise EntguessError("the Clifford-orbit family is qubit-only (d = 2)")
        return designs.clifford_orbit_family()
    if name.startswith("file:"):
        fam = designs.MeasurementFamily.from_json_dict(_load_json(name[5:], "family"))
        if fam.d != d:
            raise EntguessError(f"family file is for d = {fam.d}, run asked for d = {d}")
        return fam
    raise EntguessError(f"unknown family {name!r}")


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.samples < 1:
        raise EntguessError(f"samples must be >= 1, got {cfg.samples}")
    if cfg.samples > 1 << 64:
        # state i comes from Philox stream i, and streams repeat mod 2^64
        raise EntguessError(f"samples must be <= 2**64, got {cfg.samples}")
    # glibc gives a free top of its heap above 128 KiB back to the kernel, so
    # each chunk would fault its freed temporaries in again. Freeing a block
    # above that size first raises the threshold to twice the block (the
    # dynamic mmap threshold of mallopt(3)); the block is never touched.
    # At 3 MiB the threshold, 6 MiB, lies above the per-state temporaries of
    # a 31 x 8 state (about 4.7 MB); an 8 MiB block raised the peak RSS of
    # 7 x 4 runs by 1.9 MB, so it stays below 4 MiB.
    np.empty(3 << 20, dtype=np.uint8)
    if cfg.relation == "main":
        family = _family_for(cfg.family, cfg.d)
        tol = cfg.tolerance if cfg.tolerance is not None else relations.EQUALITY_TOL
        keys = relations.EQUALITY_METADATA
        # a factor state is small, but measuring it makes every effect's
        # d_B x d_B operator
        n, largest = cfg.d * cfg.d_b, (family.scales.size, cfg.d_b, cfg.d_b)

        def reports(start, stop):
            rho = mixed_rank_states(cfg.d, cfg.d_b, stop - start, cfg.seed, start)
            return relations.equality_report(rho, family, cfg.nu, tol)
    else:
        mubs = designs.mub_family(cfg.d)
        tol = cfg.tolerance if cfg.tolerance is not None else relations.MONOGAMY_TOL
        keys = relations.MONOGAMY_METADATA
        # the largest matrices monogamy_report forms are rho_AB and rho_E; a
        # state's vector is no larger
        n = max(cfg.d * cfg.d_b, cfg.d_e)
        largest = (n, n)

        def reports(start, stop):
            psi = pure_states(cfg.d * cfg.d_b * cfg.d_e, stop - start, cfg.seed, start)
            return relations.monogamy_report(psi, (cfg.d, cfg.d_b, cfg.d_e), mubs, tol)
    chunks = _chunks(cfg.samples, n)
    # allocating (not touching) the largest array first makes a dimension too
    # large for memory fail before any state is drawn
    np.empty(largest, dtype=complex)
    batches = (reports(start, stop) for start, stop in chunks)
    holds = True

    def judged():
        # each chunk's reports are written before the next chunk is drawn,
        # and only whether all of them held outlives them
        nonlocal holds
        for reports in batches:
            holds = holds and all(r.holds for r in reports)
            yield reports

    if cfg.fmt == "json":
        texts = _json_list_texts(judged())
    else:
        header = ["lhs", "rhs", "defect", "tolerance", "verdict", *keys]
        texts = _csv_texts(header, (
            [[r.lhs, r.rhs, r.defect, r.tolerance, r.verdict, *(r.metadata[k] for k in keys)]
             for r in reports]
            for reports in judged()
        ))
    _write(cfg.output_path, texts)
    return 0 if holds else 1


def cmd_sweep(cfg: RunConfig) -> int:
    d = cfg.d
    designs._require_mub_dimension(d)  # the sweep's d has a complete MUB set
    if cfg.grid < 2:
        raise EntguessError(f"grid size must be >= 2, got {cfg.grid}")
    try:
        grid = np.linspace(0.0, 1.0, cfg.grid)
    except ValueError as exc:  # more points than numpy can address
        raise EntguessError(f"a grid of {cfg.grid} points cannot be allocated: {exc}") from exc
    header = ["fpg", "n", "lower", "upper"]
    # the rows are written _SWEEP_ROWS at a time, so the output is never held whole
    batches = (
        [(fpg, n, *relations.guessing_bounds(fpg, d, n)) for fpg in map(float, points)]
        for n in range(1, d + 2)
        for points in np.split(grid, range(_SWEEP_ROWS, grid.size, _SWEEP_ROWS))
    )
    if cfg.fmt == "csv":
        texts = _csv_texts(header, batches)
    else:
        texts = _json_list_texts([dict(zip(header, row)) for row in batch] for batch in batches)
    _write(cfg.output_path, texts)
    return 0


def cmd_witness(cfg: RunConfig) -> int:
    joints = JointDistribution.from_json_dict(_load_json(cfg.input_path, "joint-distribution"))
    tol = cfg.tolerance if cfg.tolerance is not None else relations.EQUALITY_TOL
    report = relations.witness(joints, tolerance=tol)
    # the report is written first, so a failed write leaves stdout empty
    if cfg.output_path:
        _write(cfg.output_path, [_json_text([report])])
    if report.metadata["entangled"]:
        print(f"ENTANGLED ({report.lhs:.3f} > {report.rhs:.3f})")
        return 0
    print(f"INCONCLUSIVE ({report.lhs:.3f} <= {report.rhs:.3f})")
    return 3


def _load_state(cfg: RunConfig) -> DensityMatrix:
    d, d_b = cfg.d, cfg.d_b
    if cfg.state and cfg.state.startswith("file:"):
        doc = _load_json(cfg.state[5:], "density-matrix")
        try:
            m = np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)
            rho = DensityMatrix(m, tuple(exact_int(x) for x in doc["dims"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed density-matrix document: {exc}") from exc
        if rho.d_a != d:
            raise EntguessError(f"state file is for d_A = {rho.d_a}, run asked for d = {d}")
        return rho
    # every built-in state is n x n (max-entangled rejects --db, so its d_b is d)
    n = d * d_b
    _require_addressable((n, n), f"a {n} x {n} state")
    if cfg.state == "max-entangled":
        return DensityMatrix.from_pure(max_entangled(d), (d, d))
    if cfg.state == "maximally-mixed":
        return DensityMatrix(np.eye(n) / n, (d, d_b))
    if cfg.state == "random":
        return random_density((d, d_b), n if cfg.rank is None else cfg.rank, cfg.seed, stream=0)
    if cfg.state == "separable":
        return random_separable(d, d_b, terms=4, seed=cfg.seed, stream=0)
    raise EntguessError(f"unknown state specifier {cfg.state!r}")


def cmd_game(cfg: RunConfig) -> int:
    rho = _load_state(cfg)
    family = _family_for(cfg.family, rho.d_a)
    result = game.simulate_game(rho, family, cfg.trials, cfg.seed, stream=1)
    _write(cfg.output_path, [_json_text(result)])
    gap = abs(result.empirical_rate - result.analytic_rate)
    # the floor keeps a rounding gap from failing a band of width 0, where
    # the analytic rate is 1 (it can round to just above 1, so sigma is 0)
    return 0 if gap <= 4.0 * result.std_error + relations.EQUALITY_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entguess",
        description="verify entanglement/guessing-probability relations numerically",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        # an option left out stays out of the namespace, so RunConfig supplies its default
        p = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        for f in _OPTIONS:
            settings = f.metadata["commands"].get(command)
            if settings is not None:
                flag = f.metadata["flag"] or f.name
                metavar = {} if "choices" in settings else {"metavar": flag.upper()}
                p.add_argument(f"--{flag}", dest=f.name, type=f.metadata["type"],
                               **metavar, **settings)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    # Bob's and Eve's dimensions default to Alice's
    if cfg.d_b is None:
        cfg.d_b = cfg.d
    if cfg.d_e is None:
        cfg.d_e = cfg.d
    return cfg


def _reject_ignored_options(given: dict):
    """Raise EntguessError if `given`, the options parsed, holds one without a
    value or one the run would ignore."""
    command = given["command"]
    for f in _OPTIONS:
        # Python 3.11's argparse reads a lone "--" value, as in --d=--, as []
        if isinstance(given.get(f.name), list):
            raise EntguessError(f"--{f.metadata['flag'] or f.name} needs a value, not a lone '--'")
    mode = _MODE_OPTION.get(command)
    for f in _OPTIONS:
        ignored = f.metadata["no_effect"].get(command)
        if f.name in given and ignored and ignored(given[mode]):
            flag = f.metadata["flag"] or f.name
            raise EntguessError(f"--{flag} has no effect on {command} --{mode} {given[mode]}")


# each command's function and its --help line, in --help order
_COMMANDS = {
    "verify": (cmd_verify, "run seeded relation checks over random states"),
    "sweep": (cmd_sweep, "emit the tight bound curves over an F^pg grid"),
    "witness": (cmd_witness, "evaluate the entanglement witness on a statistics file"),
    "game": (cmd_game, "simulate the guessing game against the PGM"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        _reject_ignored_options(vars(args))
        for option, dim in (("--d", cfg.d), ("--db", cfg.d_b), ("--de", cfg.d_e)):
            if dim is not None and dim < 1:
                raise EntguessError(f"{option} must be >= 1, got {dim}")
        # the samplers reduce a seed mod 2^64, so a seed outside would alias one inside
        if not 0 <= cfg.seed < 1 << 64:
            raise EntguessError(f"--seed must be in [0, 2**64), got {cfg.seed}")
        return _COMMANDS[cfg.command][0](cfg)
    except (EntguessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
