"""One benchmark worker: a fresh process that runs one workload's CLI
invocations in a closed loop through entguess.cli.main, one at a time.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <out-prefix>

One untimed warm-up invocation comes first.  Then, for `seconds`, each
invocation starts when the previous one has returned.  With trace 1 every
invocation seed runs twice, once plain and once traced (alternating which
goes first), so the tracing overhead is measured on identical work.  Every
invocation writes its output to a file with --output, and the output is
checked after the timed call.  <out-prefix>.worker.json receives the
per-invocation records, peak RSS, provenance and, when traced, per-layer
aggregates; the spans themselves go to <out-prefix>.spans.csv.gz.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy

import workloads as wl
from tracer import Tracer


def run(w, seed, seconds, tracer=None):
    """Invoke the workload for `seconds` after one warm-up; return records."""
    cli = wl.import_cli()
    refs = wl.load_refs(w)
    tmp = wl.OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    output = tmp / "out.json"
    records = []

    def invoke(inv_seed, timed, traced):
        argv = wl.argv_for(w, inv_seed, output)
        if traced:
            tracer.invocation = len(records)
            tracer.install()
        rc = None
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        text = output.read_text() if output.exists() else ""
        output.unlink(missing_ok=True)
        records.append({
            "argv": argv,
            "timed": timed,
            "traced": traced,
            "seconds": elapsed,
            "rc": rc,
            "failed": wl.failed_ops(w, rc, text, refs[inv_seed]),
        })

    seeds = wl.invocation_seeds(w.name, seed)
    try:
        invoke(next(seeds), timed=False, traced=False)
        deadline = time.perf_counter() + seconds
        traced_first = False
        while time.perf_counter() < deadline:
            inv_seed = next(seeds)
            if tracer is None:
                invoke(inv_seed, timed=True, traced=False)
            else:
                for traced in (traced_first, not traced_first):
                    invoke(inv_seed, timed=True, traced=traced)
                traced_first = not traced_first
    finally:
        tmp.rmdir()
    return records


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded, or None."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    """HEAD's commit from .git, without running git; None outside a clone."""
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, trace):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload_seed": seed,
        "traced": bool(trace),
    }


def main(argv):
    name, seed, seconds, trace, prefix = argv
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    w = wl.WORKLOADS[name]
    tracer = Tracer() if trace else None
    records = run(w, seed, seconds, tracer)
    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(seed, trace),
    }
    if tracer is not None:
        _, calls, self_s = tracer.per_invocation()
        result["trace"] = {
            "names": list(tracer.names),
            "absent": tracer.absent,
            "calls": calls.tolist(),
            "self_s": self_s.tolist(),
        }
        tracer.write_spans(f"{prefix}.spans.csv.gz")
    Path(f"{prefix}.worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
