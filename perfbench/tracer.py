"""Spans around calls into entguess's public functions, installed from outside.

Modules bind names with `from .linops import func_on_support`, so install()
replaces every attribute of every loaded entguess module that is bound to a
traced function with one shared wrapper, and uninstall() puts the originals
back.  A traced class is wrapped at its __init__, so the span covers
construction and the validation in __post_init__.

Spans stay in memory as parallel arrays (name, start, end, parent,
invocation) until the run ends.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread, so children
nest inside their parent and never overlap.
"""

import csv
import functools
import gzip
import sys
import time
from array import array

import numpy as np

TRACED = (
    "states.DensityMatrix",
    "states.random_density",
    "states.random_pure",
    "linops.func_on_support",
    "linops.partial_trace",
    "designs.mub_family",
    "designs.design_defect",
    "entropies.measure_family",
    "entropies.h2nu",
    "entropies.h2nu_outcomes",
    "entropies.cq_collision",
    "entropies.pgm_guess_prob",
    "entropies.d0_relative",
    "relations.equality_report",
    "relations.monogamy_report",
    "game.simulate_game",
    "cli.main",
)


PACKAGE = "entguess"


class Tracer:
    def __init__(self, names=TRACED):
        self.names = tuple(names)
        self.absent = []
        self.invocation = -1
        self._name = array("i")
        self._parent = array("q")
        self._inv = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches = []

    def install(self):
        """Wrap every traced name that exists; record the others as absent."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for idx, qual in enumerate(self.names):
            mod_name, _, attr = qual.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            target = getattr(module, attr, None)
            if target is None:
                self.absent.append(qual)
            elif isinstance(target, type):
                self._patch(target, "__init__", self._wrap(idx, target.__init__))
            else:
                wrapper = self._wrap(idx, target)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is target:
                            self._patch(m, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, idx, fn):
        names, parents, invs = self._name, self._parent, self._inv
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(idx)
            parents.append(stack[-1])
            invs.append(self.invocation)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    def per_invocation(self):
        """Invocation ids, and calls[i, n] and self seconds[i, n] of traced name n
        in the i-th of them."""
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        inv = np.frombuffer(self._inv, dtype=np.int32).astype(np.int64)
        inv_ids, inv_idx = np.unique(inv, return_inverse=True)
        cell = inv_idx * len(self.names) + np.frombuffer(self._name, dtype=np.int32)
        size = len(inv_ids) * len(self.names)
        shape = (len(inv_ids), len(self.names))
        calls = np.bincount(cell, minlength=size).reshape(shape)
        self_s = np.bincount(cell, weights=dur - covered, minlength=size).reshape(shape)
        return inv_ids, calls, self_s

    def write_spans(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "invocation", "name", "parent", "start_s", "end_s"])
            for span, row in enumerate(
                zip(self._inv, self._name, self._parent, self._start, self._end)
            ):
                inv, name, parent, start, end = row
                out.writerow([span, inv, self.names[name], parent, repr(start), repr(end)])
