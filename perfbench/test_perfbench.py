"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import itertools
import json

import pytest

import worker
import workloads as wl
from tracer import Tracer

cli = wl.import_cli()


def _invoke(w, seed):
    wl.OUT.mkdir(exist_ok=True)
    out = wl.OUT / f"test-{w.name}.json"
    rc = cli.main(wl.argv_for(w, seed, out))
    text = out.read_text()
    out.unlink()
    return rc, text


@pytest.fixture(scope="module")
def verify_small():
    w = wl.WORKLOADS["verify-small"]
    seed = wl.POOL[5]
    rc, text = _invoke(w, seed)
    return w, rc, json.loads(text), wl.load_refs(w)[seed]


def test_recorded_output_passes(verify_small):
    w, rc, reports, ref = verify_small
    assert rc == 0
    assert wl.failed_ops(w, rc, json.dumps(reports), ref) == 0


def test_flipped_verdict_fails_its_state(verify_small):
    w, rc, reports, ref = verify_small
    reports = json.loads(json.dumps(reports))
    reports[7]["verdict"] = "violated"
    reports[9]["verdict"] = "violated"
    # judged per report, whatever the exit code says
    assert wl.failed_ops(w, rc, json.dumps(reports), ref) == 2
    assert wl.failed_ops(w, 1, json.dumps(reports), ref) == 2


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_side_beyond_tolerance_fails_its_state(verify_small, side):
    w, rc, reports, ref = verify_small
    reports = json.loads(json.dumps(reports))
    reports[3][side] += 10 * w.tolerance
    assert wl.failed_ops(w, rc, json.dumps(reports), ref) == 1
    reports[3][side] -= 9.9 * w.tolerance
    assert wl.failed_ops(w, rc, json.dumps(reports), ref) == 0


def test_missing_report_or_output_fails_every_state(verify_small):
    w, rc, reports, ref = verify_small
    assert wl.failed_ops(w, rc, json.dumps(reports[:-1]), ref) == w.states
    assert wl.failed_ops(w, 2, "", ref) == w.states


def test_nonzero_exit_fails_at_least_one_state(verify_small):
    w, _, reports, ref = verify_small
    assert wl.failed_ops(w, 1, json.dumps(reports), ref) == 1


def test_game_checks_exit_code_and_analytic_rate():
    w = wl.WORKLOADS["game"]
    seed = wl.POOL[0]
    rc, text = _invoke(w, seed)
    ref = wl.load_refs(w)[seed]
    assert wl.failed_ops(w, rc, text, ref) == 0
    assert wl.failed_ops(w, 1, text, ref) == 1
    doc = json.loads(text)
    doc["analytic_rate"] += 10 * w.tolerance
    assert wl.failed_ops(w, rc, json.dumps(doc), ref) == 1


def test_two_traced_passes_count_the_same_calls():
    w = wl.WORKLOADS["verify-small"]
    original = cli.main
    counts = []
    for _ in range(2):
        tracer = Tracer()
        # one warm-up, then one plain and one traced invocation
        records = worker.run(w, seed=11, seconds=1e-3, tracer=tracer)
        assert [r["traced"] for r in records] == [False, False, True]
        assert sum(r["failed"] for r in records) == 0
        ids, calls, self_s = tracer.per_invocation()
        assert ids.tolist() == [2]
        assert (self_s >= 0).all()
        counts.append(dict(zip(tracer.names, calls[0].tolist())))
    assert cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == 1
    assert counts[0]["linops.func_on_support"] == 18 * w.states
    assert counts[0]["relations.monogamy_report"] == 0


def test_absent_name_is_reported_not_fatal():
    tracer = Tracer(names=("linops.func_on_support", "linops.removed_function", "cli.main"))
    tracer.invocation = 0
    tracer.install()
    try:
        rc, _ = _invoke(wl.WORKLOADS["monogamy"], wl.POOL[0])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.absent == ["linops.removed_function"]
    _, calls, _ = tracer.per_invocation()
    assert calls[0].tolist() == [13 * 200, 0, 1]


def test_invocation_seeds_follow_the_workload_seed():
    def first(seed):
        return list(itertools.islice(wl.invocation_seeds("verify-large", seed), 8))

    assert first(1) == first(1)
    assert first(1) != first(2)
    assert set(first(1)) <= set(wl.POOL)
