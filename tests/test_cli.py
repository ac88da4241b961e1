import copy
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import max_entangled_state
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import joint_tables_oracle, json_text_oracle, primes_below, pure_state_oracle

from entguess import (
    EntguessError,
    UnsupportedDimensionError,
    designs,
    mixed_rank_states,
    mub_family,
    relations,
)
from entguess.cli import (
    _COMMANDS,
    _MODE_OPTION,
    _SWEEP_ROWS,
    RunConfig,
    _chunks,
    _json_list_texts,
    _json_text,
    _reject_ignored_options,
    _write,
    build_parser,
    config_from_args,
    main,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


# argv of the verify runs whose outputs at seed 3 are recorded under GOLDEN
GOLDEN_VERIFY = [
    (["--relation", "main", "--d", "5", "--db", "2", "--nu", "0.3", "--samples", "4"],
     "verify-main"),
    (["--relation", "monogamy", "--d", "3", "--db", "2", "--de", "2", "--samples", "3"],
     "verify-monogamy"),
]
# argv of the game runs whose JSON at seed 3 is recorded under GOLDEN: they
# draw through random_density, random_separable and simulate_game's streams
GOLDEN_GAME = [
    (["--state", "random", "--d", "3", "--db", "2", "--rank", "2"], "game-random"),
    (["--state", "separable", "--d", "5", "--db", "2", "--trials", "100000"], "game-separable"),
]


# A report's `defect` is |lhs - rhs|, a few ulps whose last bits follow the
# OpenBLAS kernel: over the golden runs it reached 5 eps under the SkylakeX,
# Sandybridge, Nehalem and Prescott kernels and 6 eps under Haswell and Zen,
# so it is held to twice the largest, and every other byte is pinned.
DEFECT_BOUND = 12 * np.finfo(float).eps
# the defect of a JSON report, and the third cell of a CSV row, after lhs and rhs
DEFECT_FIELD = {"json": re.compile(r'^(    "defect": )([^,]*),$', re.M),
                "csv": re.compile(r"^(\d[^,]*,[^,]*,)([^,]*),", re.M)}


def golden_verify_matches(capsys, tmp_path, argv, name, fmt) -> bool:
    """Whether the verify run writes the recorded file, byte for byte but for
    each `defect`, which is instead held to DEFECT_BOUND."""
    out_file = tmp_path / f"out.{fmt}"
    code, _, _ = run_cli(
        ["verify", *argv, "--seed", "3", "--format", fmt, "--output", str(out_file)], capsys
    )
    got, recorded = out_file.read_text(), (GOLDEN / f"{name}.{fmt}").read_text()
    field = DEFECT_FIELD[fmt]
    defects = [float(m[2]) for m in field.finditer(got)]
    return (code == 0 and field.sub(r"\1,", got) == field.sub(r"\1,", recorded)
            and bool(defects) and all(0.0 <= x <= DEFECT_BOUND for x in defects))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def mub_family_doc(d):
    return json.loads(json.dumps(mub_family(d).to_json_dict()))


def write_ideal_witness_file(path, d=2, n=2):
    fam = mub_family(d)
    rho = max_entangled_state(d)
    thetas = list(range(n))
    bob = [fam.vectors[t].conj() for t in thetas]
    tables = joint_tables_oracle(rho, fam, thetas, bob)
    settings = [
        {"theta": t, "table": np.maximum(table, 0.0).tolist()} for t, table in zip(thetas, tables)
    ]
    path.write_text(json.dumps({"d_a": d, "d_b": d, "settings": settings}))


class TestVerify:
    def test_main_relation_passes(self, capsys, tmp_path):
        out_file = tmp_path / "reports.json"
        code, _, _ = run_cli(
            ["verify", "--relation", "main", "--d", "3", "--db", "2",
             "--samples", "5", "--nu", "0", "--seed", "7", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        reports = json.loads(out_file.read_text())
        assert len(reports) == 5
        assert all(r["verdict"] == "holds" for r in reports)

    def test_unsupported_dimension_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["verify", "--relation", "main", "--d", "4", "--samples", "2"], capsys
        )
        assert code == 2
        assert "prime" in err

    def test_monogamy_relation(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--relation", "monogamy", "--d", "2", "--samples", "3",
             "--seed", "1"],
            capsys,
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 3

    def test_sic_family(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--family", "sic",
             "--samples", "3", "--seed", "2"],
            capsys,
        )
        assert code == 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["verdict"] == "holds"

    def test_csv_json_values_agree(self, capsys):
        args = ["verify", "--relation", "main", "--d", "3", "--samples", "3", "--seed", "8"]
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        _, csv_out, _ = run_cli(args + ["--format", "csv"], capsys)
        json_rows = json.loads(json_out)
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        for jr, cr in zip(json_rows, csv_rows):
            for key in ("lhs", "rhs", "defect"):
                assert f"{jr[key]:.12g}" == f"{float(cr[key]):.12g}"

    def test_zero_tolerance_reports_violations(self, capsys):
        # at tolerance 0 only a defect of exactly 0 holds; rounding makes most
        # defects nonzero, so some report is flagged
        code, out, _ = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "4",
             "--seed", "5", "--tolerance", "0"],
            capsys,
        )
        reports = json.loads(out)
        for r in reports:
            assert r["verdict"] == ("violated" if r["defect"] > 0 else "holds")
        violated = any(r["verdict"] == "violated" for r in reports)
        assert violated
        assert code == (1 if violated else 0)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_usage_error(self, capsys, samples):
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", samples], capsys
        )
        assert code == 2
        assert "samples" in err
        assert out == ""

    @pytest.mark.parametrize("samples", [2**64 + 1, 10**30])
    def test_samples_beyond_the_streams_is_usage_error(self, capsys, samples):
        # state i comes from stream i, and stream indices repeat mod 2^64
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", "3", "--db", "2", "--samples", str(samples)],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: samples must be <= 2**64, got {samples}\n")

    def test_chunk_ranges_are_made_as_read(self):
        # 2048 states of 2 x 2 fill a chunk; 10^30 states would not fit a list
        ranges = _chunks(10**30, 2)
        assert [next(ranges), next(ranges)] == [(0, 2048), (2048, 4096)]

    @pytest.mark.parametrize(
        "args",
        [
            ["--relation", "main", "--d", "3", "--db", "0"],
            ["--relation", "monogamy", "--d", "2", "--de", "0"],
            ["--relation", "monogamy", "--d", "2", "--db", "-1", "--de", "-1"],
        ],
    )
    def test_zero_dimension_is_usage_error(self, capsys, args):
        code, _, err = run_cli(["verify", *args, "--samples", "2"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_family_from_file(self, capsys, tmp_path):
        fam_file = tmp_path / "mub3.json"
        fam_file.write_text(json.dumps(mub_family(3).to_json_dict()))
        code, out, _ = run_cli(
            ["verify", "--relation", "main", "--d", "3", "--samples", "2",
             "--family", f"file:{fam_file}"],
            capsys,
        )
        assert code == 0
        assert all(r["verdict"] == "holds" for r in json.loads(out))

    def test_family_file_is_certified_on_every_load(self, capsys, tmp_path):
        # a complete set of bases with one basis twice: not a 2-design
        fam_file = tmp_path / "family.json"
        argv = ["verify", "--relation", "main", "--d", "3", "--samples", "2",
                "--family", f"file:{fam_file}"]
        doc = mub_family_doc(3)
        fam_file.write_text(json.dumps(doc))
        assert run_cli(argv, capsys)[0] == 0
        doc["settings"][1] = doc["settings"][0]
        fam_file.write_text(json.dumps(doc))
        for _ in range(2):
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert "design defect" in err

    def test_family_file_dimension_mismatch(self, capsys, tmp_path):
        fam_file = tmp_path / "mub3.json"
        fam_file.write_text(json.dumps(mub_family(3).to_json_dict()))
        code, _, err = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "2",
             "--family", f"file:{fam_file}"],
            capsys,
        )
        assert code == 2


    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"equality_constant": 7.0}, "kind 'MUB-complete' requires equality_constant 4.0"),
            ({"equality_constant": "drop"}, "kind 'MUB-complete' requires equality_constant 4.0"),
            ({"kind": "SIC"}, "kind 'SIC' requires equality_constant 12.0"),
            ({"d": 2, "equality_constant": 3.0}, "family document has d = 2, vectors of length 3"),
            ({"d": 10**400}, f"family document has d = {10**400}, vectors of length 3"),
            # consistent, and a 2-design, but its kind fixes no equality constant
            ({"kind": "Custom", "equality_constant": "drop"},
             "family 'Custom' carries no equality constant"),
        ],
        ids=["wrong-constant", "no-constant", "other-kind", "wrong-d", "huge-d", "custom-kind"],
    )
    def test_family_file_contradicting_itself_is_usage_error(self, capsys, tmp_path, edit, message):
        # a "drop" value removes the key
        doc = {k: v for k, v in {**mub_family_doc(3), **edit}.items() if v != "drop"}
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", str(doc["d"]), "--samples", "2",
             "--family", f"file:{fam_file}"],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "family, d, code, err",
        [
            ("clifford", "2", 0, ""),
            ("clifford", "3", 2, "error: the Clifford-orbit family is qubit-only (d = 2)\n"),
            ("nosuch", "3", 2, "error: unknown family 'nosuch'\n"),
        ],
        ids=["clifford-qubit", "clifford-qutrit", "unknown"],
    )
    def test_family_name(self, capsys, family, d, code, err):
        got = run_cli(
            ["verify", "--relation", "main", "--d", d, "--samples", "2", "--family", family],
            capsys,
        )
        assert (got[0], got[2]) == (code, err)
        if code == 0:
            assert all(r["verdict"] == "holds" for r in json.loads(got[1]))

    def test_unknown_relation_is_usage_error(self, capsys):
        # argparse's choices reject it before cmd_verify runs
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--relation", "nosuch", "--d", "3"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "invalid choice: 'nosuch'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, capsys, tolerance):
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "2",
             "--tolerance", tolerance],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tolerance" in err

    @pytest.mark.parametrize("command", ["verify", "game"])
    @pytest.mark.parametrize(
        "settings",
        [[], [[{"weight": 1.0, "re": [1.0, 0.0], "im": [0.0, 0.0]}]]],
        ids=["no-setting", "short-setting"],
    )
    def test_family_file_without_full_settings(self, capsys, tmp_path, command, settings):
        doc = mub_family_doc(2)
        doc["settings"] = settings if not settings else [doc["settings"][0], *settings]
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(doc))
        args = ["--relation", "main", "--samples", "2"] if command == "verify" else []
        code, out, err = run_cli(
            [command, *args, "--d", "2", "--family", f"file:{fam_file}"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed family document")


    def test_family_file_with_nan_is_usage_error(self, capsys, tmp_path):
        doc = mub_family_doc(2)
        doc["settings"][0][0]["re"][0] = float("nan")
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "2",
             "--family", f"file:{fam_file}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("defect", ["not-utf8", "huge-d"])
    def test_undecodable_family_file_is_usage_error(self, capsys, tmp_path, defect):
        doc = mub_family_doc(2)
        doc["d"] = "D"
        text = json.dumps(doc).replace('"D"', "1e400").encode()
        fam_file = tmp_path / "fam.json"
        fam_file.write_bytes(b"\xff" + text if defect == "not-utf8" else text)
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "2",
             "--family", f"file:{fam_file}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed family document")

    @pytest.mark.parametrize("value", ["2.7", "2.0", "true"])
    def test_non_integral_family_dimension_is_usage_error(self, capsys, tmp_path, value):
        doc = mub_family_doc(2)
        doc["d"] = "D"
        fam_file = tmp_path / "fam.json"
        fam_file.write_text(json.dumps(doc).replace('"D"', value))
        code, out, err = run_cli(
            ["verify", "--relation", "main", "--d", "2", "--samples", "2",
             "--family", f"file:{fam_file}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed family document")

    @pytest.mark.parametrize(
        "d, d_b, samples, chunks",
        [(7, 4, 3, [3]), (7, 4, 11, [10, 1]), (31, 8, 2, [1, 1])],
        ids=["fewer-than-a-chunk", "chunk-plus-one", "chunk-of-one"],
    )
    def test_states_run_in_chunks_that_match_single_states(
        self, capsys, monkeypatch, tmp_path, d, d_b, samples, chunks
    ):
        # a chunk holds about 2**17 bytes of d*d_b-square matrices
        batched = []
        original = relations.equality_report

        def spy(rho, family, nu, tolerance):
            reports = original(rho, family, nu, tolerance)
            batched.append((rho, family, reports))
            return reports

        monkeypatch.setattr(relations, "equality_report", spy)
        code, _, _ = run_cli(
            ["verify", "--relation", "main", "--d", str(d), "--db", str(d_b), "--nu", "0.5",
             "--samples", str(samples), "--seed", "9", "--output", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 0
        assert [len(reports) for _, _, reports in batched] == chunks
        states = np.concatenate([rho.matrix for rho, _, _ in batched])
        assert np.array_equal(states, mixed_rank_states(d, d_b, samples, seed=9).matrix)
        for rho, family, reports in batched:
            for i, report in enumerate(reports):
                single = original(rho[i], family, 0.5, report.tolerance)
                assert abs(report.lhs - single.lhs) < 1e-14
                assert abs(report.rhs - single.rhs) < 1e-14

    @staticmethod
    def _monogamy_chunks(capsys, monkeypatch, tmp_path, d, d_b, d_e, samples):
        """The (chunk lengths, rule's lengths, drawn vectors, expected vectors) of a
        monogamy run at seed 9."""
        batched = []
        original = relations.monogamy_report

        def spy(psi, dims, mubs, tolerance):
            batched.append(psi)
            return original(psi, dims, mubs, tolerance)

        monkeypatch.setattr(relations, "monogamy_report", spy)
        code, _, _ = run_cli(
            ["verify", "--relation", "monogamy", "--d", str(d), "--db", str(d_b),
             "--de", str(d_e), "--samples", str(samples), "--seed", "9",
             "--output", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 0
        # a chunk is sized by the larger of rho_AB (d*d_B square) and rho_E (d_E square)
        rule = [stop - start for start, stop in _chunks(samples, max(d * d_b, d_e))]
        expected = [pure_state_oracle(9, i, d * d_b * d_e) for i in range(samples)]
        return [len(psi) for psi in batched], rule, np.concatenate(batched), np.array(expected)

    def test_monogamy_chunks_draw_random_pure_states(self, capsys, monkeypatch, tmp_path):
        # 5 x 3 x 4 gives chunks of 36 states, sized by rho_AB; state i is,
        # bit for bit, the normalized Gaussian of stream i
        lengths, rule, drawn, expected = self._monogamy_chunks(
            capsys, monkeypatch, tmp_path, 5, 3, 4, 80
        )
        assert lengths == rule and len(lengths) == 3
        assert np.array_equal(drawn, expected)

    def test_monogamy_chunks_sized_by_rho_e(self, capsys, monkeypatch, tmp_path):
        # at 3 x 1 x 40 rho_E, 40 x 40, sets the chunk: 5 states, where
        # rho_AB alone would allow 910
        lengths, rule, drawn, expected = self._monogamy_chunks(
            capsys, monkeypatch, tmp_path, 3, 1, 40, 12
        )
        assert lengths == rule and len(lengths) == 3
        assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_holds_one_chunk_of_reports_at_a_time(self, capsys, monkeypatch, tmp_path, fmt):
        # 7 x 4 gives chunks of 10 states; every chunk is written before the
        # next is drawn, so no earlier chunk's reports are alive by then
        refs, alive = [], []
        original = relations.equality_report

        def spy(rho, family, nu, tolerance):
            alive.append(sum(ref() is not None for ref in refs))
            reports = original(rho, family, nu, tolerance)
            refs.extend(weakref.ref(r) for r in reports)
            return reports

        monkeypatch.setattr(relations, "equality_report", spy)
        code, _, _ = run_cli(
            ["verify", "--relation", "main", "--d", "7", "--db", "4", "--samples", "40",
             "--format", fmt, "--output", str(tmp_path / f"r.{fmt}")],
            capsys,
        )
        assert code == 0
        assert alive == [0, 10, 10, 10]

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_failure_after_the_first_chunk_leaves_no_file(
        self, capsys, monkeypatch, tmp_path, to_file
    ):
        calls = []
        original = relations.equality_report

        def second_chunk_nan(rho, family, nu, tolerance):
            reports = original(rho, family, nu, tolerance)
            calls.append(len(reports))
            if len(calls) == 2:
                reports[3] = replace(reports[3], lhs=float("nan"))
            return reports

        monkeypatch.setattr(relations, "equality_report", second_chunk_nan)
        out_file = tmp_path / "r.json"
        argv = ["verify", "--relation", "main", "--d", "7", "--db", "4", "--samples", "25"]
        code, out, err = run_cli(argv + ["--output", str(out_file)] * to_file, capsys)
        assert (code, calls) == (2, [10, 10])
        assert err.startswith("error: output holds a non-finite value") and err.count("\n") == 1
        assert not out_file.exists()
        if to_file:
            assert out == ""
        else:  # stdout keeps the first chunk's reports, in a list never closed
            assert len(json.loads(out + "\n]")) == 10

    @pytest.mark.parametrize("existing", [None, "kept"], ids=["new", "existing"])
    def test_failure_in_the_first_chunk_writes_nothing(self, capsys, tmp_path, existing):
        # an uncertified family fails before any report exists
        fam_file, out_file = tmp_path / "family.json", tmp_path / "r.json"
        doc = mub_family_doc(3)
        doc["settings"][1] = doc["settings"][0]
        fam_file.write_text(json.dumps(doc))
        if existing:
            out_file.write_text(existing)
        for output in ([], ["--output", str(out_file)]):
            code, out, err = run_cli(
                ["verify", "--relation", "main", "--d", "3", "--samples", "2",
                 "--family", f"file:{fam_file}", *output],
                capsys,
            )
            assert (code, out) == (2, "")
            assert "design defect" in err
        assert (out_file.read_text() if out_file.exists() else None) == existing

    @pytest.mark.parametrize("relation, keys", [
        ("main", relations.EQUALITY_METADATA), ("monogamy", relations.MONOGAMY_METADATA),
    ])
    def test_csv_header_is_the_declared_metadata(self, capsys, relation, keys):
        code, out, _ = run_cli(
            ["verify", "--relation", relation, "--d", "3", "--db", "2", "--samples", "2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["lhs", "rhs", "defect", "tolerance", "verdict", *keys]
        assert list(keys) == sorted(keys)


class TestSweep:
    def test_known_rows(self, capsys):
        code, out, _ = run_cli(["sweep", "--d", "5", "--grid", "6", "--format", "json"], capsys)
        assert code == 0
        rows = {(r["fpg"], r["n"]): r for r in json.loads(out)}
        assert rows[(1.0, 6)]["lower"] == 1.0 and rows[(1.0, 6)]["upper"] == 1.0
        assert rows[(0.2, 6)]["lower"] == pytest.approx(1 / 3, abs=1e-12)
        assert rows[(0.2, 6)]["upper"] == pytest.approx(1 / 3, abs=1e-12)
        assert rows[(0.2, 1)]["lower"] == pytest.approx(0.2, abs=1e-12)
        assert rows[(0.2, 1)]["upper"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_json_numeric_agreement(self, capsys):
        _, json_out, _ = run_cli(["sweep", "--d", "3", "--grid", "21", "--format", "json"], capsys)
        _, csv_out, _ = run_cli(["sweep", "--d", "3", "--grid", "21", "--format", "csv"], capsys)
        json_rows = json.loads(json_out)
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(json_rows) == len(csv_rows) == 4 * 21
        for jr, cr in zip(json_rows, csv_rows):
            for key in ("fpg", "lower", "upper"):
                assert f"{jr[key]:.12g}" == f"{float(cr[key]):.12g}"

    def test_rows_keep_their_order_across_write_batches(self, capsys):
        grid = _SWEEP_ROWS + 1
        code, out, _ = run_cli(["sweep", "--d", "2", "--grid", str(grid)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["n"]) for r in rows] == [n for n in (1, 2, 3) for _ in range(grid)]
        fpg = [f"{x:.12g}" for x in np.linspace(0.0, 1.0, grid)]
        assert [r["fpg"] for r in rows] == fpg * 3

    def test_rejects_bad_grid(self, capsys):
        code, _, err = run_cli(["sweep", "--d", "5", "--grid", "1"], capsys)
        assert code == 2
        assert "grid" in err

    def test_rejects_non_prime(self, capsys):
        # exactly the primes pass, and the rest get mub_family's message
        primes = primes_below(101)
        for d in range(1, 101):
            code, _, err = run_cli(["sweep", "--d", str(d), "--grid", "2"], capsys)
            assert code == (0 if d in primes else 2), d
            if d not in primes:
                with pytest.raises(UnsupportedDimensionError) as info:
                    mub_family(d)
                assert err == f"error: {info.value}\n"

    def test_large_prime_builds_no_family(self, capsys, monkeypatch):
        def build(d):
            raise AssertionError(f"the sweep built the MUB family for d = {d}")

        monkeypatch.setattr(designs, "_gauss_sum_bases", build)
        code, out, _ = run_cli(["sweep", "--d", "1009", "--grid", "2"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 1010 * 2

    def test_unaddressable_d_rejected_before_primality(self, capsys, monkeypatch):
        def trial_division(n):
            raise AssertionError("the primality test ran")

        monkeypatch.setattr(designs, "_is_prime", trial_division)
        code, out, err = run_cli(["sweep", "--d", str(2**61 - 1)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a complete MUB set for d = 2305843009213693951 takes more")

    @pytest.mark.parametrize("grid", [2**62, 10**30], ids=["2^62", "10^30"])
    def test_grid_too_large_to_allocate_is_usage_error(self, capsys, grid):
        # numpy refuses both sizes before it allocates anything
        code, out, err = run_cli(["sweep", "--d", "3", "--grid", str(grid)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: a grid of {grid} points cannot be allocated")


class TestWitnessCommand:
    def test_ideal_statistics_certify(self, capsys, tmp_path):
        f = tmp_path / "ideal.json"
        write_ideal_witness_file(f)
        code, out, _ = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 0
        assert "ENTANGLED (2.000 > 1.500)" in out

    def test_uniform_statistics_inconclusive(self, capsys, tmp_path):
        f = tmp_path / "uniform.json"
        doc = {
            "d_a": 2,
            "d_b": 2,
            "settings": [
                {"theta": t, "table": [[0.25, 0.25], [0.25, 0.25]]} for t in (0, 1)
            ],
        }
        f.write_text(json.dumps(doc))
        code, out, _ = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 3
        assert "INCONCLUSIVE" in out

    def test_unwritable_output_prints_no_verdict(self, capsys, tmp_path):
        f, report = tmp_path / "ideal.json", tmp_path / "missing" / "report.json"
        write_ideal_witness_file(f)
        code, out, err = run_cli(["witness", "--input", str(f), "--output", str(report)], capsys)
        assert (code, out, err) == (2, "", f"error: [Errno 2] No such file or directory: '{report}'\n")

    def test_output_file_holds_the_report(self, capsys, tmp_path):
        f, report = tmp_path / "ideal.json", tmp_path / "report.json"
        write_ideal_witness_file(f)
        code, out, _ = run_cli(["witness", "--input", str(f), "--output", str(report)], capsys)
        assert (code, out) == (0, "ENTANGLED (2.000 > 1.500)\n")
        (doc,) = json.loads(report.read_text())
        assert (doc["lhs"], doc["rhs"], doc["verdict"]) == (2.0, 1.5, "violated")
        assert doc["metadata"] == {"n": 2, "d_a": 2, "thetas": [0, 1], "entangled": True}

    def test_unnormalized_table_is_schema_error(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        doc = {
            "d_a": 2,
            "d_b": 2,
            "settings": [{"theta": 0, "table": [[0.25, 0.25], [0.25, 0.15]]}],
        }
        f.write_text(json.dumps(doc))
        code, _, err = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 2
        assert "settings[0]" in err

    def test_not_json_is_schema_error(self, capsys, tmp_path):
        f = tmp_path / "garbage.json"
        f.write_text("{nope")
        code, _, err = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 2

    @pytest.mark.parametrize("defect", ["not-utf8", "huge-d_a"])
    def test_undecodable_statistics_file_is_schema_error(self, capsys, tmp_path, defect):
        f = tmp_path / "w.json"
        write_ideal_witness_file(f)
        text = f.read_bytes()
        huge = text.replace(b'"d_a": 2', b'"d_a": 1e400')
        f.write_bytes(b"\xff" + text if defect == "not-utf8" else huge)
        code, out, err = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed joint-distribution document")

    @pytest.mark.parametrize(
        "field, value",
        [(b'"d_a": 2', b'"d_a": 2.0'), (b'"d_b": 2', b'"d_b": true'),
         (b'"theta": 1', b'"theta": 1.5')],
        ids=["float-d_a", "bool-d_b", "fractional-theta"],
    )
    def test_non_integral_statistics_field_is_schema_error(self, capsys, tmp_path, field, value):
        f = tmp_path / "w.json"
        write_ideal_witness_file(f)
        text = f.read_bytes()
        assert field in text
        f.write_bytes(text.replace(field, value))
        code, out, err = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed joint-distribution document")

    def test_nan_table_is_schema_error(self, capsys, tmp_path):
        # Python's json reads NaN; the NaN column must not be skipped into a verdict
        f = tmp_path / "nan.json"
        f.write_text(
            '{"d_a": 2, "d_b": 2, "settings": ['
            '{"theta": 0, "table": [[0.5, 0.0], [0.0, 0.5]]}, '
            '{"theta": 1, "table": [[NaN, 0.0], [0.0, 0.5]]}]}'
        )
        code, out, err = run_cli(["witness", "--input", str(f)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: settings[1]")


    @pytest.mark.parametrize("tolerance", ["-0.5", "nan"])
    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path, tolerance):
        # one Z-basis table of the product state |0>|0>: lhs = rhs = 1
        f = tmp_path / "product.json"
        doc = {"d_a": 2, "d_b": 2, "settings": [{"theta": 0, "table": [[1.0, 0.0], [0.0, 0.0]]}]}
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(["witness", "--input", str(f), "--tolerance", tolerance], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tolerance" in err


class TestGameCommand:
    def test_max_entangled(self, capsys, tmp_path):
        out_file = tmp_path / "game.json"
        code, _, _ = run_cli(
            ["game", "--state", "max-entangled", "--d", "2", "--trials", "5000",
             "--seed", "1", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["empirical_rate"] == 1.0

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
    def test_max_entangled_in_band_at_every_prime(self, capsys, d):
        # every trial wins; at d = 3 and 11 the analytic rate rounds above 1
        code, out, _ = run_cli(
            ["game", "--state", "max-entangled", "--d", str(d), "--trials", "1000"], capsys
        )
        assert code == 0
        assert json.loads(out)["wins"] == 1000

    def test_maximally_mixed(self, capsys):
        code, out, _ = run_cli(
            ["game", "--state", "maximally-mixed", "--d", "2", "--trials", "20000",
             "--seed", "3"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["empirical_rate"] - 0.5) <= 4 * doc["std_error"]

    @pytest.mark.parametrize(
        "state, code, err",
        [("separable", 0, ""), ("nosuch", 2, "error: unknown state specifier 'nosuch'\n")],
    )
    def test_state_name(self, capsys, state, code, err):
        got = run_cli(
            ["game", "--state", state, "--d", "3", "--db", "2", "--trials", "20000", "--seed", "5"],
            capsys,
        )
        assert (got[0], got[2]) == (code, err)
        if code == 0:
            doc = json.loads(got[1])
            assert abs(doc["empirical_rate"] - doc["analytic_rate"]) <= 4 * doc["std_error"]

    def test_random_reproducible(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["game", "--state", "random", "--d", "3", "--trials", "20000", "--seed", "9"]
        assert run_cli(args + ["--output", str(f1)], capsys)[0] == 0
        assert run_cli(args + ["--output", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_state_from_file(self, capsys, tmp_path):
        rho = max_entangled_state(2)
        f = tmp_path / "state.json"
        f.write_text(json.dumps({
            "dims": [2, 2],
            "re": rho.matrix.real.tolist(),
            "im": rho.matrix.imag.tolist(),
        }))
        code, out, _ = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "1000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["empirical_rate"] == 1.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_non_finite_state_file_is_usage_error(self, capsys, tmp_path, index, value):
        m = np.eye(4) / 4
        m[index, index] = float(value)
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"dims": [2, 2], "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
        code, out, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: matrix deviates from Hermitian by nan")

    def test_non_psd_state_file_is_usage_error(self, capsys, tmp_path):
        # Hermitian and trace one, so only the positivity certificate rejects it
        m = np.diag([0.6, 0.6, 0.1, -0.3])
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"dims": [2, 2], "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
        code, out, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: negative eigenvalue -3.000e-01\n"

    def test_malformed_state_json_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "garbage.json"
        f.write_text("{nope")
        code, _, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2
        assert "malformed density-matrix document" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--state", "random", "--rank", "0"],
            ["--state", "random", "--db", "0"],
            ["--state", "maximally-mixed", "--db", "0"],
            ["--state", "maximally-mixed", "--d", "3", "--db", "-1"],
            ["--state", "separable", "--db", "-1"],
        ],
    )
    def test_zero_rank_or_dimension_is_usage_error(self, capsys, args):
        code, _, err = run_cli(["game", "--d", "2", *args, "--trials", "10"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_bad_state_file_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "bad_state.json"
        f.write_text(json.dumps({"dims": [2, 2], "re": [[1.0]]}))
        code, _, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2


    @pytest.mark.parametrize("defect", ["not-utf8", "infinite-dims"])
    def test_undecodable_state_file_is_usage_error(self, capsys, tmp_path, defect):
        rho = max_entangled_state(2)
        text = json.dumps({
            "dims": ["D", 2],
            "re": rho.matrix.real.tolist(),
            "im": rho.matrix.imag.tolist(),
        }).replace('"D"', "Infinity" if defect == "infinite-dims" else "2").encode()
        f = tmp_path / "state.json"
        f.write_bytes(b"\xff" + text if defect == "not-utf8" else text)
        code, out, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed density-matrix document")

    def test_non_integer_dims_is_usage_error(self, capsys, tmp_path):
        rho = max_entangled_state(2)
        f = tmp_path / "state.json"
        f.write_text(json.dumps({
            "dims": ["a", 2],
            "re": rho.matrix.real.tolist(),
            "im": rho.matrix.imag.tolist(),
        }))
        code, _, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2
        assert err.startswith("error: malformed density-matrix document")

    @pytest.mark.parametrize("dims", ["[2.7, 2]", "[2, 2.0]", "[true, 4]"])
    def test_non_integral_dims_is_usage_error(self, capsys, tmp_path, dims):
        rho = max_entangled_state(2)
        f = tmp_path / "state.json"
        f.write_text(json.dumps({
            "dims": "DIMS",
            "re": rho.matrix.real.tolist(),
            "im": rho.matrix.imag.tolist(),
        }).replace('"DIMS"', dims))
        code, out, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "2", "--trials", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed density-matrix document")

    def test_state_file_dimension_mismatch(self, capsys, tmp_path):
        rho = max_entangled_state(2)
        f = tmp_path / "state.json"
        f.write_text(json.dumps({
            "dims": [2, 2],
            "re": rho.matrix.real.tolist(),
            "im": rho.matrix.imag.tolist(),
        }))
        code, out, err = run_cli(
            ["game", "--state", f"file:{f}", "--d", "3", "--trials", "10"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: state file is for d_A = 2")

    @pytest.mark.parametrize("trials", [10**29, 2**63])
    def test_trials_beyond_int64_is_usage_error(self, capsys, trials):
        code, out, err = run_cli(
            ["game", "--state", "random", "--d", "3", "--db", "2", "--trials", str(trials)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == f"error: trials must fit the int64 trial counters, got {trials}\n"

    def test_setting_without_trials_is_valid_json(self, capsys):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        code, out, _ = run_cli(["game", "--d", "3", "--db", "2", "--trials", "1"], capsys)
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        empty = [e for e in doc["per_setting"] if e["trials"] == 0]
        assert len(empty) == 3
        assert all(e["empirical_rate"] is None and e["std_error"] is None for e in empty)

    def test_non_finite_output_is_an_error(self):
        message = "output holds a non-finite value: Out of range float values are not JSON compliant: nan"
        with pytest.raises(EntguessError, match=rf"^{message}$"):
            _json_text({"lhs": float("nan")})


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--relation", "main", "--d", "2", "--de", "2"],
        ["verify", "--relation", "monogamy", "--d", "2", "--family", "sic"],
        ["verify", "--relation", "monogamy", "--d", "2", "--nu", "0.7"],
        ["game", "--state", "max-entangled", "--d", "2", "--db", "5"],
        ["game", "--state", "file:state.json", "--d", "2", "--db", "2"],
        ["game", "--state", "max-entangled", "--d", "2", "--rank", "1"],
        ["game", "--state", "maximally-mixed", "--d", "2", "--rank", "1"],
        ["game", "--state", "separable", "--d", "2", "--rank", "1"],
        ["game", "--state", "file:state.json", "--d", "2", "--rank", "1"],
    ],
    ids=["main-de", "monogamy-family", "monogamy-nu", "max-entangled-db", "file-db",
         "max-entangled-rank", "maximally-mixed-rank", "separable-rank", "file-rank"],
)
def test_ignored_option_is_usage_error(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    option = argv[-2]
    mode = " ".join(argv[:3])
    assert (code, out, err) == (2, "", f"error: {option} has no effect on {mode}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "--d=--"],
        ["verify", "--relation", "main", "--d", "3", "--seed=--"],
        ["witness", "--input=--"],
        ["sweep", "--d", "3", "--grid", "2", "--output=--"],
    ],
    ids=["game-d", "verify-seed", "witness-input", "sweep-output"],
)
def test_lone_double_dash_value_is_usage_error(capsys, argv):
    # Python 3.11's argparse reads the value of --option=-- as an empty list
    code, out, err = run_cli(argv, capsys)
    option = argv[-1].split("=")[0]
    assert (code, out, err) == (2, "", f"error: {option} needs a value, not a lone '--'\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        # numpy could not address the family or the state: rejected from the dimensions
        (["verify", "--relation", "main", "--d", "7", "--db", "1000000000", "--samples", "1"],
         "error: a 7000000000 x 7000000000 matrix takes more than"),
        (["verify", "--relation", "main", "--d", "2305843009213693951", "--samples", "1"],
         "error: a complete MUB set for d = 2305843009213693951 takes more than"),
        (["sweep", "--d", "2305843009213693951"],
         "error: a complete MUB set for d = 2305843009213693951 takes more than"),
        (["game", "--d", "7", "--db", "1000000000", "--trials", "10"],
         "error: a 7000000000 x 7000000000 state takes more than"),
        # addressable, but each first array is above 2^47 bytes, beyond a 47-bit
        # address space, so the allocation fails before any page is touched
        (["verify", "--relation", "main", "--d", "7", "--db", "1000000", "--samples", "1"],
         "error: out of memory: "),
        (["game", "--d", "7", "--db", "1000000", "--trials", "10"],
         "error: out of memory: "),
        (["verify", "--relation", "monogamy", "--d", "5", "--db", "4194304", "--de", "4194304",
          "--samples", "1"],
         "error: out of memory: "),
        # rho_E is that large; the allocation fails before the vector's draw,
        # whose 6e8 uniforms (4.8 GB) would run a small machine out of memory
        (["verify", "--relation", "monogamy", "--d", "3", "--db", "1", "--de", "100000000",
          "--samples", "1"],
         "error: out of memory: "),
    ],
    ids=["main-db-1e9", "main-d-2^61-1", "sweep-d-2^61-1", "game-db-1e9",
         "main-db-1e6", "game-db-1e6", "monogamy-db-de-2^22", "monogamy-de-1e8"],
)
def test_oversized_dimension_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(message)


# the two commands that take --seed
seeded_commands = pytest.mark.parametrize(
    "argv",
    [["verify", "--relation", "main", "--d", "3", "--db", "2", "--samples", "3"],
     ["game", "--d", "3", "--db", "2", "--trials", "10"]],
    ids=["verify", "game"],
)


@seeded_commands
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_seed_outside_the_philox_key_is_usage_error(capsys, argv, seed):
    # the samplers reduce a seed mod 2^64, so these would alias seeds in range
    code, out, err = run_cli([*argv, "--seed", str(seed)], capsys)
    assert (code, out, err) == (2, "", f"error: --seed must be in [0, 2**64), got {seed}\n")


@seeded_commands
def test_largest_seed_runs(capsys, argv):
    code, out, err = run_cli([*argv, "--seed", str(2**64 - 1)], capsys)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError(), "error: out of memory\n"),
     (MemoryError("Unable to allocate 8.00 EiB"), "error: out of memory: Unable to allocate 8.00 EiB\n")],
    ids=["bare", "with-text"],
)
def test_out_of_memory_is_usage_error(capsys, monkeypatch, error, message):
    def exhaust(cfg):
        raise error

    monkeypatch.setitem(_COMMANDS, "sweep", exhaust)
    assert run_cli(["sweep", "--d", "3"], capsys) == (2, "", message)


def test_write_removes_only_the_file_it_opened(tmp_path):
    def failing():
        yield "partial"
        raise KeyError

    target, link = tmp_path / "target", tmp_path / "link"
    link.symlink_to(target)
    for path in (target, link):
        with pytest.raises(KeyError):
            _write(str(path), failing())
    # neither the symlink, as /dev/stdout would not be, nor the file opened
    # through it is removed
    assert link.is_symlink() and target.read_text() == "partial"
    target.unlink()
    with pytest.raises(KeyError):
        _write(str(target), failing())
    assert not target.exists()


def test_failed_sweep_leaves_no_file(capsys, monkeypatch, tmp_path):
    rows = []
    original = relations.guessing_bounds

    def fail_on_fifth_row(fpg, d, n):
        rows.append(n)
        if len(rows) == 5:
            raise EntguessError("row failed")
        return original(fpg, d, n)

    monkeypatch.setattr(relations, "guessing_bounds", fail_on_fifth_row)
    out_file = tmp_path / "bounds.csv"
    code, out, err = run_cli(["sweep", "--d", "3", "--grid", "3", "--output", str(out_file)], capsys)
    assert (code, out, err) == (2, "", "error: row failed\n")
    assert not out_file.exists()


def test_runs_without_a_draw_leave_numpy_random_unloaded():
    # numpy.random, and through it secrets, hmac and OpenSSL, loads at the
    # first draw, not with the package: sweep and --help never draw
    script = (
        "import contextlib, io, sys\n"
        "import entguess.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert entguess.cli.main(['sweep', '--d', '3', '--grid', '3']) == 0\n"
        "    try:\n"
        "        entguess.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = Path(designs.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


# every RunConfig field but `command` specifies one option
OPTIONS = fields(RunConfig)[1:]
# the game states, which the parser takes as free text
GAME_STATES = ["max-entangled", "maximally-mixed", "random", "separable", "file:s.json"]


def has_effect(spec, command, mode) -> bool:
    ignored = spec.metadata["no_effect"].get(command)
    return not (ignored and ignored(mode))


def argv_of(cfg: RunConfig) -> list:
    """The argv that spells every option of `cfg` with an effect on its run."""
    mode = getattr(cfg, _MODE_OPTION[cfg.command]) if cfg.command in _MODE_OPTION else None
    return [cfg.command, *(
        f"--{spec.metadata['flag'] or spec.name}={getattr(cfg, spec.name)}"
        for spec in OPTIONS
        if cfg.command in spec.metadata["commands"] and getattr(cfg, spec.name) is not None
        and has_effect(spec, cfg.command, mode)
    )]


@st.composite
def valid_argvs(draw):
    """A command, its mode and some of the options with an effect there."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    mode = None  # the mode option comes first, before any option it can make ignored
    options = []
    for spec in OPTIONS:
        arguments = spec.metadata["commands"].get(command)
        if arguments is None or not has_effect(spec, command, mode):
            continue
        if "choices" in arguments:
            values = st.sampled_from(arguments["choices"])
        elif spec.name == "state":
            values = st.sampled_from(GAME_STATES)
        else:
            # a lone "--" value is a usage error (Python 3.11's argparse reads it as [])
            values = {int: st.integers(-(2**70), 2**70), float: st.floats(allow_nan=False),
                      None: st.text("ab:/.=- ", max_size=6).filter(lambda v: v != "--")
                      }[spec.metadata["type"]]
        value = arguments.get("default")
        if arguments.get("required") or draw(st.booleans()):
            value = draw(values)
            options.append(f"--{spec.metadata['flag'] or spec.name}={value}")
        if spec.name == _MODE_OPTION.get(command):
            mode = value
    return [command, *draw(st.permutations(options))]


class TestOptionSpecRoundTrip:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(argv=valid_argvs())
    def test_argv_rebuilt_from_config_parses_to_it(self, argv):
        parser = build_parser()
        args = parser.parse_args(argv)
        _reject_ignored_options(vars(args))
        cfg = config_from_args(args)
        again = parser.parse_args(argv_of(cfg))
        _reject_ignored_options(vars(again))
        assert config_from_args(again) == cfg


class TestDeterminismAndConfig:
    def test_verify_outputs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--relation", "main", "--d", "2", "--samples", "4", "--seed", "5"]
        run_cli(args + ["--output", str(f1)], capsys)
        run_cli(args + ["--output", str(f2)], capsys)
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["verify", "--relation", "main", "--d", "3"],
                '{"command": "verify", "d": 3, "d_b": 3, "d_e": 3, "family": "mub", "fmt": "json", '
                '"grid": 101, "input_path": null, "nu": 0.0, "output_path": null, '
                '"rank": null, "relation": "main", "samples": 50, "seed": 0, "state": null, '
                '"tolerance": null, "trials": 100000}',
            ),
            (
                ["sweep", "--d", "5"],
                '{"command": "sweep", "d": 5, "d_b": 5, "d_e": 5, "family": "mub", "fmt": "csv", '
                '"grid": 101, "input_path": null, "nu": 0.0, "output_path": null, '
                '"rank": null, "relation": null, "samples": 50, "seed": 0, "state": null, '
                '"tolerance": null, "trials": 100000}',
            ),
            (
                ["witness", "--input", "w.json", "--tolerance", "0.1", "--output", "r.json"],
                '{"command": "witness", "d": null, "d_b": null, "d_e": null, "family": "mub", '
                '"fmt": "json", "grid": 101, "input_path": "w.json", "nu": 0.0, '
                '"output_path": "r.json", "rank": null, "relation": null, "samples": 50, '
                '"seed": 0, "state": null, "tolerance": 0.1, "trials": 100000}',
            ),
            (
                ["game", "--d", "3", "--db", "0", "--rank", "2", "--trials", "5"],
                '{"command": "game", "d": 3, "d_b": 0, "d_e": 3, "family": "mub", "fmt": "json", '
                '"grid": 101, "input_path": null, "nu": 0.0, "output_path": null, '
                '"rank": 2, "relation": null, "samples": 50, "seed": 0, "state": "random", '
                '"tolerance": null, "trials": 5}',
            ),
        ],
        ids=["verify", "sweep", "witness", "game"],
    )
    def test_runconfig_json_per_command(self, argv, expected):
        # defaults, renamed options and the d_b/d_e-default-to-d rule, pinned
        assert config_from_args(build_parser().parse_args(argv)).to_json() == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, name", GOLDEN_VERIFY, ids=["main", "monogamy"])
    def test_verify_output_matches_recorded_bytes(self, capsys, tmp_path, argv, name, fmt):
        # recorded with the round12 + json.dumps writer, which the one-walk writer replaced
        assert golden_verify_matches(capsys, tmp_path, argv, name, fmt)

    @pytest.mark.parametrize("argv, name", GOLDEN_GAME, ids=["random", "separable"])
    def test_game_output_matches_recorded_bytes(self, capsys, argv, name):
        code, out, err = run_cli(["game", *argv, "--seed", "3"], capsys)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()

    def test_repeated_verify_reuses_the_certified_family(self, capsys, tmp_path, monkeypatch):
        built = []
        bases = designs._gauss_sum_bases
        monkeypatch.setattr(designs, "_gauss_sum_bases", lambda d: built.append(d) or bases(d))
        designs._mub_family.cache_clear()
        calls = []
        for _ in range(2):
            before = len(built)
            for argv, name in GOLDEN_VERIFY:
                for fmt in ("json", "csv"):
                    assert golden_verify_matches(capsys, tmp_path, argv, name, fmt)
            calls.append(len(built) - before)
        # mub_family(5) and mub_family(3) are built once each, and the DFT
        # route recognises each by comparing it with the shared family
        assert calls == [2, 0]

    def test_json_text_matches_standard_encoder(self):
        doc = [
            {"lhs": 1.0 / 3.0, "ok": True, "none": None, "n": np.int64(7),
             "x": np.float64(2.5e-17), "text": 'quote " \\ tab \t é', "empty": {},
             "nested": [[], [1, -0.0, False], ("a", 1e300)]},
            {"z": 12345678901234.5, "a": -1e-300},
            [],
            "top",
        ]
        assert _json_text(doc) == json_text_oracle(doc)

    @pytest.mark.parametrize(
        "items", [[], [{"a": 1.0 / 3.0}], [{"b": [1, 2.5]}, 7, "x", []]], ids=["0", "1", "4"]
    )
    def test_streamed_json_list_matches_json_text(self, items):
        # sweep and verify write their lists a batch at a time, and a batch
        # may be empty; the bytes are _json_text's
        for batches in ([[item] for item in items], [items[:1], [], items[1:]]):
            assert "".join(_json_list_texts(iter(batches))) == _json_text(items)

    def test_streamed_json_list_rejects_non_finite(self):
        with pytest.raises(EntguessError, match="non-finite"):
            "".join(_json_list_texts(iter([[{"lhs": 1.0}], [{"lhs": float("inf")}]])))

    def test_json_text_rounds_to_12_digits(self):
        assert _json_text(0.1234567890123456) == "0.123456789012\n"
        assert _json_text({"a": [1, 2.00000000000049]}) == '{\n  "a": [\n    1,\n    2.0\n  ]\n}\n'
        assert _json_text(True) == "true\n"


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# floats over the whole range: every finite bit pattern, subnormals, signed
# zeros, integral values, 1e12 to 1e16 (where `.12g` writes an exponent and
# repr does not) and both sides of 1e-4 and 1e-5
_FINITE_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_from_bits).filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.min, sys.float_info.max, 1e-5, 1e-4]),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(1e12, 1e16) | st.floats(-1e16, -1e12),
    st.floats(9e-6, 1.1e-5) | st.floats(9e-5, 1.1e-4),
)


@st.composite
def _reports(draw):
    """RelationReports of both relations, their metadata drawn from a small pool
    so that metadata repeats across reports."""
    equality = st.fixed_dictionaries({
        "d": st.integers(1, 10**6), "d_b": st.integers(1, 10**6),
        "kind": st.text(max_size=8), "nu": _FINITE_FLOATS,
    })
    monogamy = st.fixed_dictionaries({
        "dims": st.lists(st.integers(1, 10**6), min_size=3, max_size=3),
        "rank_tol_sensitive": st.booleans(),
    })
    pool = draw(st.lists(equality | monogamy, min_size=1, max_size=4))
    return draw(st.lists(st.builds(
        relations.RelationReport,
        lhs=_FINITE_FLOATS, rhs=_FINITE_FLOATS, defect=_FINITE_FLOATS, tolerance=_FINITE_FLOATS,
        verdict=st.sampled_from(["holds", "violated"]),
        metadata=st.sampled_from(pool).map(copy.deepcopy),
    ), max_size=6))


class TestJsonWriterProperty:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(xs=st.lists(_FINITE_FLOATS, max_size=8))
    def test_floats_match_standard_encoder(self, xs):
        assert _json_text(xs) == json_text_oracle(xs)
        assert "".join(_json_list_texts(iter([[x] for x in xs]))) == json_text_oracle(xs)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(reports=_reports(), cut=st.integers(0, 6))
    def test_reports_match_standard_encoder(self, reports, cut):
        # written a batch at a time, each report from the template
        expected = json_text_oracle([vars(r) for r in reports])
        assert _json_text(reports) == expected
        batches = iter([reports[:cut], reports[cut:]])
        assert "".join(_json_list_texts(batches)) == expected

    def test_more_distinct_metadata_than_are_kept(self):
        reports = [
            relations.RelationReport.equality(0.5, 0.5, 1e-9, {"d": i, "kind": "MUB"})
            for i in range(3 * 64)
        ]
        reports += reports[:5]
        expected = json_text_oracle([vars(r) for r in reports])
        assert "".join(_json_list_texts(iter([reports]))) == expected
