"""End-to-end runs of the command line driver."""

import contextlib
import csv
import gc
import io
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shiftlab
from shiftlab import cli, corpus
from shiftlab.cli import OPERATIONS, main
from shiftlab.blockcode import shift_power_code
from shiftlab.config import OPERATION_PARAMS, parse_config
from shiftlab.corpus import BUILTIN_NAMES, build_code
from shiftlab.errors import MAX_DEPTH, ConfigError, replace
from shiftlab.shiftlang import Alphabet, FullShift, ShiftPresentation

from oracles import argparse_command_line, execute_each_run_alone, run_capped

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def write_config(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(capsys, *argv):
    return run_cli_err(capsys, *argv)[:2]


def run_cli_err(capsys, *argv):
    """run_cli, also returning what the command wrote to standard error."""
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def summary_rows(out_dir: Path) -> list:
    with (out_dir / "summary.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["name", "operation", "result", "verdict"]
    return rows[1:]


class TestRun:
    def test_small_experiment(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "runs": [
                    {"name": "fib", "operation": "complexity",
                     "params": {"shift": "fibonacci", "depth": 6}},
                    {"name": "len", "operation": "word_length",
                     "params": {"group": "z2", "element": "e1^3 e2^-4", "radius": 8}},
                ],
                "out_dir": str(tmp_path / "out"),
            },
        )
        status, out = run_cli(capsys, "run", str(config))
        assert status == 0
        rows = summary_rows(tmp_path / "out")
        assert [r[0] for r in rows] == ["fib", "len"]
        assert rows[1][2] == "7"
        # the summary is also echoed to stdout
        assert "fib,complexity" in out
        csv_lines = (tmp_path / "out" / "fib.csv").read_text().splitlines()
        assert csv_lines[0] == "n,P,entropy_estimate"
        assert [line.split(",")[1] for line in csv_lines[1:]] == [
            "2", "3", "4", "5", "6", "7",
        ]

    def test_overflowing_fit_is_an_error_row(self, tmp_path, capsys):
        # squared residuals of entries near 10**200 overflow a float; that
        # run ends in an error row naming the fit, and the next run still runs
        config = write_config(
            tmp_path,
            {
                "runs": [
                    {"name": "big", "operation": "audit_polynomial",
                     "params": {"shift": "fibonacci", "depth": 8,
                                "range_entries": [10**200] * 4 + [3] * 4}},
                    {"name": "after", "operation": "complexity",
                     "params": {"shift": "fibonacci", "depth": 6}},
                ],
                "out_dir": str(tmp_path / "out"),
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        big, after = summary_rows(tmp_path / "out")
        assert big == ["big", "audit_polynomial", "-",
                       "error: trend fit of 8 values overflows float arithmetic"]
        assert after[0] == "after" and after[3] == "ok"

    def test_rule_file_is_relative_to_config_dir(self, tmp_path, capsys):
        (tmp_path / "rules").mkdir()
        (tmp_path / "rules" / "swap.txt").write_text("0 1\n1 0\n")
        config = write_config(
            tmp_path,
            {
                "codes": {"swap": {"kind": "table", "domain": "full-2",
                                    "file": "rules/swap.txt"}},
                "runs": [{"name": "endo", "operation": "endomorphism_check",
                          "params": {"code": "swap"}}],
                "out_dir": str(tmp_path / "out"),
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 0
        assert summary_rows(tmp_path / "out")[0][2] == "true"

    def test_unknown_operation_is_an_error_run(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "runs": [{"name": "bad", "operation": "transmogrify"}],
                "out_dir": str(tmp_path / "out"),
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        assert summary_rows(tmp_path / "out")[0][3].startswith("error")

    def test_budget_error_is_reported_not_raised(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "runs": [{"name": "ball", "operation": "ball_growth",
                          "params": {"group": "heisenberg", "radius": 8}}],
                "out_dir": str(tmp_path / "out"),
                "budgets": {"bfs_states": 50},
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        verdict = summary_rows(tmp_path / "out")[0][3]
        assert verdict.startswith("error") and "50" in verdict

    def test_a_huge_zd_radius_is_a_budget_row(self, tmp_path, capsys):
        # a radius of 10^400 used to end in "Python int too large to
        # convert to C ssize_t"; it must trip the budget where 10^7 does
        runs = [
            {"name": f"{op}-{size}", "operation": op, "params": params}
            for size, radius in (("large", 10**7), ("huge", 10**400))
            for op, params in (
                ("ball_growth", {"group": "z2", "radius": radius}),
                ("word_length", {"group": "z2", "element": f"e1^{radius + 1}",
                                 "radius": radius}),
            )
        ]
        config = write_config(tmp_path, {
            "runs": runs, "out_dir": str(tmp_path / "out"),
            "budgets": {"bfs_states": 2_000_000},
        })
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        error = ("error: bfs states budget exceeded: needed 2000001, limit 2000000 "
                 "(last completed radius 999)")
        assert summary_rows(tmp_path / "out") == [
            [run["name"], run["operation"], "-", error] for run in runs
        ]

    def test_a_huge_zd_radius_and_budget_is_a_budget_row(self, tmp_path, capsys):
        # a radius and a budget both past 2^63 used to end in "Python int
        # too large to convert to C ssize_t"
        huge = 10**30
        runs = [
            {"name": "growth", "operation": "ball_growth",
             "params": {"group": "z2", "radius": huge}},
            {"name": "length", "operation": "word_length",
             "params": {"group": "z2", "element": f"e1^{huge + 1}", "radius": huge}},
        ]
        config = write_config(tmp_path, {
            "runs": runs, "out_dir": str(tmp_path / "out"), "budgets": {"bfs_states": huge},
        })
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        error = (f"error: bfs states budget exceeded: needed {huge + 1}, limit {huge} "
                 "(last completed radius 707106781186547)")
        assert summary_rows(tmp_path / "out") == [
            [run["name"], run["operation"], "-", error] for run in runs
        ]

    def test_special_words_is_checked_before_it_enumerates(
        self, tmp_path, capsys, monkeypatch
    ):
        # the 2**29 words of length 29 would exhaust memory, so any long
        # enumeration fails at once
        _forbid_long_words(monkeypatch)
        runs = [
            {"name": "big", "operation": "special_words",
             "params": {"shift": "full-2", "length": 28}},
            {"name": "small", "operation": "special_words",
             "params": {"shift": "golden-mean", "length": 5}},
        ]
        config = write_config(tmp_path, {"runs": runs, "out_dir": str(tmp_path / "out")})
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        big, small = summary_rows(tmp_path / "out")
        assert big[3] == (
            f"error: words budget exceeded: needed {2**29}, limit 2000000 (special_words)"
        )
        assert small[2:] == ["8", "ok"]

    @pytest.mark.parametrize("budget", [10, 20])
    def test_rectangle_sweep_errors_are_those_of_the_full_family(self, tmp_path, capsys, budget):
        # a sweep builds only its cols x rows family, so it fails as that
        # family fails, on its generating words of length 4 + 2 * 3 on full-2
        # and 3 + 2 * 2 on golden-mean, though smaller rectangles fit the budget
        left_flip = {"000": "1", "001": "1", "010": "1", "100": "0", "101": "0"}
        config = write_config(
            tmp_path,
            {
                "codes": {"left-flip": {"kind": "table", "domain": "golden-mean",
                                        "table": left_flip}},
                "runs": [
                    {"name": "full", "operation": "rectangle_complexity",
                     "params": {"shift": "full-2", "code": "full-2/shift",
                                "cols": 4, "rows": 4}},
                    {"name": "golden", "operation": "rectangle_complexity",
                     "params": {"shift": "golden-mean", "code": "left-flip",
                                "cols": 3, "rows": 3}},
                ],
                "out_dir": str(tmp_path / "out"),
                "budgets": {"table_rows": budget},
            },
        )
        status, out = run_cli(capsys, "run", str(config))
        assert status == 1
        assert out.splitlines()[1:] == [
            f'{name},rectangle_complexity,-,"error: generating words budget exceeded: '
            f'needed {needed}, limit {budget} (build_patches)"'
            for name, needed in (("full", 1024), ("golden", 34))
        ]

    def test_inverse_search_and_shift_power_audit_check_their_tables_first(
        self, tmp_path, capsys
    ):
        # the shift's inverse needs radius 1, a 32-row table on full-2; the
        # audit's sigma^7 is a 2**15-row table before any power is composed
        runs = [
            {"name": "inverse", "operation": "inverse_search",
             "params": {"code": "full-2/shift", "radius_cap": 5}},
            {"name": "audit", "operation": "audit_shift_power",
             "params": {"shift": "full-2", "exponent": 7, "depth": 3}},
        ]
        doc = {"runs": runs, "budgets": {"table_rows": 20}, "out_dir": str(tmp_path / "out")}
        status, _ = run_cli(capsys, "run", str(write_config(tmp_path, doc)))
        assert status == 1
        assert summary_rows(tmp_path / "out") == [
            ["inverse", "inverse_search", "-",
             "error: table rows budget exceeded: needed 32, limit 20 (inverse search)"],
            ["audit", "audit_shift_power", "-",
             "error: table rows budget exceeded: needed 32768, limit 20 (shift power audit)"],
        ]

    def test_certificate_records(self, tmp_path, capsys):
        runs = [
            {"name": "horner", "operation": "certificate",
             "params": {"base": 3, "m": 1000, "kind": "bs_horner"}},
            {"name": "square", "operation": "certificate",
             "params": {"n": 7, "kind": "heisenberg_square"}},
            {"name": "base-q", "operation": "certificate",
             "params": {"n": 1000, "kind": "heisenberg_base_q"}},
        ]
        doc = {"runs": runs, "budgets": {"table_rows": 20}, "out_dir": str(tmp_path / "out")}
        status, _ = run_cli(capsys, "run", str(write_config(tmp_path, doc)))
        assert status == 0
        assert summary_rows(tmp_path / "out") == [
            ["horner", "certificate", "16", "ok"],
            ["square", "certificate", "28", "ok"],
            ["base-q", "certificate", "144", "ok"],
        ]
        # fields in parameter-table order, whatever the document's order
        records = tree_bytes(tmp_path / "out")
        del records["summary.csv"]
        assert records == {
            "base-q.txt": b"kind: heisenberg_base_q\nn: 1000\n"
            b"word: u^8 t u^-8 t^-1 u^32 t^31 u^-32 t^-31\nlength: 144\nverified: true\n",
            "horner.txt": b"kind: bs_horner\nm: 1000\nbase: 3\n"
            b"word: b^6 a b^-1 a b^-1 b^-1 a b^-1 b^-1 b^-1 a\nlength: 16\n"
            b"length_bound: 33\nverified: true\n",
            "square.txt": b"kind: heisenberg_square\nn: 7\n"
            b"word: u^7 t^7 u^-7 t^-7\nlength: 28\nlength_bound: 28\nverified: true\n",
        }

    def test_certificate_off_its_target_is_an_error_row(self, tmp_path, capsys, monkeypatch):
        # the check behind `verified: true`, which no shipped certificate
        # fails: a constructor whose target is off by one reaches it
        from shiftlab import grouplab

        named = grouplab.named_certificate

        def off_by_one(kind, **params):
            word, model, (k, m), bound = named(kind, **params)
            return word, model, (k, m + 1), bound

        monkeypatch.setattr(grouplab, "named_certificate", off_by_one)
        run = {"name": "horner", "operation": "certificate",
               "params": {"base": 3, "m": 1000, "kind": "bs_horner"}}
        doc = {"runs": [run], "out_dir": str(tmp_path / "out")}
        status, _ = run_cli(capsys, "run", str(write_config(tmp_path, doc)))
        assert status == 1
        assert summary_rows(tmp_path / "out") == [
            ["horner", "certificate", "-",
             "error: certificate evaluates to (0, 1000), expected (0, 1001)"],
        ]

    def test_no_inverse_and_growth_formula_records(self, tmp_path, capsys):
        # majority of three is not injective, so no radius has an inverse
        majority = {w: str(int(w.count("1") >= 2))
                    for w in ("000", "001", "010", "011", "100", "101", "110", "111")}
        runs = [
            {"name": "majority", "operation": "inverse_search",
             "params": {"code": "majority", "radius_cap": 2}},
            {"name": "step", "operation": "growth_formula",
             "params": {"formula": "min_growth_degree", "step": 3}},
            {"name": "exponent", "operation": "growth_formula",
             "params": {"formula": "embedding_step_bound", "complexity_exponent": 8}},
        ]
        doc = {"codes": {"majority": {"kind": "table", "domain": "full-2", "table": majority}},
               "runs": runs, "out_dir": str(tmp_path / "out")}
        status, _ = run_cli(capsys, "run", str(write_config(tmp_path, doc)))
        assert status == 0
        assert summary_rows(tmp_path / "out") == [
            ["majority", "inverse_search", "none", "ok"],
            ["step", "growth_formula", "7", "ok"],
            ["exponent", "growth_formula", "2", "ok"],
        ]
        records = tree_bytes(tmp_path / "out")
        del records["summary.csv"]
        assert records == {
            "majority.txt": b"radius_cap: 2\ninverse: none\n",
            "step.txt": b"formula: min_growth_degree\nstep: 3\nvalue: 7\n",
            "exponent.txt": b"formula: embedding_step_bound\ncomplexity_exponent: 8\nvalue: 2\n",
        }

    def test_bad_bs_generator_is_an_error_row(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "groups": {"g": {"kind": "baumslag_solitar", "base": 2,
                                 "generators": {"a": [0, 0.5], "b": [1, 0]}}},
                "runs": [{"name": "len", "operation": "word_length",
                          "params": {"group": "g", "element": "a^2", "radius": 3}},
                         SIBLING],
                "out_dir": str(tmp_path / "out"),
            },
        )
        message = "group 'g': an element's translation must be an integer or a fraction string"
        status, out, err = run_cli_err(capsys, "validate", str(config))
        assert status == 1 and out == ""
        assert message in err
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        bad, sibling = summary_rows(tmp_path / "out")
        assert bad[3] == f"error: {message}"
        assert sibling[3] == "ok"

    def test_missing_param_names_the_run(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "runs": [{"name": "fib", "operation": "complexity",
                          "params": {"shift": "fibonacci"}}],
                "out_dir": str(tmp_path / "out"),
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        assert "'depth'" in summary_rows(tmp_path / "out")[0][3]

    def test_shadowing_builtin_name_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "shifts": {"full-2": {"kind": "full", "alphabet": "ab"}},
                "runs": [],
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1

    def test_missing_config_file(self, tmp_path, capsys):
        status, _ = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert status == 1


class TestAuditRuns:
    STAIRCASE = [max(1, (m - 1).bit_length()) for m in range(1, 65)]

    def audit_doc(self, tmp_path, fabricated):
        return {
            "runs": [
                {
                    "name": "probe",
                    "operation": "audit_entropy",
                    "fabricated": fabricated,
                    "params": {
                        "range_entries": self.STAIRCASE,
                        "shift": "fibonacci",
                        "depth_complexity": 16,
                    },
                }
            ],
            "out_dir": str(tmp_path / "out"),
        }

    def test_fabricated_violation_does_not_fail_experiment(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_doc(tmp_path, True))
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 0
        assert summary_rows(tmp_path / "out")[0][3] == "Violation"
        report = (tmp_path / "out" / "probe.txt").read_text()
        assert "verdict: Violation" in report
        assert "violation_index: 16" in report

    def test_honest_violation_fails_experiment(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_doc(tmp_path, False))
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1

    @pytest.mark.parametrize("flag", ["false", "no", 0, None])
    def test_fabricated_flag_must_be_a_boolean(self, tmp_path, capsys, flag):
        config = write_config(tmp_path, self.audit_doc(tmp_path, flag))
        errors = ""
        for command in ("validate", "run"):
            status, _, err = run_cli_err(capsys, command, str(config))
            assert status == 1
            errors += err
        assert "fabricated must be true or false" in errors
        assert not (tmp_path / "out").exists()

    def test_corrupted_element_profile_flagged_by_word_audit(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "runs": [
                    {
                        "name": "probe",
                        "operation": "audit_range_word",
                        "fabricated": True,
                        "params": {
                            "group": "z1",
                            "element": "e1",
                            "codes": {"step": "full-2/shift"},
                            "range_entries": [1, 99, 3, 4, 5, 6],
                            "depth": 6,
                            "radius": 8,
                        },
                    }
                ],
                "out_dir": str(tmp_path / "out"),
            },
        )
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 0
        report = (tmp_path / "out" / "probe.txt").read_text()
        assert "verdict: Violation" in report
        assert "violation_index: 2" in report

    def test_nonfabricated_runs_cannot_use_corrupted_profiles(self, tmp_path, capsys):
        doc = self.audit_doc(tmp_path, False)
        doc["runs"][0]["params"]["range_entries"] = [1, 99, 3]
        config = write_config(tmp_path, doc)
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        assert "not subadditive" in summary_rows(tmp_path / "out")[0][3]

    def test_shift_power_audit_over_budget_names_the_first_power_out_of_reach(
        self, tmp_path, capsys
    ):
        # sigma^3 on full-2 needs a 128-row table, sigma^-2 cubed on the
        # golden mean one of 610 rows: both beyond 100
        runs = [
            {"name": "full", "operation": "audit_shift_power",
             "params": {"shift": "full-2", "exponent": 1, "depth": 6}},
            {"name": "golden", "operation": "audit_shift_power",
             "params": {"shift": "golden-mean", "exponent": -2, "depth": 5}},
        ]
        doc = {"runs": runs, "budgets": {"table_rows": 100}, "out_dir": str(tmp_path / "out")}
        status, _ = run_cli(capsys, "run", str(write_config(tmp_path, doc)))
        assert status == 1
        assert summary_rows(tmp_path / "out") == [
            ["full", "audit_shift_power", "-",
             "error: table rows budget exceeded: needed 128, limit 100 (compose)"],
            ["golden", "audit_shift_power", "-",
             "error: table rows budget exceeded: needed 610, limit 100 (compose)"],
        ]


class TestDeterminism:
    def test_reruns_across_processes_are_byte_identical(self, tmp_path):
        # str and frozenset hashing differ between these interpreters, so
        # an iteration order that leaks into the output shows up here
        src = Path(shiftlab.__file__).resolve().parent.parent
        trees = []
        for seed in ("1", "2", "3"):
            out = tmp_path / seed
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
            subprocess.run(
                [sys.executable, "-m", "shiftlab.cli", "run",
                 str(SCRIPTS / "demo_config.json"), "--out-dir", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1] == trees[2]
        assert "summary.csv" in trees[0]
        # the benchmark's pinned digests kill a found inverse printed as
        # `inverse: none` (cli) and `indices: -` printed empty (audit)
        pins = json.loads((SCRIPTS.parent / "perfbench" / "pins.json").read_text())
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in trees[0].items()}
        assert digests == pins["trees"]["demo"]


SIBLING = {"name": "sibling", "operation": "complexity",
           "params": {"shift": "fibonacci", "depth": 4}}


class TestStandardError:
    """The exact bytes a fresh `shiftlab` process writes to standard error:
    one line per written file, per error row, per Violation on
    non-fabricated data, and per rejected document."""

    def cli(self, tmp_path, *argv):
        src = Path(shiftlab.__file__).resolve().parent.parent
        return subprocess.run(
            [sys.executable, "-m", "shiftlab.cli", *argv],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, timeout=120,
        )

    def test_run(self, tmp_path):
        probe = {"name": "probe", "operation": "audit_entropy",
                 "params": {"range_entries": TestAuditRuns.STAIRCASE,
                            "shift": "fibonacci", "depth_complexity": 16}}
        bad = {"name": "bad", "operation": "complexity", "params": {"shift": "fibonacci"}}
        write_config(tmp_path, {"runs": [SIBLING, bad, probe]})
        result = self.cli(tmp_path, "run", "exp.json", "--out-dir", "out")
        assert result.returncode == 1
        assert result.stderr == (
            b"run sibling -> out/sibling.csv\n"
            b"run bad: run 'bad' needs parameter 'depth'\n"
            b"run probe -> out/probe.txt\n"
            b"run probe: Violation on non-fabricated data\n"
        )

    def test_validate_config_error(self, tmp_path):
        write_config(tmp_path, {"runs": [SIBLING], "budgets": {"table_rows": "many"}})
        result = self.cli(tmp_path, "validate", "exp.json")
        assert result.returncode == 1
        assert result.stdout == b""
        assert result.stderr == b"budget table_rows must be an integer\n"


class TestParameterErrors:
    """Documents with one bad run: `validate` rejects them naming the run
    and the parameter, and `run` turns them into an error row for that run
    while the sibling run still writes its file."""

    # case id -> (the parameter named, operation, params)
    CASES = {
        "ranks": ("ranks", "growth_formula", {"formula": "bass_guivarch", "ranks": ["x", 1]}),
        "cells_a": ("cells_a", "coding_check", {"shift": "full-2", "code": "full-2/flip",
                                                "length": 3, "height": 2,
                                                "cells_a": [["x", 0]], "cells_b": [[0, 1]]}),
        "depth": ("depth", "complexity", {"shift": "fibonacci", "depth": "3"}),
        "depth-cap": ("depth", "complexity", {"shift": "fibonacci", "depth": MAX_DEPTH + 1}),
        "base": ("base", "certificate", {"kind": "bs_horner", "m": 5}),
        "side": ("side", "special_words", {"shift": "golden-mean", "length": 3, "side": "up"}),
        "dpeth": ("dpeth", "complexity", {"shift": "fibonacci", "dpeth": 3}),
        "code-domain": ("code", "cyr_kra", {"shift": "golden-mean", "code": "full-2/flip",
                                            "length": 3, "height": 2}),
        "base-one": ("base", "certificate", {"kind": "bs_horner", "m": 5, "base": 1}),
        "exponent-zero": ("exponent", "audit_shift_power",
                          {"shift": "fibonacci", "exponent": 0, "depth": 3}),
        # json.loads reads Infinity, NaN and the overflowing 1e400 as floats
        "exponent-infinity": ("complexity_exponent", "growth_formula",
                              {"formula": "embedding_step_bound", "complexity_exponent": math.inf}),
        "exponent-nan": ("complexity_exponent", "growth_formula",
                         {"formula": "embedding_step_bound", "complexity_exponent": math.nan}),
        "exponent-1e400": ("complexity_exponent", "growth_formula",
                           '{"formula": "embedding_step_bound", "complexity_exponent": 1e400}'),
        # ball_growth fits its line from radius 2 up
        "growth-radius-1": ("radius", "ball_growth", {"group": "z2", "radius": 1}),
        "growth-radius-2": ("radius", "ball_growth", {"group": "z2", "radius": 2}),
        # an element may name only generators of its group
        "unbound-word-length": ("element", "word_length", {"group": "z2", "element": "x^2"}),
        "unbound-distortion": ("element", "distortion",
                               {"group": "heisenberg", "element": "s e1", "depth": 4}),
        "unbound-audit": ("element", "audit_range_word",
                          {"group": "z1", "element": "e2", "codes": {"step": "full-2/shift"},
                           "range_entries": [1, 2, 3], "depth": 3}),
        # retired options: profiles always take the automatic certificates
        "certificate-distortion": ("certificate", "distortion",
                                   {"group": "bs-2", "element": "a", "depth": 4,
                                    "certificate": "none"}),
        "certificate-audit": ("certificate", "audit_range_word",
                              {"group": "z1", "element": "e1",
                               "codes": {"e1": "full-2/shift"},
                               "range_entries": [1, 2, 3], "depth": 3,
                               "certificate": "auto"}),
        "tolerance": ("tolerance", "audit_entropy",
                      {"shift": "full-2", "depth_complexity": 4,
                       "range_entries": [1, 2, 3], "tolerance": 0.1}),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request, tmp_path):
        param, operation, params = self.CASES[request.param]
        bad = {"name": "bad", "operation": operation, "params": params}
        doc = {"runs": [bad, SIBLING], "out_dir": str(tmp_path / "out")}
        config = write_config(tmp_path, doc)
        if isinstance(params, str):
            # params given as JSON text, for a literal json.dumps never writes
            config.write_text(config.read_text().replace(json.dumps(params), params))
        return param, config

    def test_validate_names_run_and_parameter(self, case, capsys):
        param, config = case
        status, out, err = run_cli_err(capsys, "validate", str(config))
        assert status == 1
        assert out == ""
        assert "run 'bad'" in err and repr(param) in err

    def test_run_reports_an_error_row_only_for_that_run(self, case, tmp_path, capsys):
        param, config = case
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        (bad, sibling) = summary_rows(tmp_path / "out")
        assert bad[0] == "bad" and bad[3].startswith("error: run 'bad'")
        assert repr(param) in bad[3]
        assert sibling[0] == "sibling" and sibling[3] == "ok"
        assert (tmp_path / "out" / "sibling.csv").exists()
        assert not (tmp_path / "out" / "bad.txt").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_string_budget_is_a_config_error(self, tmp_path, capsys, command):
        doc = {"runs": [SIBLING], "budgets": {"table_rows": "many"},
               "out_dir": str(tmp_path / "out")}
        status, _, err = run_cli_err(capsys, command, str(write_config(tmp_path, doc)))
        assert status == 1
        assert "budget table_rows must be an integer" in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_runaway_depth_ends_in_one_line(self, tmp_path, command):
        # this document used to pass validate, then end run in a
        # MemoryError traceback while building a 10**8-letter automaton
        big = {"name": "big", "operation": "complexity",
               "params": {"shift": "periodic-01", "depth": 10**8}}
        config = write_config(tmp_path, {"runs": [big], "out_dir": str(tmp_path / "out")})
        main = "import sys; from shiftlab.cli import main; sys.exit(main(sys.argv[1:]))"
        result = run_capped(main, command, config)
        line = f"run 'big': parameter 'depth' must be an integer from 1 to {MAX_DEPTH}\n"
        assert result.returncode == 1
        assert result.stderr == (line if command == "validate" else f"run big: {line}")

    def test_every_handler_has_a_parameter_table(self):
        handlers = {name[len("_op_"):] for name in vars(cli) if name.startswith("_op_")}
        assert handlers == set(OPERATIONS) == set(OPERATION_PARAMS)


# -- fuzzing documents over the real operation and parameter names -------------

SHIFT_NAMES = ("full-2", "fibonacci", "golden-mean", "periodic-01")
CODE_NAMES = ("full-2/shift", "full-2/flip", "fibonacci/shift", "periodic-01/flip")
WORDS = ("e1", "e1 e2^-1", "a", "b a^2", "u t", "s", "x^")
STRINGS = st.text(max_size=4) | st.sampled_from(
    SHIFT_NAMES + CODE_NAMES + WORDS + ("z2", "heisenberg", "up")
)
SMALL_INTS = st.integers(-1, 4)

ANY_JSON = st.recursive(
    st.one_of(SMALL_INTS, STRINGS, st.booleans(), st.none()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(("step", "a")), inner, max_size=2),
    max_leaves=6,
)

PLAUSIBLE = {
    "shift": st.sampled_from(SHIFT_NAMES),
    "code": st.sampled_from(CODE_NAMES),
    "code_map": st.dictionaries(st.sampled_from(("s", "t")), st.sampled_from(CODE_NAMES),
                                min_size=1, max_size=2),
    "group": st.sampled_from(("z1", "z2", "heisenberg", "bs-2")),
    "positive": st.integers(1, 4),
    "depth": st.integers(1, 4),
    "nonzero": st.sampled_from((-2, -1, 1, 3)),
    "base": st.integers(2, 4),
    "growth_radius": st.integers(3, 5),
    "number": SMALL_INTS,
    "bool": st.booleans(),
    "word": st.sampled_from(WORDS),
    "cells": st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), max_size=3),
    "naturals": st.lists(st.integers(0, 4), max_size=6),
    "profile": st.lists(st.integers(0, 4), max_size=6),
}

ALL_NAMES = sorted(
    {op.by for op in OPERATION_PARAMS.values() if op.by}
    | {name for op in OPERATION_PARAMS.values()
       for params in (op.params, *op.variants.values()) for name in params}
)


@st.composite
def fuzz_runs(draw, index):
    """One run of a real operation giving the parameters of one variant
    with values of the right kind, or with one flaw: a value replaced by
    any JSON value, a parameter dropped, or a stray one added."""
    operation = draw(st.sampled_from(sorted(OPERATION_PARAMS)))
    op = OPERATION_PARAMS[operation]
    kinds = {name: param.kind for name, param in op.params.items()}
    if op.variants:
        variant = draw(st.sampled_from(sorted(op.variants)))
        kinds.update((name, param.kind) for name, param in op.variants[variant].items())
        if op.by is not None:
            kinds[op.by] = (variant,)
    names = sorted(kinds)
    flaw = draw(st.sampled_from(("none", "none", "value", "drop", "stray")))
    if flaw == "drop" and names:
        names.remove(draw(st.sampled_from(names)))
    if flaw == "stray":
        names.append(draw(st.sampled_from(ALL_NAMES)))
    flawed = draw(st.sampled_from(names)) if flaw == "value" and names else None
    params = {}
    for name in names:
        kind = kinds.get(name)
        if name == flawed or kind is None:
            params[name] = draw(ANY_JSON)
        elif isinstance(kind, tuple):
            params[name] = draw(st.sampled_from(kind))
        else:
            params[name] = draw(PLAUSIBLE[kind])
    run = {"name": f"r{index}", "operation": operation, "params": params}
    if draw(st.booleans()):
        run["fabricated"] = draw(st.booleans())
    return run


def _forbid_long_words(monkeypatch, limit=20):
    # a table of every 81-word would exhaust memory, so a regression fails
    # here at the first long enumeration instead
    words_of_length = ShiftPresentation.words_of_length

    def guarded(shift, n):
        assert n <= limit, f"enumerated words of length {n}"
        return words_of_length(shift, n)

    monkeypatch.setattr(ShiftPresentation, "words_of_length", guarded)


class TestFuzzDocuments:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=st.tuples(fuzz_runs(0), fuzz_runs(1)))
    def test_every_document_ends_in_an_exit_status(self, runs, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            doc = {"runs": list(runs), "out_dir": str(out),
                   "budgets": {"table_rows": 4000, "bfs_states": 4000, "radius_cap": 4}}
            config = write_config(Path(tmp), doc)
            validated, _, rejection = run_cli_err(capsys, "validate", str(config))
            status, _ = run_cli(capsys, "run", str(config))
            assert validated in (0, 1) and status in (0, 1)
            if not out.exists():
                # the document itself is malformed: both commands refuse it
                assert validated == status == 1
                return
            # check_run's messages all name the run; `validate` runs the same
            # check and stops at the first run that fails it
            failed_checks = [
                verdict[len("error: "):]
                for name, _, _, verdict in summary_rows(out)
                if verdict.startswith(f"error: run {name!r}")
            ]
            if failed_checks:
                assert validated == 1
                assert failed_checks[0] in rejection


def _family(name, operation, shift, code, size, **params):
    n, k = size
    dims = {"cols": n, "rows": k} if operation == "rectangle_complexity" else {
        "length": n, "height": k}
    return {"name": name, "operation": operation,
            "params": {"shift": shift, "code": code, **dims, **params}}


# runs that share entries, patch families and range profiles, next to runs
# whose error rows come from a shared family, an entry or a budget
SHARED_AND_FAILING = {
    "codes": {
        # the image of 00000 under the left flip is 111, outside golden-mean
        "flip": {"kind": "table", "domain": "golden-mean",
                 "table": {"000": "1", "001": "1", "010": "1", "100": "0", "101": "0"}},
        "sq": {"kind": "power", "base": "flip", "exponent": 2},
    },
    "runs": [
        _family("rect5", "rectangle_complexity", "full-2", "full-2/shift", (5, 4)),
        _family("kra5", "cyr_kra", "full-2", "full-2/shift", (5, 4)),
        _family("period6", "vertical_period", "full-2", "full-2/shift", (6, 4)),
        _family("coding6", "coding_check", "full-2", "full-2/shift", (6, 4),
                cells_a=[[0, 0]], cells_b=[[0, 1]]),
        _family("illegal-kra", "cyr_kra", "golden-mean", "flip", (3, 3)),
        _family("illegal-period", "vertical_period", "golden-mean", "flip", (3, 3)),
        {"name": "bad-range", "operation": "minimal_range", "params": {"code": "sq"}},
        {"name": "bad-profile", "operation": "range_profile",
         "params": {"code": "sq", "depth": 3}},
        {"name": "profile", "operation": "range_profile",
         "params": {"code": "full-2/shift", "depth": 6}},
        {"name": "audit", "operation": "audit_entropy",
         "params": {"shift": "full-2", "depth_complexity": 6,
                    "code": "full-2/shift", "depth_range": 6}},
    ],
    # the 5x4 family has 2**11 generating words, the 6x4 one 2**12
    "budgets": {"table_rows": 3000},
}


class TestSharedContext:
    """`run` shares one RunContext across a document's runs; its rows and
    files are those of every run in a context of its own."""

    def compare(self, config, base_dir, tmp_path):
        shared, alone = tmp_path / "shared", tmp_path / "alone"
        expected = execute_each_run_alone(replace(config, out_dir=str(alone)), base_dir)
        assert cli.execute_config(replace(config, out_dir=str(shared)), base_dir) == expected
        assert tree_bytes(shared) == tree_bytes(alone)
        return tree_bytes(shared)

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_demo(self, reverse, tmp_path):
        config = parse_config((SCRIPTS / "demo_config.json").read_text(), BUILTIN_NAMES)
        if reverse:
            config = replace(config, runs=config.runs[::-1])
        self.compare(config, SCRIPTS, tmp_path)

    def test_shared_families_and_error_rows(self, tmp_path):
        config = parse_config(json.dumps(SHARED_AND_FAILING), BUILTIN_NAMES)
        forward = self.compare(config, tmp_path, tmp_path / "forward")
        backward = self.compare(
            replace(config, runs=config.runs[::-1]), tmp_path, tmp_path / "backward"
        )
        rows = summary_rows(tmp_path / "forward" / "shared")
        assert summary_rows(tmp_path / "backward" / "shared") == rows[::-1]
        del forward["summary.csv"], backward["summary.csv"]
        assert forward == backward
        over_budget = ("error: generating words budget exceeded: needed 4096, "
                       "limit 3000 (build_patches)")
        illegal = "error: window '111' is not in the rule's domain language"
        assert [row[3] for row in rows[:4]] == ["ok", "ok", over_budget, over_budget]
        assert rows[4][3] == rows[5][3] and rows[4][3].startswith(illegal)
        assert rows[6][3] == rows[7][3] and rows[6][3].startswith(illegal)
        # a truncated profile is a success, kept and shared with the audit
        assert rows[8][3] == "partial: table budget reached at power 6"
        assert not rows[9][3].startswith("error")

    @settings(max_examples=40, deadline=None)
    @given(runs=st.tuples(fuzz_runs(0), fuzz_runs(1), fuzz_runs(2)))
    def test_fuzz_documents(self, runs):
        doc = {"runs": list(runs),
               "budgets": {"table_rows": 4000, "bfs_states": 4000, "radius_cap": 4}}
        try:
            config = parse_config(json.dumps(doc), BUILTIN_NAMES)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            self.compare(config, Path(tmp), Path(tmp))


class TestCatalogEntries:
    """Shifts, codes and groups are built by name on first use: one bad
    entry fails only the runs that use it, and `validate` rejects it."""

    CODE_RUN = ("range_profile", {"code": "full-2/shift", "depth": 2})
    SHIFT_RUN = ("complexity", {"shift": "fibonacci", "depth": 3})
    COPY_RULE = {a + b + c: b for a in "01" for b in "01" for c in "01"}
    # case id -> (section, bad name, bad spec, the error, a run on a sibling entry)
    CASES = {
        "groups": ("groups", "g", {"kind": "baumslag_solitar", "base": 2.5},
                   "group 'g': base must be an integer",
                   ("ball_growth", {"group": "z1", "radius": 3})),
        "shifts": ("shifts", "s", {"kind": "full"}, "shift 's' is missing field 'alphabet'",
                   SHIFT_RUN),
        # a string of forbidden words would forbid each of its letters
        "forbidden-string": ("shifts", "s", {"kind": "sft", "alphabet": "01", "forbidden": "11"},
                             "shift 's': forbidden must be a JSON list", SHIFT_RUN),
        "alphabet-object": ("shifts", "s", {"kind": "full", "alphabet": {"0": 0, "1": 1}},
                            "shift 's': alphabet must be a string or a JSON list", SHIFT_RUN),
        "rules-string": ("shifts", "s", {"kind": "substitution", "alphabet": "01", "rules": "01"},
                         "shift 's': rules must be a JSON object", SHIFT_RUN),
        # primitive, but no inflation ever lengthens its images
        "substitution-never-grows": (
            "shifts", "s", {"kind": "substitution", "alphabet": "0", "rules": {"0": "0"}},
            "shift 's': substitution never grows: every image is a single letter", SHIFT_RUN),
        # a table's radius is that of its windows
        "radius-bool": ("codes", "c", {"kind": "table", "domain": "full-2", "radius": True,
                                       "table": COPY_RULE},
                        "code 'c': unknown field 'radius'", CODE_RUN),
        "shift-power-exponent-bool": (
            "codes", "c", {"kind": "shift_power", "domain": "full-2", "exponent": True},
            "code 'c': exponent must be an integer", CODE_RUN),
        "power-exponent-bool": (
            "codes", "c", {"kind": "power", "base": "full-2/shift", "exponent": True},
            "code 'c': exponent must be an integer", CODE_RUN),
        "codes": ("codes", "c", {"kind": "power", "base": "later", "exponent": 2},
                  "code 'c' references code 'later' which is not defined earlier", CODE_RUN),
        # 2**81 rows: the table budget must stop these before a row is built
        "shift-power-over-budget": (
            "codes", "c", {"kind": "shift_power", "domain": "full-2", "exponent": 40},
            f"table rows budget exceeded: needed {2**81}, limit 2000000 (code 'c')", CODE_RUN),
        # 2**200000001 rows have more digits than the interpreter prints
        "shift-power-count-too-long-to-print": (
            "codes", "c", {"kind": "shift_power", "domain": "full-2", "exponent": 10**8},
            "table rows budget exceeded: needed at least 2**200000001, limit 2000000 (code 'c')",
            CODE_RUN),
        "table-over-budget": (
            "codes", "c", {"kind": "table", "domain": "golden-mean", "table": {"0" * 81: "0"}},
            "table rows budget exceeded: needed 99194853094755497, limit 2000000 (code 'c')",
            CODE_RUN),
        "table-and-file": (
            "codes", "c", {"kind": "table", "domain": "full-2", "table": {"0": "0", "1": "1"},
                           "file": str(SCRIPTS / "rules" / "parity_rule.txt")},
            "code 'c': give 'table' or 'file', not both", CODE_RUN),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_entry_fails_only_its_runs(self, case, tmp_path, capsys, monkeypatch):
        section, name, spec, error, (operation, params) = self.CASES[case]
        _forbid_long_words(monkeypatch)
        kind = {"groups": "group", "shifts": "shift", "codes": "code"}[section]
        uses_bad = {**params, kind: name}
        doc = {section: {name: spec},
               "runs": [{"name": "good", "operation": operation, "params": params},
                        {"name": "bad", "operation": operation, "params": uses_bad}],
               "out_dir": str(tmp_path / "out")}
        if section == "codes":
            doc["codes"]["later"] = {"kind": "shift_power", "domain": "full-2", "exponent": 1}
        config = write_config(tmp_path, doc)
        status, _, err = run_cli_err(capsys, "validate", str(config))
        assert status == 1 and error in err
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        (good, bad) = summary_rows(tmp_path / "out")
        assert good[3] == "ok"
        assert bad[3].startswith("error: ") and error in bad[3]

    def test_long_chain_of_codes_builds(self, tmp_path, capsys):
        # each code is a power of the one before; the chain is deeper than
        # building each reference by recursion would allow
        codes = {"c0": {"kind": "power", "base": "full-2/shift", "exponent": 1}}
        for i in range(1, 400):
            codes[f"c{i}"] = {"kind": "power", "base": f"c{i - 1}", "exponent": 1}
        run = {"name": "last", "operation": "minimal_range", "params": {"code": "c399"}}
        doc = {"codes": codes, "runs": [run], "out_dir": str(tmp_path / "out")}
        status, _ = run_cli(capsys, "run", str(write_config(tmp_path, doc)))
        assert status == 0
        assert summary_rows(tmp_path / "out") == [["last", "minimal_range", "1", "ok"]]

    def test_catalogs_freed_when_the_run_context_goes(self):
        # a reference cycle would keep every run's codes and word indexes
        # alive until the cycle collector ran
        config = parse_config(json.dumps({"codes": {
            "sq": {"kind": "power", "base": "full-2/shift_flip", "exponent": 2},
        }}))
        gc.disable()
        try:
            ctx = cli.RunContext(config, Path("."))
            ctx.codes["sq"]
            gone = [weakref.ref(x) for x in (ctx.codes, ctx.shifts, ctx.shifts["full-2"])]
            del ctx
            assert [ref() for ref in gone] == [None, None, None]
        finally:
            gc.enable()

    def test_an_entry_lives_until_the_last_run_that_names_it(self, tmp_path, monkeypatch):
        built = []

        def record(name, spec, build=corpus.build_shift):
            shift = build(name, spec)
            built.append((name, weakref.ref(shift)))
            return shift

        monkeypatch.setattr(corpus, "build_shift", record)
        runs = [{"name": name, "operation": "complexity",
                 "params": {"shift": shift, "depth": 3}}
                for name, shift in (("a", "fibonacci"), ("b", "golden-mean"),
                                    ("c", "golden-mean"))]
        config = parse_config(json.dumps({"runs": runs}), BUILTIN_NAMES)
        gc.disable()
        try:
            ctx = cli.RunContext(config, tmp_path)
            alive = []
            for run in config.runs:
                cli._execute_run(ctx, tmp_path, run)
                alive.append([(name, ref() is not None) for name, ref in built])
        finally:
            gc.enable()
        assert alive == [
            [("fibonacci", False)],
            [("fibonacci", False), ("golden-mean", True)],
            [("fibonacci", False), ("golden-mean", False)],
        ]


class TestValidate:
    def test_valid_document(self, capsys):
        status, out = run_cli(capsys, "validate", str(SCRIPTS / "demo_config.json"))
        assert status == 0
        assert out == "ok: 1 shifts, 2 codes, 2 groups, 23 runs\n"

    @pytest.mark.parametrize("section, name, spec, error", [
        ("shifts", "s", {"kind": "full"}, "shift 's' is missing field 'alphabet'"),
        ("codes", "c", {"kind": "power", "base": "later", "exponent": 2},
         "code 'c' references code 'later' which is not defined earlier in the document"),
        ("groups", "g", {"kind": "baumslag_solitar", "base": 2.5},
         "group 'g': base must be an integer"),
        # a window of length 0 has radius -1; kills the code domain's
        # `if radius >= 0` forced True, whose budget check then fails first
        # with `word length must be nonnegative`
        ("codes", "c", {"kind": "table", "domain": "full-2", "table": {"": "0"}},
         "code 'c': radius must be nonnegative"),
    ])
    def test_bad_document_entry_rejected_unused(self, section, name, spec, error,
                                                tmp_path, capsys):
        # no run names the entry; validate builds every entry the document defines
        config = write_config(tmp_path, {section: {name: spec}, "runs": [SIBLING]})
        assert run_cli_err(capsys, "validate", str(config)) == (1, "", error + "\n")

    def test_builds_document_entries_and_the_builtins_runs_use(
        self, tmp_path, capsys, monkeypatch
    ):
        built = []
        for kind in ("shift", "code", "group"):
            build = getattr(corpus, f"build_{kind}")

            def record(name, *args, build=build, **kwargs):
                built.append(name)
                return build(name, *args, **kwargs)

            monkeypatch.setattr(corpus, f"build_{kind}", record)
        config = write_config(tmp_path, {
            "groups": {"g": {"kind": "free_abelian", "rank": 1}},
            "runs": [{"name": "r", "operation": "range_profile",
                      "params": {"code": "fibonacci/shift", "depth": 3}}],
        })
        status, out = run_cli(capsys, "validate", str(config))
        assert status == 0 and out == "ok: 0 shifts, 0 codes, 1 groups, 1 runs\n"
        assert built == ["g", "fibonacci/shift", "fibonacci"]

    def test_unknown_operation_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"runs": [{"name": "x", "operation": "transmogrify"}]},
        )
        status, _ = run_cli(capsys, "validate", str(config))
        assert status == 1

    def test_bad_element_spec_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"shifts": {"x": {"kind": "full"}}, "runs": []},
        )
        status, _ = run_cli(capsys, "validate", str(config))
        assert status == 1

    def test_code_over_budget_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"codes": {"big": {"kind": "power", "base": "full-2/shift", "exponent": 30}},
             "budgets": {"table_rows": 10}, "runs": []},
        )
        status, _, err = run_cli_err(capsys, "validate", str(config))
        assert status == 1
        assert "table rows budget exceeded" in err

    @pytest.mark.parametrize("codes, run, error", [
        # entries near 10**400 overflow the float division of the floor fit
        # while the parameter is converted
        ({}, ("audit_entropy", {"shift": "fibonacci", "depth_complexity": 6,
                                "range_entries": [10**400] * 4 + [3] * 4}),
         "run 'bad': parameter 'range_entries': integer division result too large for a float"),
        # the image of 00000 under the left flip is 111, outside golden-mean
        ({"flip": {"kind": "table", "domain": "golden-mean",
                   "table": {"000": "1", "001": "1", "010": "1", "100": "0", "101": "0"}},
          "sq": {"kind": "power", "base": "flip", "exponent": 2}},
         ("minimal_range", {"code": "sq"}),
         "window '111' is not in the rule's domain language; "
         "inner code's image leaves the domain language"),
    ], ids=["overflowing-entries", "illegal-power"])
    def test_validate_reports_the_error_row_of_run(self, codes, run, error, tmp_path, capsys):
        # validate fails in one line, no traceback, with the text that run
        # writes as the run's error row while the document's other run ends
        operation, params = run
        bad = {"name": "bad", "operation": operation, "params": params}
        doc = {"codes": codes, "runs": [bad, SIBLING], "out_dir": str(tmp_path / "out")}
        config = write_config(tmp_path, doc)
        assert run_cli_err(capsys, "validate", str(config)) == (1, "", error + "\n")
        status, _ = run_cli(capsys, "run", str(config))
        assert status == 1
        bad_row, sibling = summary_rows(tmp_path / "out")
        assert bad_row == ["bad", operation, "-", f"error: {error}"]
        assert sibling[0] == "sibling" and sibling[3] == "ok"


class TestListBuiltins:
    def test_lists_catalog(self, capsys):
        status, out = run_cli(capsys, "list-builtins")
        assert status == 0
        for name in ("full-2", "golden-mean", "fibonacci", "periodic-01"):
            assert f"  {name}" in out
        assert "  heisenberg" in out
        assert "  fibonacci/shift" in out
        assert "  audit_entropy" in out

    def test_code_constructors_are_the_kinds_build_code_accepts(self, capsys):
        _, out = run_cli(capsys, "list-builtins")
        (line,) = [l for l in out.splitlines() if l.startswith("code constructors: ")]
        full2 = FullShift(Alphabet.of("01"))
        specs = {
            "table": {"domain": "full-2", "table": {"0": "1", "1": "0"}},
            "shift_power": {"domain": "full-2", "exponent": 1},
            "symbol_map": {"domain": "full-2", "image": {"0": "1", "1": "0"}},
            "compose": {"outer": "s", "inner": "s"},
            "power": {"base": "s", "exponent": 2},
        }
        assert line.split(": ")[1].split() == list(specs)
        for kind, spec in specs.items():
            build_code("c", {"kind": kind, **spec}, {"full-2": full2},
                       {"s": shift_power_code(full2, 1)})
        with pytest.raises(ConfigError, match="unknown kind 'full'"):
            build_code("c", {"kind": "full", "alphabet": "01"}, {"full-2": full2}, {})


ARGV_TOKENS = ("run", "validate", "list-builtins", "-h", "--help", "--out-dir",
               "--out-dir=o", "--", "a.json", "b", "-x", "--bogus", "-1", "")


def parse_outcome(parse, argv):
    """("parsed", (command, config, out_dir)) or ("exit", status) of
    parse(argv), with what it prints swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "parsed", parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code


class TestCommandLine:
    """cli._parse_args reads what the argparse parser it replaced read,
    option abbreviations aside (oracles.argparse_command_line)."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=5))
    def test_parses_as_argparse_did(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(argparse_command_line, argv)

    @pytest.mark.parametrize("argv, parsed", [
        (["list-builtins"], ("list-builtins", None, None)),
        (["validate", "a.json"], ("validate", "a.json", None)),
        (["run", "a.json"], ("run", "a.json", None)),
        (["run", "a.json", "--out-dir", "d"], ("run", "a.json", "d")),
        (["run", "--out-dir", "d", "a.json"], ("run", "a.json", "d")),
        (["run", "a.json", "--out-dir=d"], ("run", "a.json", "d")),
        (["run", "--out-dir=", "a.json"], ("run", "a.json", "")),
        (["run", "--out-dir", "-1", "a.json"], ("run", "a.json", "-1")),
        (["run", "--out-dir", "d", "a.json", "--out-dir=e"], ("run", "a.json", "e")),
        (["run", "--", "-x"], ("run", "-x", None)),
        (["run", "--out-dir", "d", "--", "--help"], ("run", "--help", "d")),
        (["validate", "a.json", "--"], ("validate", "a.json", None)),
        (["validate", "-1"], ("validate", "-1", None)),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_accepted_forms(self, argv, parsed):
        assert cli._parse_args(argv) == parsed
        assert argparse_command_line(argv) == parsed

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["-x", "-h"], ["run", "-h"], ["validate", "a.json", "b", "--help"],
        ["list-builtins", "--bogus", "-h"],
    ], ids=" ".join)
    def test_help_prints_the_usage_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr() == (cli.USAGE, "")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["--", "run", "a.json"],
         "invalid command '--' (choose from run, validate, list-builtins)"),
        (["bogus"], "invalid command 'bogus' (choose from run, validate, list-builtins)"),
        (["run"], "the following arguments are required: CONFIG"),
        (["run", "--out-dir"], "argument --out-dir: expected one argument"),
        (["run", "--out-dir", "--", "a.json"], "argument --out-dir: expected one argument"),
        (["run", "--out-dir", "-h", "a.json"], "argument --out-dir: expected one argument"),
        (["run", "a.json", "--out", "d"], "unrecognized arguments: --out d"),
        (["run", "a.json", "--out-dir=d", "--"], "unrecognized arguments: --"),
        (["run", "a.json", "--", "b"], "unrecognized arguments: b"),
        (["validate", "a.json", "--out-dir", "d"], "unrecognized arguments: --out-dir d"),
        (["list-builtins", "--"], "unrecognized arguments: --"),
        (["-x", "list-builtins"], "unrecognized arguments: -x"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_a_malformed_line_exits_2_with_the_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert capsys.readouterr() == ("", f"{cli.USAGE}shiftlab: error: {message}\n")
        assert parse_outcome(argparse_command_line, argv) == ("exit", 2)

    def test_without_argv_main_reads_sys_argv(self, capsys, monkeypatch):
        # the [project.scripts] entry point calls main()
        monkeypatch.setattr(sys, "argv", ["shiftlab", "list-builtins"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("shifts:\n")
