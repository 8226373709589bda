"""Tests of the benchmark itself: generators, reference oracle, gate, tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from checks import check_tree  # noqa: E402
from pin import PINNED_COUNTERS  # noqa: E402
from run import ROOT, SRC, TIMED, load_pins, read_tree, tree_digests  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, dumps, generate  # noqa: E402
import tracer  # noqa: E402


def shiftlab(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "shiftlab.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def write_doc(tmp_path, workload, seed):
    doc, expect = generate(workload, seed)
    path = tmp_path / f"{workload}-{seed}.json"
    path.write_text(dumps(doc))
    return path, doc, expect


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_documents_do_not_depend_on_hash_seed(workload):
    code = (
        "import sys; sys.path.insert(0, %r); import workloads; "
        "sys.stdout.write(workloads.dumps(workloads.generate(%r, 7)[0]))" % (str(HERE), workload)
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_documents_validate(tmp_path, workload, seed):
    path, _, _ = write_doc(tmp_path, workload, seed)
    result = shiftlab(tmp_path, "validate", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ok:")


def test_sft_oracle_matches_brute_force():
    def extendable(word, forbidden, alphabet, margin=30):
        # legal = extends cleanly by `margin` letters on both sides
        m = max(map(len, forbidden))
        for side in (1, -1):
            states = {word}
            for _ in range(margin):
                states = {
                    (s + a)[-(m - 1):] if side == 1 else (a + s)[: m - 1]
                    for s in states for a in alphabet
                    if not any(f in ((s + a) if side == 1 else (a + s)) for f in forbidden)
                }
            if not states:
                return False
        return True

    for forbidden in (["11"], ["001", "11"], ["0101", "011", "1101"], ["12", "20", "111"]):
        alphabet = "012" if any("2" in f for f in forbidden) else "01"
        sft = oracle.Sft(alphabet, forbidden)
        for n in range(1, 7):
            words = ["".join(p) for p in product(alphabet, repeat=n)]
            legal = [w for w in words if not any(f in w for f in forbidden)
                     and extendable(w, forbidden, alphabet)]
            assert sft.count(n) == len(legal), (forbidden, n)
            assert all(sft.is_legal(w) == (w in legal) for w in words)


def test_zd_ball_formula():
    for d in (1, 2, 3):
        dist = oracle.ball_distances(oracle.FreeAbelian(d), oracle.FreeAbelian(d).gens, 6)
        for r in range(7):
            assert sum(1 for v in dist.values() if v <= r) == oracle.zd_ball_size(d, r)


def test_reference_certificates_hit_their_targets():
    for n in (2, 3):
        for m in (1, 5, 97, 10**12 + 3):
            assert oracle.evaluate(oracle.Affine(n), oracle.horner_word(m, n))[1] == m
    for m in (1, 2, 10, 99, 10**9 + 7):
        assert oracle.evaluate(oracle.Heisenberg(), oracle.commutator_word(m)) == (0, 0, m)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced batches per workload at the default seed."""
    tmp = tmp_path_factory.mktemp("traced")
    runs = {}
    for workload in sorted(WORKLOADS):
        path, doc, expect = write_doc(tmp, workload, DEFAULT_SEED)
        results = []
        for i in range(2):
            out, trace = tmp / f"{workload}-{i}", tmp / f"{workload}-{i}.json"
            subprocess.run(
                [sys.executable, str(HERE / "tracer.py"), str(path), str(out), str(trace)],
                cwd=ROOT, capture_output=True, timeout=300,
            )
            metrics = tracer.summarize(json.loads(trace.read_text()))
            results.append((read_tree(out), metrics))
        runs[workload] = (doc, expect, results)
    return runs


def test_traced_counters_repeat_exactly(traced_twice):
    for workload, (_, _, results) in traced_twice.items():
        counts = [{k: v for k, v in m.items() if k not in TIMED} for _, m in results]
        assert counts[0] == counts[1], workload


def test_counters_and_trees_match_pins(traced_twice):
    pins = load_pins()
    for workload, (doc, expect, results) in traced_twice.items():
        tree, metrics = results[0]
        assert check_tree(doc, expect, tree) == {}, workload
        assert tree_digests(tree) == pins["trees"][workload], workload
        pinned = pins["counters"][workload][str(DEFAULT_SEED)]
        assert {k: metrics[k] for k in PINNED_COUNTERS} == pinned, workload


def test_gate_catches_a_wrong_count(traced_twice):
    doc, expect, results = traced_twice["language-counts"]
    tree = dict(results[0][0])
    text = tree["golden-complexity.csv"].decode().replace("\n3,5,", "\n3,6,")
    tree["golden-complexity.csv"] = text.encode()
    assert "golden-complexity" in check_tree(doc, expect, tree)


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-metrics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
