"""End-to-end benchmark of `shiftlab run` on seeded batch documents.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; shiftlab is imported from `src/`.
The workload's document is generated from the seed, then measured in a
closed loop with one client: each repetition is a fresh interpreter, and
the next starts only after the previous one has exited.

--trace 0 alternates `shiftlab validate` and `shiftlab run` on the
document until S seconds have passed and reports the medians of
`setup_s` (validate wall time), `batch_s` (run wall time) and
`peak_rss_mb` (the run's own peak resident set, from `os.wait4`).

--trace 1 alternates runs under `tracer.py` with untraced runs and reports
per-layer self times and work counters from the traced runs, plus the
tracing overhead (traced minus untraced median batch time).

Every timed child runs between two runs of `calibrate.py`, and its wall
time is scaled by CALIBRATION_S over their mean before the median is
taken, so reported seconds are seconds at a fixed machine speed.  Raw
medians are printed on the `#` lines.

Every output tree goes through the correctness gate in `checks.py`; at
the default seed, and for `scripts/demo_config.json` on every invocation,
the tree must also match the digests pinned in `pins.json`.  The last line
of standard output is one JSON object: correct, attempted and failed count
document runs, and metrics holds the measured values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, dumps, generate  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
DEMO = ROOT / "scripts" / "demo_config.json"
PINS = HERE / "pins.json"
MIN_REPEATS = 3
# calibrate.py's wall time at the speed the reported times are scaled to:
# its median on the 2-core x86-64 VM (Python 3.11) the harness was built on
CALIBRATION_S = 0.1
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (*tracer.LAYERS, "cli")},
    "shiftlang.words_emitted": "count",
    "shiftlang.word_cache_hit_ratio": "ratio",
    "shiftlang.count_calls": "count",
    "blockcode.compose_calls": "count",
    "blockcode.rows_built": "count",
    "blockcode.range_profile_calls": "count",
    "blockcode.range_profile_repeat_ratio": "ratio",
    "blockcode.truncated_profiles": "count",
    "spacetime.build_patches_calls": "count",
    "spacetime.generating_words": "count",
    "spacetime.patches_kept": "count",
    "spacetime.patch_yield": "ratio",
    "spacetime.patch_family_repeat_ratio": "ratio",
    "grouplab.cayley_ball_calls": "count",
    "grouplab.bfs_states": "count",
    "grouplab.certificate_eval_s": "s",
    "grouplab.certificate_tokens": "count",
    "trends.fit_calls": "count",
    "cli.context_build_s": "s",
    "cli.context_builds": "count",
    "config.parse_s": "s",
    "trace.batch_s": "s",
    "trace.overhead_s": "s",
    "trace.hook_s": "s",
    "trace.spans": "count",
}
TIMED = {name for name, unit in PER_LAYER.items() if unit == "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- processes -----------------------------------------------------------------


def run_child(argv, cwd: Path, hash_seed: int):
    """Run one interpreter to completion; returns (wall s, peak RSS MB,
    exit code).  Waits with `os.wait4` to read the child's own rusage.

    The i-th repetition of a kind runs with PYTHONHASHSEED=i, so every
    invocation samples the same hash layouts rather than random ones."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def read_tree(root: Path) -> dict:
    tree = {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}
    shutil.rmtree(root)
    return tree


def tree_digests(tree: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(tree.items())}


# -- correctness -----------------------------------------------------------------


class Gate:
    """Counts document runs attempted and failed across every tree seen.

    Each tree must pass `checks.check_tree` and match `pinned` (file name ->
    SHA-256) byte for byte, or, without a pin, the first tree gated."""

    def __init__(self, doc, expect, pinned=None):
        self.doc = doc
        self.expect = expect
        self.reference = pinned
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}

    def admit(self, tree, status: int) -> None:
        failures = checks.check_tree(self.doc, self.expect, tree)
        files = tree_digests(tree)
        if self.reference is None:
            self.reference = files
        for name in sorted(files.keys() | self.reference.keys()):
            if files.get(name) != self.reference.get(name):
                failures.setdefault(name.rsplit(".", 1)[0], f"{name} differs from its digest")
        if status not in (0, 1):
            failures.setdefault("process", f"exit status {status}")
        self.attempted += len(self.doc["runs"])
        self.failed += min(len(failures), len(self.doc["runs"]))
        for name, reason in failures.items():
            self.reasons.setdefault(name, reason)


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


# -- measurement ---------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.doc, self.expect = generate(workload, seed)
        self.doc_path = work / "document.json"
        self.doc_path.write_text(dumps(self.doc))
        pins = load_pins().get("trees", {})
        pinned = pins.get(workload) if seed == DEFAULT_SEED else None
        self.gate = Gate(self.doc, self.expect, pinned)
        self._spawned = Counter()

    def _spawn(self, kind: str, argv):
        """Run one child of `kind`; returns (wall, rss, status, output tree)."""
        self._spawned[kind] += 1
        out = self.work / f"{kind}-{self._spawned[kind]}"
        argv = [a.replace("{out}", str(out)) for a in argv]
        wall, rss, status = run_child(argv, ROOT, self._spawned[kind])
        tree = read_tree(out) if out.exists() else {}
        return wall, rss, status, tree

    def calibrate(self) -> float:
        return self._spawn("calibrate", [str(HERE / "calibrate.py")])[0]

    def validate(self) -> float:
        wall, _, status, _ = self._spawn(
            "validate", ["-m", "shiftlab.cli", "validate", str(self.doc_path)]
        )
        if status != 0:
            raise BenchError(f"shiftlab validate rejected the {self.workload} document")
        return wall

    def batch(self):
        wall, rss, status, tree = self._spawn(
            "run", ["-m", "shiftlab.cli", "run", str(self.doc_path), "--out-dir", "{out}"]
        )
        self.gate.admit(tree, status)
        return wall, rss

    def traced_batch(self):
        trace_path = self.work / "trace.json"
        wall, _, status, tree = self._spawn(
            "traced", [str(HERE / "tracer.py"), str(self.doc_path), "{out}", str(trace_path)]
        )
        self.gate.admit(tree, status)
        if not trace_path.exists():
            raise BenchError("the traced batch wrote no trace")
        trace = json.loads(trace_path.read_text())
        trace_path.unlink()
        return wall, tracer.summarize(trace)

    def demo(self, pins) -> Gate:
        """Run the shipped demo once, outside the timed loop, and gate it."""
        gate = Gate(json.loads(DEMO.read_text()), {}, pins.get("trees", {}).get("demo"))
        _, _, status, tree = self._spawn(
            "demo", ["-m", "shiftlab.cli", "run", str(DEMO), "--out-dir", "{out}"]
        )
        gate.admit(tree, status)
        return gate


def calibrated(bench: Bench, seconds: float, steps) -> dict:
    """Repeat `steps` ((name, callable) pairs) in turn until `seconds` have
    passed, with a calibration run before and after every step.

    Returns {name: [(scale, wall, extra)]}: a step's callable returns
    (wall, extra), and scale turns its seconds into seconds at the
    reference speed, CALIBRATION_S over the mean of the two calibrations
    around it.
    """
    samples = {name: [] for name, _ in steps}
    before = bench.calibrate()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples[steps[0][0]]) < MIN_REPEATS:
        for name, step in steps:
            wall, extra = step()
            after = bench.calibrate()
            samples[name].append((2 * CALIBRATION_S / (before + after), wall, extra))
            before = after
    return samples


def scaled_median(samples) -> float:
    return statistics.median(scale * wall for scale, wall, _ in samples)


def measure_end_to_end(bench: Bench, seconds: float):
    bench.validate()  # warm the bytecode cache; not timed
    samples = calibrated(
        bench, seconds, [("setup_s", lambda: (bench.validate(), None)), ("batch_s", bench.batch)]
    )
    metrics = {
        "batch_s": scaled_median(samples["batch_s"]),
        "setup_s": scaled_median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(rss for _, _, rss in samples["batch_s"]),
    }
    return metrics, samples


def measure_layers(bench: Bench, seconds: float):
    bench.validate()
    samples = calibrated(
        bench, seconds, [("trace.batch_s", bench.traced_batch), ("batch_s", bench.batch)]
    )
    layers = [(scale, metrics) for scale, _, metrics in samples["trace.batch_s"]]
    counts = [{k: v for k, v in m.items() if k not in TIMED} for _, m in layers]
    if any(c != counts[0] for c in counts):
        bench.gate.failed += 1
        bench.gate.reasons["trace"] = "work counters differ between traced batches"
    result = {
        name: statistics.median(scale * m[name] for scale, m in layers)
        for name in TIMED
        if name in layers[0][1]
    }
    result.update(counts[0])
    result["trace.batch_s"] = scaled_median(samples["trace.batch_s"])
    result["trace.overhead_s"] = result["trace.batch_s"] - scaled_median(samples["batch_s"])
    return result, samples


# -- reporting ---------------------------------------------------------------------


def report(metrics: dict, units: dict, samples: dict, gates) -> dict:
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    for name, series in samples.items():
        walls = [wall for _, wall, _ in series]
        scales = [scale for scale, _, _ in series]
        print(f"# {name}: n={len(series)}, raw wall median {statistics.median(walls):.6g} s "
              f"(min {min(walls):.6g}, max {max(walls):.6g}), "
              f"speed scale median {statistics.median(scales):.4g}")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(f"error_share {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
    for gate in gates:
        for name, reason in sorted(gate.reasons.items()):
            print(f"# FAILED {name}: {reason}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shiftlab" / "cli.py").is_file() or not DEMO.is_file():
        print(f"error: no shiftlab source tree under {ROOT}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        demo_gate = bench.demo(load_pins())
        if args.trace:
            metrics, samples = measure_layers(bench, args.seconds)
            units = PER_LAYER
        else:
            metrics, samples = measure_end_to_end(bench, args.seconds)
            units = END_TO_END
        result = report(metrics, units, samples, (bench.gate, demo_gate))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
