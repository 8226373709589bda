"""Rewrite `pins.json` from the current program.

    python3 perfbench/pin.py

Records the output-tree digests of every workload at the default seed and
of `scripts/demo_config.json`, and the deterministic work counters of one
traced batch per workload at seeds 1 to 3.  Run it only when a change is
meant to alter outputs or counters, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEMO, PINS, ROOT, TIMED, read_tree, run_child, tree_digests  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, dumps, generate  # noqa: E402
import tracer  # noqa: E402

PINNED_COUNTERS = (
    "blockcode.rows_built",
    "shiftlang.words_emitted",
    "spacetime.generating_words",
    "grouplab.bfs_states",
    "grouplab.certificate_tokens",
    "cli.context_builds",
)
COUNTER_SEEDS = (1, 2, 3)


def traced(doc_path: Path, work: Path):
    out, trace_path = work / "out", work / "trace.json"
    run_child([str(HERE / "tracer.py"), str(doc_path), str(out), str(trace_path)], ROOT, 0)
    tree = read_tree(out)
    metrics = tracer.summarize(json.loads(trace_path.read_text()))
    return tree, {k: v for k, v in metrics.items() if k not in TIMED}


def main() -> int:
    work = HERE / ".work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trees, counters = {}, {}
    try:
        for workload in WORKLOADS:
            counters[workload] = {}
            for seed in COUNTER_SEEDS:
                doc_path = work / "document.json"
                doc_path.write_text(dumps(generate(workload, seed)[0]))
                tree, counts = traced(doc_path, work)
                if seed == DEFAULT_SEED:
                    trees[workload] = tree_digests(tree)
                counters[workload][str(seed)] = {k: counts[k] for k in PINNED_COUNTERS}
        out = work / "demo"
        run_child(["-m", "shiftlab.cli", "run", str(DEMO), "--out-dir", str(out)], ROOT, 0)
        trees["demo"] = tree_digests(read_tree(out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps({"trees": trees, "counters": counters}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
