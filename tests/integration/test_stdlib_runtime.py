"""Guard: the runtime path is stdlib-only.

numpy and scipy are test-only references (see
``tests/property/test_stats_parity.py``). A fresh interpreter that imports
the CLI, runs a cluster and reports on it must never load either: each
costs a cold start far larger than the work (scipy.stats ~1 s).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import json, sys
import repro.cli
import repro
from repro.util.stats import summarize

spec = repro.ClusterSpec(profile=repro.sysnet(), seed=1)
steps = [repro.single_kind_steps(repro.RequestKind.WRITE, 10)]
cluster = repro.Cluster(spec, steps).run()
result = repro.collect(cluster)
text = result.describe()
summary = summarize([0.5, 1.5, 2.0, 4.0])
loaded = sorted(
    name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy")
)
print(json.dumps({
    "loaded": loaded,
    "requests": result.rrt.n,
    "described": bool(text),
    "ci99": summary.ci99,
}))
"""


def test_cluster_run_and_report_load_neither_numpy_nor_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["loaded"] == []
    assert record["requests"] == 10
    assert record["described"]
    assert record["ci99"] > 0.0
