"""Cold-start probe: what a fresh ``repro`` process pays.

Run in a fresh interpreter by ``run.py``; prints one JSON line.

* ``setup WORKLOAD SEED``: ``setup_s`` is the time from the first line of
  this script to the first ``Cluster`` built (imports, input generation,
  construction). The probe then runs the workload's first unit and times
  the report: ``collect`` plus the ``repro.util.stats`` summary, printed.
  Lazy imports on that path (``scipy.stats``) land in ``report_s``.
* ``cli``: ``import_s`` is the time to ``import repro.cli``.

The setup probe also times ``calib.py``'s loop on either side of the
report, so ``run.py`` can scale ``report_s`` and ``collect_s`` to the
reference host; ``setup_s`` and ``import_s`` stay raw host seconds.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(1, str(SRC))


def probe_cli() -> dict[str, float]:
    import repro.cli  # noqa: F401

    return {"import_s": time.perf_counter() - T0}


def probe_setup(workload: str, seed: int) -> dict[str, object]:
    import calib
    import units
    from repro import Cluster, collect
    from repro.util.stats import summarize

    built: list[float] = []
    orig_init = Cluster.__init__

    def init(self: Cluster, *args: object, **kwargs: object) -> None:
        orig_init(self, *args, **kwargs)
        if not built:
            built.append(time.perf_counter())

    Cluster.__init__ = init  # type: ignore[method-assign]
    unit, cluster = units.run_unit(workload, seed)
    loop_before = calib.loop_s()
    t_report = time.perf_counter()
    result = collect(cluster)
    t_collect = time.perf_counter()
    # The report goes to stderr: stdout carries only the probe's record.
    print(result.describe(), file=sys.stderr)
    print("RRT", summarize([r * 1e3 for r in unit.rrts]), "ms", file=sys.stderr, flush=True)
    t_done = time.perf_counter()
    loop = (loop_before + calib.loop_s()) / 2
    return {
        "setup_s": built[0] - T0,
        "report_s": t_done - t_report,
        "collect_s": t_collect - t_report,
        "digest": unit.digest,
        "loop_s": loop,
    }


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        print(json.dumps(probe_cli()))
    else:
        print(json.dumps(probe_setup(sys.argv[2], int(sys.argv[3]))))
