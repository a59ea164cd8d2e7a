"""Host-performance benchmark of the replication simulator.

    python3 perfbench/run.py --workload lan-write-g1 --seed 1 --seconds 10 --trace 0

Runs one workload in this process (no worker pool) and prints the result
table, then one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, timed with no
wrappers installed; ``--trace 1`` reports the per-layer metrics from a run
with layer spans recorded from outside the program (see ``layers.py``).
Fresh-interpreter costs come from ``cold.py`` probes. Workloads, metrics
and the predictions each layer metric carries are in ``README.md``.

Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

import calib
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh-interpreter probes per run (their medians are reported).
SETUP_PROBES = 5
CLI_PROBES = 3
PROBE_TIMEOUT_S = 60
#: Timed units per untraced run, at least (the run's --seconds decides the rest).
MIN_TIMED_UNITS = 3


def probe(*args: str) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "cold.py"), *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold probe {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Report:
    """The printed table plus the final JSON record."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict[str, Any]] = {}
        self.problems: list[str] = []
        self.lines: list[str] = []

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:<30} {value:>14.6g} {unit:<9} {note}".rstrip())

    def note(self, line: str) -> None:
        self.lines.append(line)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def emit(self, attempted: int, failed: int) -> None:
        for line in self.lines:
            print(line)
        status = "ok" if not self.problems else "FAILED"
        print(f"checks: {status}")
        for problem in self.problems:
            print(f"  - {problem}")
        record = {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": self.metrics,
        }
        print(json.dumps(record), flush=True)


def check_units(report: Report, ref: Any, unit: Any, what: str) -> None:
    report.check(not unit.problems, f"{what}: {'; '.join(unit.problems)}")
    report.check(
        unit.digest == ref.digest, f"{what}: digest {unit.digest[:16]} != {ref.digest[:16]}"
    )


def check_first(report: Report, first: Any, cluster: Any) -> None:
    """Output checks on the first unit, which defines the modeled results."""
    import units
    from repro import collect

    report.check(not first.problems, "first unit: " + "; ".join(first.problems))
    n = len(first.rrts)
    report.check(
        n >= units.MIN_RRT_SAMPLES,
        f"{n} RRT samples leave fewer than 10 beyond p99",
    )
    if first.trials:
        return
    # The benchmark's percentiles must agree with the program's own report.
    result = collect(cluster)
    if result.rrt is None:
        report.check(False, "collect() found no completed requests")
        return
    for ours, theirs, name in (
        (units.percentile(first.rrts, 50), result.rrt.p50, "p50"),
        (units.percentile(first.rrts, 99), result.rrt.p99, "p99"),
    ):
        report.check(
            abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs)),
            f"RRT {name} {ours!r} disagrees with collect() {theirs!r}",
        )
    report.check(
        result.total_requests == first.completed,
        f"collect() counts {result.total_requests} requests, clients {first.completed}",
    )


def describe_first(report: Report, first: Any) -> None:
    n = len(first.rrts)
    report.note(f"modeled results: {n} requests ({n - int(n * 0.99)} beyond p99)")
    report.note(f"digest sha256:{first.digest}")
    if first.trials:
        report.note(
            f"crash-recover trials {first.trials[0].seed}..{first.trials[-1].seed} "
            "define the modeled metrics"
        )


def trials_run(report: Report, all_units: list[Any]) -> None:
    """Print the trial-seed range; a violating trial is also a failed check."""
    trials = [t for u in all_units for t in u.trials]
    if not trials:
        return
    bad = [t for t in trials if t.invariants]
    report.note(
        f"crash-recover trials run: {len(trials)} (seeds {trials[0].seed}..{trials[-1].seed}), "
        f"violating: {len(bad)}"
    )
    for t in bad:
        report.note(
            f"  failing trial seed={t.seed} protocol={t.protocol} groups={t.groups} "
            f"invariant={','.join(t.invariants)}"
        )


# ---------------------------------------------------------------- end to end
def end_to_end(workload: str, seed: int, seconds: float) -> None:
    import units

    report = Report()
    report.note(f"workload {workload} seed {seed} trace 0")
    first, cluster = units.run_unit(workload, seed, 0)
    check_first(report, first, cluster)
    del cluster

    # Units run for `seconds` of host time. Each unit's work time is scaled
    # by the calibration loops on either side of it; the metric pools the
    # scaled time over all timed units. The fresh-interpreter probes are
    # spread over the run, so their median samples the host across it.
    timed: list[Any] = []
    scaled: list[float] = []
    probes: list[dict[str, Any]] = []
    loops: list[float] = []
    before: float | None = None
    elapsed = 0.0
    index = 1
    while elapsed < seconds or len(timed) < MIN_TIMED_UNITS or len(probes) < SETUP_PROBES:
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe("setup", workload, str(seed)))
            before = None
            continue
        t0 = time.perf_counter()
        if before is None:
            before = calib.loop_s()
            loops.append(before)
        unit, _ = units.run_unit(workload, seed, index)
        after = calib.loop_s()
        loops.append(after)
        elapsed += time.perf_counter() - t0
        if unit.trials:
            report.check(not unit.problems, f"unit {index}: {'; '.join(unit.problems)}")
        else:
            check_units(report, first, unit, f"unit {index}")
        timed.append(unit)
        scaled.append(calib.scaled(unit.work_s, (before + after) / 2))
        before = after
        index += 1
    for p in probes:
        report.check(
            p["digest"] == first.digest,
            f"fresh-interpreter digest {p['digest'][:16]} != {first.digest[:16]}",
        )

    per_unit = [w / u.completed * 1e6 for w, u in zip(scaled, timed, strict=True)]
    q1, _, q3 = statistics.quantiles(per_unit, n=4)
    report.metric(
        "host_us_per_req", sum(scaled) / sum(u.completed for u in timed) * 1e6, "us",
        f"{len(timed)} units, per-unit IQR {q1:.1f}..{q3:.1f}",
    )
    raw = sum(u.work_s for u in timed) / sum(u.completed for u in timed) * 1e6
    report.note(
        f"  {'':<30} unscaled {raw:.1f} us/req; calibration loop median "
        f"{median(loops) * 1e3:.1f} ms, reference {calib.REFERENCE_S * 1e3:.0f} ms"
    )
    report.metric("setup_s", median([p["setup_s"] for p in probes]), "s",
                  f"median of {len(probes)} fresh interpreters")
    report.metric(
        "report_s", median([calib.scaled(p["report_s"], p["loop_s"]) for p in probes]), "s",
        f"collect + stats summary, fresh interpreter, scaled; unscaled "
        f"{median([p['report_s'] for p in probes]):.4g} s",
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.metric("peak_rss_mb", rss_mb, "MB", "this process")
    for name, value in units.modeled(first).items():
        sim_unit = "1/sim_s" if name == "sim_tput_rps" else "sim_ms"
        report.metric(name, value, sim_unit, "modeled, first unit")

    all_units = [first, *timed]
    attempted = sum(u.attempted for u in all_units)
    failed = sum(u.failed for u in all_units)
    report.note(
        f"  {'failed_frac':<30} {failed / attempted:>14.6g} ratio     "
        f"{failed} failed / {attempted} requests attempted"
    )
    describe_first(report, first)
    trials_run(report, all_units)
    report.check(failed == 0, f"{failed} of {attempted} requests did not complete")
    report.emit(attempted, failed)


# ---------------------------------------------------------------- per layer
def per_layer(workload: str, seed: int, seconds: float) -> None:
    import units

    report = Report()
    report.note(f"workload {workload} seed {seed} trace 1")
    cli = [probe("cli")["import_s"] for _ in range(CLI_PROBES)]
    cold = probe("setup", workload, str(seed))

    first, cluster = units.run_unit(workload, seed, 0)
    check_first(report, first, cluster)
    del cluster

    plain: list[Any] = []
    off: list[Any] = []
    traced: list[tuple[Any, Any, Any]] = []
    loops: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        loops.append(calib.loop_s())
        plain.append(units.run_unit(workload, seed)[0])
        off.append(units.run_unit(workload, seed, metrics=False)[0])
        rec = layers.Recorder()
        with layers.traced(rec):
            unit, _ = units.run_unit(workload, seed, span=rec.span)
        traced.append((unit, rec.analyse(), rec))
    for i, u in enumerate(plain):
        check_units(report, first, u, f"plain unit {i}")
    for i, u in enumerate(off):
        check_units(report, first, u, f"metrics-off unit {i}")
    for i, (u, stats, _) in enumerate(traced):
        check_units(report, first, u, f"traced unit {i}")
        layer_sum = sum(stats.layer_self_ns().values())
        report.check(
            layer_sum == stats.root_ns and stats.negative_self == 0,
            f"traced unit {i}: layer self times {layer_sum} ns != root {stats.root_ns} ns",
        )

    # Report the traced unit with the median root time, so the printed
    # layer self times add up to the printed root.
    traced.sort(key=lambda t: t[1].root_ns)
    unit, stats, rec = traced[len(traced) // 2]
    counts = layer_counts(unit, stats)
    for u, s, _ in traced:
        report.check(
            layer_counts(u, s) == counts, "per-layer counts differ between traced units"
        )

    reqs = unit.completed
    trials = len(unit.trials)
    layer_ns = stats.layer_self_ns()

    def us(ns: int) -> float:
        return ns / reqs / 1e3

    work = [u.build_s + u.work_s for u in plain]
    traced_work = [u.build_s + u.work_s for u, _, _ in traced]
    for name, value in counts.items():
        report.metric(name, value, COUNT_UNITS[name])
    report.metric("kernel.self_us_per_req", us(layer_ns["kernel"]), "us/req")
    report.metric("world.send_self_us_per_req",
                  us(stats.self_of("world.send", "world.broadcast")), "us/req")
    report.metric("world.timer_self_us_per_req", us(stats.self_of("world.set_timer")), "us/req")
    report.metric("net.delays_self_us_per_req", us(layer_ns["net"]), "us/req")
    report.metric("codec.self_us_per_req", us(layer_ns["codec"]), "us/req")
    report.metric("core.handler_self_us_per_req", us(layer_ns["core"]), "us/req")
    report.metric("storage.self_us_per_req", us(layer_ns["storage"]), "us/req")
    recover_calls = stats.calls_of("storage.recover")
    report.metric(
        "storage.recover_us_per_call",
        stats.dur_of("storage.recover") / recover_calls / 1e3 if recover_calls else 0.0,
        "us", f"{recover_calls} calls",
    )
    report.metric("shard.host_self_us_per_req", us(layer_ns["shard"]), "us/req")
    report.metric("client.self_us_per_req", us(layer_ns["client"]), "us/req")
    report.metric("cluster.self_us_per_req", us(layer_ns["cluster"]), "us/req")
    report.metric("cluster.build_ms",
                  stats.dur_of("cluster.build") / stats.calls_of("cluster.build") / 1e6, "ms")
    report.metric("cluster.collect_s", calib.scaled(cold["collect_s"], cold["loop_s"]), "s",
                  "fresh interpreter, scaled")
    report.metric("chaos.self_us_per_req", us(layer_ns["chaos"]), "us/req")
    report.metric(
        "chaos.schedule_ms_per_trial",
        stats.dur_of("chaos.compile") / trials / 1e6
        if trials else 0.0,
        "ms",
    )
    report.metric(
        "chaos.check_ms_per_trial",
        stats.dur_of("chaos.check") / trials / 1e6 if trials else 0.0, "ms",
    )
    report.metric("bench.self_us_per_req", us(layer_ns["bench"]), "us/req",
                  "Cluster.run loop, run_with_schedule glue")
    report.metric("trace.root_us_per_req", us(stats.root_ns), "us/req",
                  "= sum of the self times above")
    report.metric(
        "obs.metrics_off_ratio",
        median([u.host_us_per_req for u in off]) / median([u.host_us_per_req for u in plain]),
        "ratio", "metrics=False over default",
    )
    report.metric("cli.import_s", median(cli), "s", f"median of {len(cli)}")
    report.metric("trace.overhead_ratio", median(traced_work) / median(work), "ratio",
                  f"{len(traced)} traced / {len(plain)} plain units")
    report.metric("host.calib_loop_ms", median(loops) * 1e3, "ms",
                  f"host speed during this run; reference {calib.REFERENCE_S * 1e3:.0f} ms")
    report.note(f"counts sha256:{hashlib.sha256(json.dumps(counts).encode()).hexdigest()}")
    describe_first(report, first)
    trials_run(report, [first])

    path = OUT / f"spans-{workload}-seed{seed}.tsv"
    rec.write(path)
    report.note(f"{len(rec)} spans of the reported unit written to {path.relative_to(ROOT)}")
    report.emit(first.attempted, first.failed)


COUNT_UNITS = {
    "kernel.events_per_req": "count/req",
    "world.sends_per_req": "count/req",
    "world.timers_per_req": "count/req",
    "world.leader_cpu_util": "ratio",
    "net.drop_frac": "ratio",
    "codec.calls_per_req": "count/req",
    "codec.bytes_per_req": "B/req",
    "core.reqs_per_round": "count",
    "storage.appends_per_req": "count/req",
    "storage.fsyncs_per_req": "count/req",
    "shard.envelopes_per_req": "count/req",
    "client.retransmits_per_req": "count/req",
}


def layer_counts(unit: Any, stats: Any) -> dict[str, float]:
    """Deterministic per-layer counts of one unit (they repeat exactly)."""
    c = unit.counters
    reqs = unit.completed

    def total(prefix: str) -> int:
        return sum(v for k, v in c.items() if k.startswith(prefix))

    sends = total("msg.send.")
    rounds = c.get("proc.proposer.rounds", 0)
    return {
        "kernel.events_per_req": unit.events / reqs,
        "world.sends_per_req": sends / reqs,
        "world.timers_per_req": stats.calls_of("world.set_timer") / reqs,
        "world.leader_cpu_util": statistics.fmean(unit.leader_util),
        "net.drop_frac": total("net.drop.") / sends,
        "codec.calls_per_req": stats.calls_of("codec.encoded_size") / reqs,
        "codec.bytes_per_req": total("msg.send_bytes.") / reqs,
        "core.reqs_per_round": (
            c.get("proc.proposer.batched_instances", 0) / rounds if rounds else 0.0
        ),
        "storage.appends_per_req": c.get("proc.storage.appends", 0) / reqs,
        "storage.fsyncs_per_req": c.get("proc.storage.fsyncs", 0) / reqs,
        "shard.envelopes_per_req": c.get("msg.send.GroupEnvelope", 0) / reqs,
        "client.retransmits_per_req": c.get("client.retransmit", 0) / reqs,
    }


# ---------------------------------------------------------------- entry
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # The build: byte-compile the program once, so every fresh interpreter
    # (and every probe) starts from cached bytecode, as installed code does.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(1, str(SRC))

    import units  # imports the program, so only once src/ is on the path

    if args.workload not in units.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(units.WORKLOADS)}")
    if args.trace:
        per_layer(args.workload, args.seed, args.seconds)
    else:
        end_to_end(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
