"""Byte-level goldens for the CLI: outputs a refactor must not change.

Each case runs one ``repro`` command in-process and hashes everything it
printed and wrote: stdout, the exit status, and the ``--summary``,
``--export`` or ``--out`` file. Three parts vary between repeat runs and
are normalized before hashing: the output paths (they name a fresh
temporary directory), the profiler's ``"host_ns"`` values, and the
``host ms`` column of the hottest-handlers table (both host wall-clock
time). Nothing else is masked, so a digest moves whenever a schedule, a
counter, a wire byte count or a report line moves.

The chaos and ``run`` digests were computed on the code as it stood
before every replica process became a ``GroupHost``, and that change left
them untouched. The ``trace`` and ``profile`` digests were computed once
the hottest-handlers ranking stopped depending on host time, before
``run``, ``trace`` and ``profile`` came to share one scenario builder.
Regenerating them is a deliberate act — print fresh ones with:

    PYTHONPATH=src python tests/integration/test_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

_HOST_NS = re.compile(rb'"host_ns":\s*-?\d+')

_PROTOCOLS = ("basic", "xpaxos", "tpaxos")
_RUN = ["run", "--requests", "200", "--clients", "4"]


def _chaos_cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for protocol in _PROTOCOLS:
        cases[f"chaos-{protocol}"] = ["--seeds", "50", "--protocol", protocol]
        cases[f"chaos-{protocol}-storage"] = [
            "--seeds", "20", "--protocol", protocol,
            "--fsync", "sync", "--storage-faults",
        ]
        cases[f"chaos-{protocol}-groups2"] = [
            "--seeds", "20", "--protocol", protocol, "--groups", "2",
        ]
    cases["chaos-minority-accept"] = ["--seeds", "10", "--mutation", "minority-accept"]
    cases["chaos-skip-fsync"] = [
        "--seeds", "10", "--fsync", "sync", "--storage-faults",
        "--mutation", "skip-fsync",
    ]
    return {
        name: ["chaos", *args, "--quiet", "--summary", "{out}"]
        for name, args in cases.items()
    }


#: case name -> argv; ``{out}`` is replaced by the case's output file.
CASES: dict[str, list[str]] = {
    **_chaos_cases(),
    "run-async-traced": [*_RUN, "--trace", "--tracing", "--profiling", "--export", "{out}"],
    "run-sync": [*_RUN, "--fsync", "sync", "--export", "{out}"],
    "run-groups2": [*_RUN, "--groups", "2", "--export", "{out}"],
    "trace": ["trace", "--requests", "20", "--clients", "2", "--show", "2",
              "--export", "{out}"],
    "profile": ["profile", "--requests", "60", "--clients", "2",
                "--execute-time", "0.001", "--top", "30", "--out", "{out}"],
}

#: sha256 of each case's normalized output (see the module docstring).
GOLDEN: dict[str, str] = {
    "chaos-basic": "058e4fed5744d7edea0a12ca55e056eea2eef465765c441417d0902ec9892119",
    "chaos-basic-groups2": "043ed60d3ad43f355c1336a80d0576f00c9bdd4cf4e955b8e2898775a57c34ae",
    "chaos-basic-storage": "c779ee26629084025527ddec838830fc8ea2d0cf1ace008c0ebbbded6b3f6bac",
    "chaos-minority-accept": "d0b346064417be25144035680f1afc584a24b5770207b0c4394830cf25332dc0",
    "chaos-skip-fsync": "a5a93e8c88cf2dc8ef39e0ad93761646707f525ba46695592ce4db2584223bfc",
    "chaos-tpaxos": "c9a4361128ffe2d4f50553be129ce6b12e59e268b92ae143ad9b7dc428a92ba7",
    "chaos-tpaxos-groups2": "94ee9930b00cad25868b6d5c337e04d5691e41c1d34c24eec904ef861acf91c2",
    "chaos-tpaxos-storage": "93cc547620825710472754494ab967aac437556de960ae8983f2308dfebf070b",
    "chaos-xpaxos": "247d9a6b1f1deb7dead88aecf00e75e32a36282231780ac3d5d763db94cdb93d",
    "chaos-xpaxos-groups2": "b957721ec248bedc209e33edf6878beffd12153c6ce6781a369cbeb66ca96747",
    "chaos-xpaxos-storage": "f433400647ebecc132c815b904b171b15eb06e050b82269dc5d8f3011cb4a11b",
    "profile": "6986812837297f660ee004d466a3c2ea78477b47463d56f34bbf5277039f2219",
    "run-async-traced": "aa2999028e59d4932f40d5ed5959c92fdef52a7ed0d1dd9f7c5dd47a0cc39637",
    "run-groups2": "f62f4b0598ba5250c22b3486daad014d34a4e842cc66eca4271b6f2a19d3f7e5",
    "run-sync": "34f99edc52ea96f5153cec2df01e0d8c91173134b8cbe1e5297ae41d32b5073d",
    "trace": "f9fc75c9227cb7fa0316a3259b2ac2c243cc4c2c65de609961b27d73b13d699a",
}


def _mask_host_ms(text: str) -> str:
    """Cut the trailing ``host ms`` column off the hottest-handlers table.

    It is the table's last column, so every cell of it starts at the
    header's ``host ms`` offset; the columns before it are deterministic.
    """
    lines = text.split("\n")
    for index, line in enumerate(lines):
        if not line.startswith("Hottest handlers"):
            continue
        cut = lines[index + 1].index("host ms")
        for row in range(index + 1, len(lines)):
            if not lines[row]:
                break
            lines[row] = lines[row][:cut].rstrip()
    return "\n".join(lines)


def case_digest(argv: list[str], workdir: Path) -> str:
    """Run ``repro <argv>`` and hash its normalized outputs."""
    out = workdir / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main([arg.replace("{out}", str(out)) for arg in argv])
    text = _mask_host_ms(stdout.getvalue().replace(str(out), "<out>")).encode()
    h = hashlib.sha256()
    h.update(f"status={status}\n".encode())
    h.update(text)
    h.update(b"\0")
    h.update(_HOST_NS.sub(b'"host_ns":0', out.read_bytes()))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name: str, tmp_path: Path) -> None:
    assert case_digest(CASES[name], tmp_path) == GOLDEN[name], (
        f"output of `repro {' '.join(CASES[name])}` changed"
    )


if __name__ == "__main__":  # pragma: no cover - regenerates GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            digest = case_digest(CASES[name], Path(tmp))
            print(f'    "{name}": "{digest}",')
