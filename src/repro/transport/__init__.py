"""Real (non-simulated) runtimes for the protocol stack.

The protocol code is written against :class:`repro.sim.process.Env`, so the
same :class:`repro.shard.host.GroupHost` and :class:`repro.client.Client`
objects run unmodified on:

* :class:`repro.transport.local.LocalRuntime` — wall-clock time, a
  scheduler thread, in-memory delivery (with optional injected latency);
* :class:`repro.transport.tcp.TcpRuntime` — real TCP sockets on localhost
  with length-prefixed pickled frames, as in the paper's prototype.

These exist to demonstrate that the protocol layer is simulator-agnostic;
all *measurements* come from the simulator, where time is controlled.

The simulator imports only :mod:`repro.transport.codec` (for byte
accounting), so the runtimes — and with them ``asyncio`` and
``threading`` — load on first use of their names.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.transport.codec import decode_frames, encode_frame

if TYPE_CHECKING:
    from repro.transport.local import LocalRuntime
    from repro.transport.tcp import TcpRuntime

_LAZY = {"LocalRuntime": "repro.transport.local", "TcpRuntime": "repro.transport.tcp"}

__all__ = ["LocalRuntime", "TcpRuntime", "decode_frames", "encode_frame"]


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
