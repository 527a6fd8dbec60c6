"""Entry point of every process the benchmark times.

Usage:
    python perfbench/child.py plain  <qmlab arguments...>
    python perfbench/child.py traced <qmlab arguments...>
    python perfbench/child.py setup  <q...>
    python perfbench/child.py microkernel

`plain` runs the qmlab CLI as `python -m qmlab` does.  `traced`
runs it under tracer.Tracer and ends stderr with `PERFBENCH-TRACE <json>`.
`setup` imports qmlab, builds FieldCtx tables for each q and prints
qmlab.__file__.  `microkernel` runs microkernel.main().

Each mode also runs a SpeedProbe beside its work, and ends stderr with
`PERFBENCH-CAL <kernel s> <kernel s> ...`, every sample it took; the parent
reduces them.  On a shared 2-vCPU
x86-64 VM, CPU speed was seen to drift by up to 2x within seconds, so the
parent scales each child's time by how fast a fixed kernel ran in that same
process while it worked.  The child imports only what the probe needs
before qmlab, so its own cost stays out of setup time and peak RSS.
"""

from __future__ import annotations

import sys
import threading
import time

CAL_MARKER = "PERFBENCH-CAL "
TRACE_MARKER = "PERFBENCH-TRACE "
ENDPOINT_PROBES = 10
PROBE_INTERVAL_S = 0.1


def calibration_kernel() -> int:
    """Fixed pure-Python work of the kind qmlab does: ints, lists, dicts."""
    table = list(range(256))
    seen = {}
    acc = 0
    for i in range(15_000):
        x = table[(i * 7) & 255]
        acc = (acc + x * i) % 65521
        seen[x] = acc
    return acc


class SpeedProbe:
    """Times the calibration kernel ENDPOINT_PROBES times at start and at
    finish, and once every PROBE_INTERVAL_S on a side thread in between.

    Each sample is the kernel's thread CPU time, so waiting for the
    interpreter lock is not counted.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.thread_time()
        calibration_kernel()
        self.samples.append(time.thread_time() - start)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def start(self) -> None:
        for _ in range(ENDPOINT_PROBES):
            self._sample()
        self._thread.start()

    def finish(self) -> str:
        self._stop.set()
        self._thread.join()
        for _ in range(ENDPOINT_PROBES):
            self._sample()
        return CAL_MARKER + " ".join(map(repr, self.samples)) + "\n"


def main(mode: str, args) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return run_mode(mode, args)
    finally:
        sys.stdout.flush()
        sys.stderr.write(probe.finish())


def run_mode(mode: str, args) -> int:
    if mode == "plain":
        import runpy

        sys.argv = ["qmlab", *args]
        runpy.run_module("qmlab", run_name="__main__", alter_sys=True)
        return 0
    if mode == "traced":
        import json

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        from qmlab.cli import cmd_dispatch

        code = cmd_dispatch(args)
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.summary()) + "\n")
        return code
    if mode == "setup":
        import qmlab
        from qmlab.galois import field

        for q in args:
            field(int(q))
        print(qmlab.__file__)
        return 0
    if mode == "microkernel":
        import microkernel

        return microkernel.main()
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
