"""CPU time rescaled to a reference speed.

The boxes this benchmark runs on share their cores with other tenants.
The same code runs at speeds up to 2.5 times apart, in steps that last
seconds, and each CPU steps on its own.  Wall time also includes time
the virtual CPU is descheduled.  So operations are timed in CPU seconds
of this process and its children, which leaves out descheduled time,
and are rescaled by a reference measured on the same CPU at the same
time:

    scaled = cpu * nominal reference CPU seconds / measured reference CPU seconds

The process pins itself and its children to one CPU.  There are two
references, because in-process work and interpreter cold starts slow
down by different amounts when the CPU is contended:

- In-process operations are rescaled by a unit of work that runs beside
  them in a child process at the lowest priority (nice 19), which takes
  about 1.5% of the CPU while the benchmark is busy.  The child runs the
  unit in a loop and publishes how many units it has done and the CPU
  seconds they took, so the ratio covers exactly the operation's
  stretch of time.  ``REFERENCE_UNIT_S`` is the unit's nominal CPU time.
- Interpreter cold starts (CLI invocations, set-up probes) are rescaled
  by cold starts of an interpreter that imports numpy and the standard
  modules the CLI uses, taken next to them.  ``SPAWN_REFERENCE_S`` is
  that cold start's nominal CPU time.

Neither reference touches conecut, so a change to conecut moves the
operations and not the references.  The nominal values are the
references' CPU times on the box the benchmark was tuned on, so scaled
figures read roughly as seconds there.

Run as a script, this file is the in-process reference:

    python3 perfbench/refclock.py COUNTER_FILE
"""

from __future__ import annotations

import mmap
import os
import resource
import struct
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time, sleep

REFERENCE_UNIT_S = 0.0002
SPAWN_REFERENCE_S = 0.2
SPAWN_REFERENCE = "import numpy, json, argparse, fractions"
# A stretch with fewer reference units than this borrows the ratio of
# the whole pass.
MIN_UNITS = 8
_LAYOUT = struct.Struct("dd")  # units done, CPU seconds used


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_unit(np) -> float:
    """A fixed mix of object, dict, float, small-array and Fraction work,
    the kinds of work the workloads are made of."""
    table, acc = {}, 0.0
    for i in range(120):
        p = _Point(i, float(i) * 0.5)
        table[(i & 63, i & 7)] = p
        acc += p.b * 1.0001 - (p.a % 7)
        if isinstance(p.a, int):
            acc += len(table)
    v = np.zeros(3)
    for i in range(12):
        v = v + np.array([1.0, float(i), 2.0]) * 0.5
        acc += float(np.linalg.norm(v))
    f = Fraction(1, 3)
    for i in range(6):
        f = f * Fraction(i + 1, i + 2) + 1
    return acc


def _serve(counter_file: str):
    import numpy as np

    os.nice(19)
    parent = os.getppid()
    with open(counter_file, "r+b") as fh, mmap.mmap(fh.fileno(), _LAYOUT.size) as mm:
        units = 0
        while os.getppid() == parent:
            reference_unit(np)
            units += 1
            _LAYOUT.pack_into(mm, 0, float(units), process_time())


def cpu_now() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def spawn_reference(cwd, env) -> float:
    """CPU seconds of a cold start that imports no conecut."""
    before = cpu_now()
    subprocess.run([sys.executable, "-c", SPAWN_REFERENCE], cwd=cwd, env=env, check=True, capture_output=True, timeout=120)
    return cpu_now() - before


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference:
    """The reference process and its published counters."""

    def __init__(self, scratch: Path):
        scratch.mkdir(exist_ok=True)
        self.path = scratch / f"reference-{os.getpid()}.bin"
        self.path.write_bytes(bytes(_LAYOUT.size))
        self._fh = open(self.path, "r+b")
        self._mm = mmap.mmap(self._fh.fileno(), _LAYOUT.size)
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(self.path)])
        while self.read()[0] < MIN_UNITS:
            if self._proc.poll() is not None:
                self.close()
                raise RuntimeError("the reference process stopped")
            sleep(0.01)

    def read(self) -> tuple[float, float]:
        while True:
            first = _LAYOUT.unpack_from(self._mm)
            if _LAYOUT.unpack_from(self._mm) == first:
                return first

    def close(self):
        self._proc.terminate()
        self._proc.wait()
        self._mm.close()
        self._fh.close()
        self.path.unlink(missing_ok=True)


class Stretch:
    """CPU seconds of the benchmark and of the reference, if there is one,
    over one stretch."""

    def __init__(self, reference: Reference | None):
        self._reference = reference
        self._wall, self._cpu = perf_counter(), cpu_now()
        self._units, self._ref_cpu = self._read()

    def _read(self) -> tuple[float, float]:
        return self._reference.read() if self._reference else (0.0, 0.0)

    def end(self):
        units, ref_cpu = self._read()
        self.wall = perf_counter() - self._wall
        self.cpu = cpu_now() - self._cpu
        self.units = units - self._units
        self.ref_cpu = ref_cpu - self._ref_cpu
        return self

    def factor(self, fallback: float) -> float:
        """Nominal over measured reference CPU seconds for this stretch."""
        return REFERENCE_UNIT_S * self.units / self.ref_cpu if self.units >= MIN_UNITS else fallback


class OpClock:
    """Times the operations of one pass, each over its own stretch.
    Without an in-process reference, ``totals`` needs a ``factor``."""

    def __init__(self, reference: Reference | None = None):
        self._reference = reference
        self.stretches: list[tuple[str, Stretch]] = []

    @contextmanager
    def op(self, name: str):
        stretch = Stretch(self._reference)
        yield
        self.stretches.append((name, stretch.end()))

    def totals(self, factor: float | None = None) -> dict:
        """Summed raw and scaled seconds.  By default the pass is scaled by
        the in-process reference over all its operations, and each
        operation by the reference over its own stretch; a given
        ``factor`` scales the pass and every operation instead."""
        if factor is None:
            units = sum(s.units for _, s in self.stretches)
            ref_cpu = sum(s.ref_cpu for _, s in self.stretches)
            pass_factor = REFERENCE_UNIT_S * units / ref_cpu
            each = [s.cpu * s.factor(pass_factor) for _, s in self.stretches]
        else:
            pass_factor = factor
            each = [s.cpu * factor for _, s in self.stretches]
        by_name: dict[str, float] = {}
        for (name, _), scaled in zip(self.stretches, each):
            by_name[name] = by_name.get(name, 0.0) + scaled
        cpu = sum(s.cpu for _, s in self.stretches)
        return {
            "wall": sum(s.wall for _, s in self.stretches),
            "cpu": cpu,
            "scaled": cpu * pass_factor,
            "by_name": by_name,
            "each": each,
        }


if __name__ == "__main__":
    _serve(sys.argv[1])
