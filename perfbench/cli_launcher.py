"""Run conecut's command-line entry point and record its peak memory.

    python3 perfbench/cli_launcher.py PEAK_FILE TRACE_FILE|- [conecut arguments ...]

Calls ``conecut.cli.main`` as ``python -m conecut.cli`` does, and exits
with its exit code.  Then it writes the process's peak resident memory
in KiB to PEAK_FILE.  Given a TRACE_FILE instead of ``-``, it first
installs the span wrappers and afterwards writes the per-layer sums to
TRACE_FILE as JSON.

The peak is read from the kernel's high-water mark of this process's
own memory (``VmHWM``).  ``getrusage`` and ``wait4`` would not do: the
peak they report also covers the memory of the process that spawned
this one, which is the benchmark runner.
"""

import sys


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it last exec'd, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    peak_file, trace_file, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    if trace_file != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import conecut.cli

    try:
        return conecut.cli.main(argv)
    finally:
        if tracer is not None:
            import json

            tracer.uninstall()
            with open(trace_file, "w") as fh:
                json.dump(tracer.snapshot(), fh)
        with open(peak_file, "w") as fh:
            fh.write(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main())
