"""Run the ``msd`` command line in this interpreter, as its entry point does.

Usage: ``PYTHONPATH=src python3 bench/msd_entry.py <msd arguments>``.

This is what the installed ``msd`` script does (call
``msdstat.cli:entrypoint``), without installing the package. When the
environment names a file in ``MSDBENCH_META``, the process writes its own
peak resident set size there as it exits; with ``MSDBENCH_TRACE=1`` it
also records spans around the package's public functions (see
``tracer.py``) and one ``cli.command`` span around the command, and
writes them to the same file.
"""
import json
import os
import resource
import sys


def main() -> int:
    from msdstat.cli import entrypoint

    meta = os.environ.get("MSDBENCH_META")
    rec = None
    if os.environ.get("MSDBENCH_TRACE") == "1":
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)
        rec.op = 0
    code = 0
    span = rec.begin("cli.command") if rec else None
    try:
        entrypoint(prog_name="msd")
    except SystemExit as exc:
        code = exc.code
    finally:
        if rec:
            rec.end(span)
    if meta:
        with open(meta, "w") as fh:
            json.dump({
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "spans": rec.spans if rec else None,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
