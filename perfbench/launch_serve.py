"""Start ``repro serve --port 0`` with the benchmark's probes installed.

    PYTHONPATH=src python3 perfbench/launch_serve.py [--spans PATH] [--samples PATH]

The serve workload talks to this launcher when it needs to see inside
the server.  It runs the ``repro`` command line exactly as
``python -m repro serve --port 0`` does, after installing:

- ``--spans``: the span wrappers the in-process workloads use;
- ``--samples``: the kernel sampler of ``calibrate.py``.  The process
  is first pinned to one CPU, so the event-loop thread that takes the
  samples runs on the core the executor thread simulates on.

When the server stops (SIGTERM), what was recorded is written to the
paths given.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import calibrate
import spans


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans")
    parser.add_argument("--samples")
    args = parser.parse_args(argv)

    sampler = tracer = None
    if args.samples:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        sampler = calibrate.Sampler()
        sampler.start()
    if args.spans:
        tracer = spans.Tracer(id_offset=10**9)
        spans.install(tracer)
    from repro.cli import main as cli_main

    def early_stop(signum, frame):
        raise SystemExit(143)

    # The server takes SIGTERM over once its loop runs, just after it
    # prints its `listening` line; one that comes before still ends here.
    signal.signal(signal.SIGTERM, early_stop)
    try:
        return cli_main(["serve", "--port", "0"])
    finally:
        if sampler is not None:
            sampler.stop()
            sampler.dump(args.samples + ".tmp")
            os.replace(args.samples + ".tmp", args.samples)
        if tracer is not None:
            with open(args.spans + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(tracer.spans, handle)
            os.replace(args.spans + ".tmp", args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
