"""One ``ntklab exp`` run in its own process, as the benchmark's child.

usage: child.py REPORT [--trace SPANS] [--setup-only] -- EXP_ARGS...

Runs ``ntklab exp EXP_ARGS`` through the CLI entry point.  Just before
``run_experiment`` is entered (ntklab imported, config built) it writes the
CLOCK_MONOTONIC reading to REPORT as JSON, so the parent can take set-up time
from its own spawn time.  ``--setup-only`` exits there.  ``--trace`` wraps
every layer's public callables and writes the spans to SPANS when the run
ends.  The exit code is the CLI's.
"""

import json
import sys
import time


def main(argv):
    sep = argv.index("--")
    opts, exp_args = argv[:sep], argv[sep + 1:]
    report = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    setup_only = "--setup-only" in opts

    import ntklab.cli as cli

    tracer = None
    if trace_path:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    run_experiment = cli.run_experiment

    def entered(cfg):
        setup_done = time.monotonic()
        with open(report, "w") as fh:
            json.dump({"setup_done": setup_done}, fh)
        return None if setup_only else run_experiment(cfg)

    cli.run_experiment = entered
    code = cli.cli_main(["exp", *exp_args])
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
