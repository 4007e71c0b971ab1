"""One benchmark run of ``evi_mmd.run_experiment`` in a fresh interpreter.

Started by ``bench/run.py``; not meant to be run by hand.  Usage:

    python3 bench/child.py ROOT MODE RESULT_JSON [CONFIG_JSON]

MODE is ``env`` (report library versions), ``probe`` (stop when the first
outer iteration starts, to time set-up), ``run`` (untraced) or ``trace``
(with spans and counts from ``tracing.py``).  Times are ``time.monotonic()``
readings, which share one clock with the parent process.
"""

import json
import os
import resource
import sys
import time

# The method entry points the workloads reach through ``runner``.
RUN_FUNCTIONS = ("evi_mmd_run", "svgd_run")


class _StopAtLoop(Exception):
    pass


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import evi_mmd

    if os.path.dirname(os.path.dirname(os.path.abspath(evi_mmd.__file__))) != os.path.abspath(src):
        raise ImportError(f"evi_mmd imported from {evi_mmd.__file__}, not from {src}")
    return evi_mmd


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _mark_loop(runner, marks, stop_at_loop):
    """Record when the method's loop starts and ends; this is the only
    instrumentation of an untraced run."""
    for name in RUN_FUNCTIONS:
        fn = getattr(runner, name)

        def marked(*args, _fn=fn, **kwargs):
            marks["loop_start"] = time.monotonic()
            if stop_at_loop:
                raise _StopAtLoop
            result = _fn(*args, **kwargs)
            marks["loop_end"] = time.monotonic()
            return result

        setattr(runner, name, marked)


def main(argv):
    root, mode, result_path = argv[:3]
    evi_mmd = _import_package(root)
    if mode == "env":
        result = _environment()
    else:
        raw = json.loads(argv[3])
        marks = {}
        tracer = None
        failures = []
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            check, failures = tracing.descent_violations()
            tracing.install(tracer, iteration_check=check)
        _mark_loop(evi_mmd.runner, marks, stop_at_loop=mode == "probe")
        marks["config"] = time.monotonic()
        try:
            evi_mmd.run_experiment(evi_mmd.config_from_dict(raw))
        except _StopAtLoop:
            pass
        marks["done"] = time.monotonic()
        result = {"marks": marks, "failures": failures}
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write_spans(raw["out_dir"] + ".spans.csv")
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
