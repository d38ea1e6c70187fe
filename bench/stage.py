"""Run one `advseq` CLI stage in this process and report on it.

    python3 bench/stage.py RESULT.json TRACE -- <advseq arguments...>

The stage is `advseq.cli.main(<arguments>)`, exactly as the `advseq`
command runs it. RESULT.json receives the exit code, this process's peak
resident memory, the BLAS thread count, and with TRACE=1 the spans of
every wrapped layer and their per-name summary. The spans are kept in
memory and written once, when the stage has ended.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import ctypes
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    result_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print("usage: stage.py RESULT.json 0|1 -- <advseq arguments>", file=sys.stderr)
        return 2
    from advseq import cli  # imports every advseq module

    tracer = None
    if trace == "1":
        from layers import targets
        from tracing import Tracer
        tracer = Tracer(run_id=f"{cli_args[0]}-{os.getpid()}")
        tracer.install("advseq", targets(tracer))
    t0 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    main_s = time.perf_counter() - t0
    result = {"rc": rc, "main_s": main_s, "startup_s": t0 - T_START,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "blas_threads": blas_threads()}
    if tracer is not None:
        from tracing import summarize
        result["absent"] = tracer.absent
        result["summary"] = summarize(tracer.spans, tracer.work)
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
