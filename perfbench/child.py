"""One pass of a workload in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/child.py ROOT WORKLOAD SEED MODE T0``, where
MODE is ``plain`` or ``traced`` and T0 is the parent's ``time.monotonic()``
just before it started this process, so ``setup_s`` covers interpreter
start, ``import gswf`` and input generation.  ``run.py`` is the entry point; this file is its worker.
"""

from __future__ import annotations

import os
import sys
import time


def numpy_env() -> dict:
    """numpy version and the BLAS it loaded, with that BLAS's thread count
    as configured (read, never set)."""
    import ctypes

    import numpy as np

    env = {"numpy": np.__version__}
    try:
        env["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        env["blas"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                env["openblas_threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    env["openblas_config"] = config().decode()
                env["openblas_library"] = os.path.basename(path)
                return env
    return env


def main(argv: list[str]) -> int:
    root, workload, seed, mode, t0 = argv[0], argv[1], int(argv[2]), argv[3], float(argv[4])
    import contextlib
    import io
    import json
    import resource

    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gswf
    import gswf.cli

    if not os.path.abspath(gswf.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"perfbench: gswf imported from {gswf.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    commands = workloads.WORKLOADS[workload](seed)
    setup_s = time.monotonic() - t0
    out: dict = {"setup_s": setup_s}

    tracer = None
    if mode == "traced":
        from tracer import MODULES, Tracer

        tracer = Tracer()
        tracer.install({name: sys.modules[f"gswf.{name}"] for name in MODULES})
    cli = gswf.cli
    times, codes, texts = [], [], []
    try:
        for run_id, cmd in enumerate(commands):
            if tracer is not None:
                tracer.run_id = run_id
            buf = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cmd.argv)
            times.append(time.perf_counter() - start)
            codes.append(rc)
            texts.append(buf.getvalue())
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["times"] = times
    out["digests"] = [workloads.digest(t) for t in texts]

    gate = workloads.Gate()
    for cmd, rc, text in zip(commands, codes, texts):
        gate.check(cmd, rc, text)
    out["ops"] = gate.ops

    out["work"] = [cmd.work for cmd in commands]
    out["env"] = numpy_env()

    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["walsh_in_w_formula"] = tracer.count_inside(
            "bfn.walsh_transform", "rationality.w_formula"
        )
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"spans-{workload}.txt.gz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
