"""One benchmark process: the body of a single fresh-interpreter step.

Modes (each prints one JSON object on stdout):

    setup --config C
        import normlog and load the config, as every CLI run does first
    suite --config C --report R --jobs J [--spans S]
        one pass: what ``normlog suite --config C --report R --jobs J``
        does; with ``--spans`` the layers are traced into file S
    probe --seed N --spans S
        traced calls of each kernel at fixed sizes, for the kernel table

``ready`` is ``time.monotonic()`` once normlog is imported and the config
is built; the parent subtracts its spawn time to get the set-up time.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time

from normlog.harness import run_suite, write_report

# calls per kernel at each probed n
PROBE_REPS = {4: 30, 16: 15, 64: 5, 128: 3}
COMMUTANT_REPS = {4: 10, 16: 3, 32: 2}


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            "nivcsw": own.ru_nivcsw + kids.ru_nivcsw,
            "maxrss_kb": max(own.ru_maxrss, kids.ru_maxrss)}


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(args) -> dict:
    _load_config(args.config)
    ready = time.monotonic()
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"ready": ready, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def suite(args) -> dict:
    config = _load_config(args.config)
    ready = time.monotonic()
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    before = _usage()
    start = time.perf_counter()
    report = run_suite(config, jobs=args.jobs)
    write_report(args.report, report)
    suite_s = time.perf_counter() - start
    after = _usage()
    if tracer:
        tracer.dump(args.spans)
    return {"ready": ready, "suite_s": suite_s,
            "cpu_s": after["cpu_s"] - before["cpu_s"],
            "nivcsw": after["nivcsw"] - before["nivcsw"],
            "peak_rss_mb": after["maxrss_kb"] / 1024.0}


def probe(args) -> dict:
    from normlog import linalg, logs, spectral
    from normlog.harness import rng
    from normlog.harness.generators import Family, InstanceSpec, make_pair
    from tracer import Tracer

    inputs = {n: make_pair(InstanceSpec(Family.INTERIOR_PAIR, n, args.seed))[0]
              for n in PROBE_REPS.keys() | COMMUTANT_REPS.keys()}
    tracer = Tracer()
    tracer.install()
    for n, reps in PROBE_REPS.items():
        x = inputs[n]
        for rep in range(reps):
            dec = spectral.normal_eig(x)
            spectral.spectral_measure(dec, spectral.strip_interior())
            logs.exp_general(x)
            linalg.modulus(x)
            rng.random_unitary(n, args.seed + rep)
    for n, reps in COMMUTANT_REPS.items():
        for _ in range(reps):
            linalg.commutant_basis(inputs[n])
    tracer.dump(args.spans)
    return {}


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.set_defaults(func=setup)
    p = sub.add_parser("suite")
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--spans")
    p.set_defaults(func=suite)
    p = sub.add_parser("probe")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(func=probe)
    args = parser.parse_args()
    print(json.dumps(args.func(args)))


if __name__ == "__main__":
    main()
