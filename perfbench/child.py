"""One benchmark repetition, in a fresh single-threaded process.

    python3 perfbench/child.py WORKLOAD SEED OUT_DIR [--trace] [--toy] [--setup-only]

Times set-up (importing ``epipomp.cli`` plus one ``cli.build_bundle`` of the
workload's config), then one ``cli.main`` call with warnings recorded, and
writes what it measured to ``OUT_DIR/rep.json``. With ``--trace`` the layers
are instrumented after set-up and the spans go to ``OUT_DIR/spans.json``.
``run.py`` starts this script; it is not meant to be run by hand.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload_name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    flags = set(argv[3:])
    toy = "--toy" in flags
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import epipomp.cli as cli
    t1 = time.perf_counter()

    import argparse

    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"epipomp was imported from {cli.__file__}, not from {ROOT / 'src'}")
    workload = WORKLOADS[workload_name]
    argv_cli = workload.argv(seed, out, toy)
    cfg = cli.resolve_config(
        argparse.Namespace(config=None, seed=seed, workers=None, out=str(out), set=workload.sets(toy))
    )
    t2 = time.perf_counter()
    bundle = cli.build_bundle(cfg)
    t3 = time.perf_counter()

    import numpy
    import scipy
    from epipomp import __version__
    from epipomp.units import WEEK

    grid = bundle.grid
    record = {
        "import_s": t1 - t0,
        "build_bundle_s": t3 - t2,
        "grid": {
            "substeps": sum(grid.substeps(a, b)[0] for a, b in grid.intervals()),
            "week_substeps": grid.substeps(0.0, WEEK)[0],
        },
        "versions": {"epipomp": __version__, "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    out.mkdir(parents=True, exist_ok=True)
    if "--setup-only" not in flags:
        record.update(run_cli(cli, argv_cli, out, traced="--trace" in flags))
    (out / "rep.json").write_text(json.dumps(record))
    return 0


def run_cli(cli, argv_cli: list[str], out: Path, traced: bool) -> dict:
    import warnings
    from collections import Counter

    tracer = None
    if traced:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w0, c0 = time.perf_counter(), time.process_time()
        code = cli.main(argv_cli)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    record = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warnings": dict(Counter(str(w.message) for w in caught)),
    }
    if tracer is not None:
        from tracer import layer_metrics

        record["layers"] = layer_metrics(tracer)
        tracer.write(out / "spans.json")
    return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
