"""Benchmark of pjfit: set-up, training, evaluation and ranking.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse-d1024 --seed 1 --seconds 15 --trace 0

Builds nothing: it imports ``pjfit`` from ``src/`` and the test oracles from
``tests/`` of the same checkout. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it describes the run (BLAS
threads, per-phase operation counts, input make-up, failed checks).
Run outputs go to ``.perfbench_runs/`` in the checkout and are removed at
exit. Exit status: 0 when every check passed, 1 when a check failed, 2
when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

# numpy and pjfit are imported inside the functions below: OpenBLAS reads
# its thread count when numpy loads, and src/ joins sys.path in main().
ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))


def _cap_threads() -> int:
    """Cap BLAS threads at the usable CPUs; must run before numpy loads."""
    wanted = NPROC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            wanted = min(wanted, int(os.environ[var]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(wanted)
    return wanted


def _blas_threads(requested: int) -> int:
    """Threads OpenBLAS reports, or the requested cap when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return requested


def _median(values) -> float:
    import statistics
    return float(statistics.median(values))


def end_to_end(inputs, r) -> dict:
    import numpy as np

    from harness import hard_slice
    from pjfit.metrics import auc

    cfg = inputs.train_config
    losses = r.train_losses[0]
    final = losses[-(len(losses) // cfg.epochs):]
    quality = r.eval_metrics[0]
    preds = r.eval_preds[0]
    values = {
        "setup_s": (_median(r.setup_load_s) + _median(r.setup_checkpoint_s), "s"),
        "train_pairs_per_s": (_median([r.train_pairs / t for t in r.train_s]), "pairs/s"),
        "eval_pairs_per_s": (_median([len(preds) / t for t in r.eval_s]), "pairs/s"),
        "rank_ms_per_candidate": (_median([1000.0 * t / n for t, n in zip(r.rank_s, r.rank_sizes)]), "ms"),
        "peak_rss_mb": (r.peak_rss_mb, "MB"),
        "train_loss": (float(np.mean(final)), "1"),
        "auc": (quality["auc"], "1"),
        "gauc": (quality["gauc"], "1"),
        "ndcg": (quality["ndcg"], "1"),
        "ap": (quality["ap"], "1"),
        "hard_auc": (auc(hard_slice(preds, r.dataset, inputs.partner)), "1"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


PER_LAYER_UNITS = {"_s": "s", "_gflop": "GFLOP", "bytes": "B"}


def per_layer(tracer, traced_s: float, untraced_s: float) -> dict:
    out = {}
    for name, value in tracer.metrics().items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), None)
        if unit is None:
            unit = "1" if ("share" in name or "per_" in name) else "count"
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_ratio"] = {"value": traced_s / untraced_s, "unit": "1"}
    return out


def phase_counts(r) -> dict:
    augment = [rec for _, records in r.augment_records for rec in records]
    return {
        "augment_requests": {"attempted": len(augment),
                             "failed": sum(1 for rec in augment if not rec.accepted)},
        "train_steps": {"attempted": r.train_steps * len(r.train_s), "failed": 0},
        "eval_pairs": {"attempted": sum(len(p) for p in r.eval_preds), "failed": 0},
        "rank_requests": {"attempted": len(r.rank_s), "failed": 0},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds to fill: rank requests continue until the timed "
                             "calls of all phases together reach it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pjfit").is_dir() or not (ROOT / "tests" / "reference_model.py").is_file():
        print(f"perfbench: {ROOT} holds no src/pjfit and tests/ oracles to measure", file=sys.stderr)
        return 2
    threads = _cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    from checks import Checks
    from harness import prepare, run_round, verify, SETUP_REPEATS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # a terminated run still removes its outputs (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runs_dir = ROOT / ".perfbench_runs"
    runs_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=runs_dir))
    try:
        inputs = prepare(workload, args.seed, work_dir, parallelism=min(4, NPROC))
        checks = Checks()
        if args.trace:
            from tracing import Tracer

            # one unit of every phase untraced, then the same traced; the
            # ratio of their wall times is the tracing overhead
            plain = run_round(inputs, 0.0, 1, checks, repeat=False)
            verify(inputs, plain, checks)
            plain.store = None  # frees ~1 GB at d1024 before the traced round
            with Tracer() as tracer:
                traced = run_round(inputs, 0.0, 1, checks, repeat=False)
            checks.repeats_identical("loss trace, traced against untraced",
                                     [plain.train_losses[0], traced.train_losses[0]])
            checks.repeats_identical("evaluate() metrics, traced against untraced",
                                     [plain.eval_metrics[0], traced.eval_metrics[0]])
            r, metrics = plain, per_layer(tracer, traced.wall_s, plain.wall_s)
            traced = None
        else:
            r = run_round(inputs, args.seconds, SETUP_REPEATS, checks)
            verify(inputs, r, checks)
            metrics = end_to_end(inputs, r)
        phases = phase_counts(r)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "blas_threads": _blas_threads(threads),
        "augment_parallelism": inputs.parallelism,
        "phases": phases,
        "timings_s": {name: [round(t, 4) for t in getattr(r, name)]
                      for name in ("setup_load_s", "setup_checkpoint_s", "train_s", "eval_s", "rank_s")},
        "inputs": inputs.makeup,
        "checks_passed": checks.passed,
        "checks_failed": checks.failures,
    }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
