"""Benchmark of chaincrf, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload wide-mix --seed 1 --seconds 50 --trace 0

The benchmark builds its inputs from --seed, calls the public functions
of the ``chaincrf`` package under ``src/`` for --seconds, checks every
output and prints one JSON line of results last.  With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones, from rounds run with the tracer installed.  A
line before the result records the environment.  Generated files go to
``.perfbench_run/`` in the checkout; the spans of a traced run are
written there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1   # one op at a time in one process; 1 thread measured no slower than 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_program():
    """Import chaincrf from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chaincrf
    except ImportError as exc:
        sys.exit("perfbench: cannot import chaincrf from %s: %s" % (src, exc))
    if not Path(chaincrf.__file__).resolve().is_relative_to(src):
        sys.exit("perfbench: chaincrf imported from %s, not %s" % (chaincrf.__file__, src))


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "python": platform.python_version(),
            "git_commit": git_commit(), "src_lines": src_lines}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from tracing import Tracer, per_layer_metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    out_dir = ROOT / ".perfbench_run"
    workdir = out_dir / ("%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sc, setup_times = workloads.setup(args.workload, args.seed, str(workdir))
        tracer = Tracer() if args.trace else None
        tally = workloads.measure(sc, args.seconds, tracer,
                                  min_rounds=4 if args.trace else 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = workloads.throughputs(sc, tally)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"train_tokens_per_s": "tokens/s", "decode_tokens_per_s": "tokens/s",
                 "tag_tokens_per_s": "tokens/s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        values = tracer.metrics(tally.traced_rounds, tally.traced_times, tally.times)
        values["evaluation.dev_token_accuracy"] = workloads.dev_token_accuracy(tally)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        spans = out_dir / ("spans-%s-s%d.jsonl" % (args.workload, args.seed))
        tracer.dump(spans)

    record = {"workload": args.workload, "seed": args.seed,
              "setup_times": setup_times,
              "dev_token_accuracy": {"value": workloads.dev_token_accuracy(tally),
                                     "unit": "fraction"}}
    print(json.dumps({"environment": environment(), "run": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
