"""The repository benchmark.

    python3 perfbench/run.py --workload decode_b1 --seed 1 --seconds 16 --trace 0

Runs one workload (``decode_b1``, ``prefill_long`` or ``serve_open``)
for ``--seconds`` seconds on inputs generated from ``--seed``, checks
every output, prints a table of metrics with units and sample counts,
and prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  Without ``--workload`` every
workload runs, each in its own process.  BLAS and OpenMP are pinned to
one thread before numpy loads; the run refuses to start when
``REPRO_OBS`` is set, because observability changes the measured path.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("decode_b1", "prefill_long", "serve_open")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool | None) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for
    this kind of run (both kinds for ``None``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kinds = {True: ["per_layer"], False: ["end_to_end"],
             None: ["end_to_end", "per_layer"]}[trace]
    return {m["name"]: m["unit"] for kind in kinds for m in spec[kind]}


def report(name, args, result, env, declared) -> str:
    """Print the table; return the final JSON line."""
    from perfbench.workloads import WORKLOADS

    phase, metrics = result["phase"], result["metrics"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    labels = WORKLOADS[name].labels
    units = declared_metrics(None)
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':44} {'value':>14} {'unit':12} {'samples':>8} pct")
    for key in sorted(metrics):
        stat = metrics[key]
        shown = key if key not in labels else f"{labels[key]} ({key})"
        pct = "" if stat.percentile is None else f"p{stat.percentile:g}"
        unit = units.get(key, "-")
        print(f"{shown:44} {stat.value:14.6g} {unit:12} {stat.samples:8d} {pct}")
    rate = phase.failed / phase.attempted if phase.attempted else 0.0
    print(f"{'error_rate':44} {rate:14.6g} {'ratio':12} {phase.attempted:8d} "
          f"failed={phase.failed} wrong_outputs={phase.wrong}")
    return json.dumps({
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {key: {"value": metrics[key].value, "unit": unit}
                    for key, unit in declared.items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_OBS"):
        print("perfbench: REPRO_OBS is set; observability changes the "
              "measured code path, unset it", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import environment, execute

    env = environment()
    if env["repro_obs"]:
        print("perfbench: repro.obs is active", file=sys.stderr)
        return 2
    result = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_dir=ROOT / ".perfbench" if args.trace else None)
    line = report(args.workload, args, result, env,
                  declared_metrics(bool(args.trace)))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
