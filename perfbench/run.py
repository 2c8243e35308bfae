"""The repository benchmark: one command, two workloads, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify|identify \
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace
1`` prints its per-layer breakdown.  Both workloads print the same
metric names.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    HERE, ROOT, SMOKE, SRC, drop_program_settings, environment_record,
    spawn,
)

#: Where a run keeps its scratch files (inside the checkout).
WORK_ROOT = ROOT / ".perfbench_work"

#: Scale of the small cold study a traced run times the study-side
#: layers on (acquisition, scores, pool, analysis, batch matching), and
#: the CLI's default pool width (the program caps it at the CPU count).
STUDY_SUBJECTS = 8 if SMOKE else 16
STUDY_WORKERS = 4

#: Metric names every workload prints, end to end (``--trace 0``) and
#: per layer (``--trace 1``).  ``BENCHMARK.json`` lists the same names.
END_TO_END = (
    "setup_s", "p50_ms", "tail_ms", "write_p50_ms", "ops_per_s",
    "cpu_ms_per_op", "peak_rss_mb",
)
_STUDY_LAYERS = (
    "acquisition.ms_per_impression", "scores.jobs", "matcher.invocations",
    "analysis.ms", "runtime.pool_efficiency", "matcher.batch_ms_per_pair",
)


def _server_phases() -> tuple:
    from serving import PHASES

    return tuple(f"server.{kind}.{phase}_ms"
                 for kind, phases in PHASES.items()
                 for phase in phases + ("unattributed",))


def per_layer() -> tuple:
    return _STUDY_LAYERS + (
        "quality.assess_ms", "io.incits_roundtrip_ms",
        "prefilter.descriptor_ms", "prefilter.us_per_row",
        "matcher.cold_ms_per_pair", "matcher.warm_ms_per_pair",
    ) + _server_phases() + (
        "client.transport_ms", "client.lag_ms", "batcher.mean_batch_size",
        "batcher.batches", "gallery.restart_ms_per_record", "wal.appends",
        "wal.fsyncs", "tracing.overhead_pct",
    )


def expected_metrics(trace: bool) -> set:
    return set(per_layer() if trace else END_TO_END)


def study_layers(seed: int, work: Path) -> dict:
    """One small cold study in a fresh process, traced; its layer
    metrics, checked against ``expected_counts`` and the scalar
    matcher."""
    import checks

    cmd = [
        sys.executable, str(HERE / "study_child.py"),
        "--subjects", str(STUDY_SUBJECTS), "--seed", str(seed),
        "--workers", str(STUDY_WORKERS),
    ]
    with open(work / "study.log", "ab") as log:
        proc = spawn(cmd, stdout=subprocess.PIPE, stderr=log)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            returncode = proc.wait()
    if returncode != 0:
        # Keep the study's traceback visible after the scratch
        # directory is gone.
        sys.stderr.write((work / "study.log").read_text()[-4000:])
        return {"failed": 1, "errors": [], "metrics": {}}
    result = json.loads(out.decode().strip().splitlines()[-1])
    return {
        "failed": 0,
        "errors": checks.check_study(
            result["counts"], result["expected"],
            [tuple(s) for s in result["sampled"]],
        ),
        "metrics": result["layers"],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 work: Path) -> dict:
    from serving import run_serving

    result = run_serving(workload, seed, seconds, trace, work)
    ops = result.pop("ops")
    result["attempted"] = len(ops)
    result["failed"] = sum(not op.ok for op in ops)
    if trace:
        study = study_layers(seed, work)
        result["attempted"] += 1
        result["failed"] += study["failed"]
        result["errors"] += study["errors"]
        result["metrics"].update(study["metrics"])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "identify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Before anything imports the program: the gallery this process
    # prepares (WAL layout) and every child must not depend on the
    # caller's shell.
    drop_program_settings()
    # SIGTERM unwinds like an exception, so every server and study
    # process is stopped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Compile once up front so no process pays bytecode compilation
    # inside a timed set-up.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    missing = expected_metrics(bool(args.trace)) - set(
        result["metrics"]
    )
    if missing:
        result["errors"].append(f"metrics not measured: {sorted(missing)}")
    if result["errors"]:
        print("perfbench: incorrect outputs: "
              + "; ".join(result["errors"][:5]), file=sys.stderr)
    print(json.dumps({"env": environment_record(),
                      "workload": args.workload, "seed": args.seed,
                      "info": result.get("info", {})}))
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
