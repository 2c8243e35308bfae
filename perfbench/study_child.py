"""One small cold study in its own process, for the traced run's
study-side layers.

Runs acquisition, score generation and the Table 4/5 analyses through
``repro.api`` with the program's telemetry on, re-scores a seeded
sample with the scalar matcher, and prints one JSON line: the score
counts, ``expected_counts``, the sample and the layer metrics.  Run by
``perfbench/run.py``; not meant to be run alone.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from harness import Spans, SRC, metric

sys.path.insert(0, str(SRC))

import repro.api as api  # noqa: E402
from repro.core.scores import sample_ddmi_jobs, sample_dmi_jobs  # noqa: E402


#: Score entries re-scored by the scalar matcher, per scenario (four
#: scenarios, so 48 in all).
SAMPLE_PER_SCENARIO = 12


def scenario_jobs(config) -> dict:
    """Every scenario's job list, in the row order of its score set."""
    n = config.n_subjects
    tree = api.SeedTree(config.master_seed)
    return {
        "DMG": api.enumerate_dmg_jobs(n),
        "DDMG": api.enumerate_ddmg_jobs(n),
        "DMI": sample_dmi_jobs(n, config.scaled_dmi_budget(), tree),
        "DDMI": sample_ddmi_jobs(n, config.scaled_ddmi_budget(), tree),
    }


def job_pair(collection, finger: str, job) -> tuple:
    sg, dg, setg, sp, dp, setp = job
    return (
        collection.get(sp, finger, dp, setp).template,
        collection.get(sg, finger, dg, setg).template,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--subjects", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    config = api.StudyConfig(
        n_subjects=args.subjects, master_seed=args.seed,
        n_workers=args.workers, cache_dir=None, artifact_dir=None,
    )
    recorder = api.enable_telemetry()
    spans = Spans()
    started = time.perf_counter()
    study = api.InteroperabilityStudy(config)
    collection = spans.timed("acquisition", study.collection)
    sets = spans.timed("scores", study.score_sets)
    spans.timed("analysis", lambda: (
        api.fnmr_interoperability_matrix(study, api.TABLE5_FMR),
        api.kendall_matrix(study),
    ))
    wall = time.perf_counter() - started

    # Correctness: counts, then a seeded sample re-scored by a fresh
    # scalar matcher, bit for bit.
    jobs = scenario_jobs(config)
    rng = random.Random(args.seed)
    scalar = api.BioEngineMatcher()
    sampled = []
    for scenario, score_set in sets.items():
        for row in rng.sample(range(len(score_set)), SAMPLE_PER_SCENARIO):
            pair = job_pair(collection, study.finger, jobs[scenario][row])
            sampled.append((
                f"{scenario}[{row}]", float(score_set.scores[row]),
                float(scalar.match(*pair)),
            ))
    print(json.dumps({
        "counts": {name: len(s) for name, s in sets.items()},
        "expected": api.expected_counts(config),
        "sampled": sampled,
        "layers": traced_layers(
            config, study, collection, sets, jobs, spans, recorder, wall
        ),
    }), flush=True)
    return 0


def traced_layers(config, study, collection, sets, jobs, spans, recorder,
                  wall) -> dict:
    from layers import batch_ms_per_pair

    workers = max(1, api.resolve_worker_count(config.n_workers))
    snapshot = recorder.metrics.snapshot()
    busy = snapshot["histograms"].get("parallel.batch_seconds", {}).get("sum", 0.0)
    started = time.perf_counter()
    api.fnmr_interoperability_matrix(study, api.TABLE5_FMR)
    api.kendall_matrix(study)
    analysis_ms = (time.perf_counter() - started) * 1000.0

    rng = random.Random(config.master_seed + 1)
    impressions = list(collection)
    ddmi = [job_pair(collection, study.finger, job)
            for job in rng.sample(jobs["DDMI"], min(128, len(jobs["DDMI"])))]
    return {
        "acquisition.ms_per_impression": metric(
            spans.total("acquisition") * 1000.0 / len(impressions), "ms"
        ),
        "scores.jobs": metric(sum(len(s) for s in sets.values()), "count"),
        "matcher.invocations": metric(
            recorder.counter_value("matcher.invocations"), "count"
        ),
        "analysis.ms": metric(analysis_ms, "ms"),
        "runtime.pool_efficiency": metric(busy / (wall * workers), "ratio"),
        "matcher.batch_ms_per_pair": metric(batch_ms_per_pair(ddmi), "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())
