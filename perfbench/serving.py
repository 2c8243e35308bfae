"""The ``verify`` and ``identify`` workloads: ``repro serve`` over HTTP.

The two workloads have the same shape and report the same metrics: a
stream of reads (``/v1/verify`` or two-stage ``/v1/identify``) with
every ``write_every``-th op a ``/v1/enroll`` of a new identity.  Both
generate every probe and enrollment from the workload
seed, prepare the gallery once with the program's own
``GalleryIndex.enroll``, and then give each server start a fresh copy
of it (a restart replays, checkpoints and compacts the WAL, so a reused
directory would change the next start).  The server keeps its defaults
(request tracing on, default batching, default identify mode) and runs
behind a keyfile with one read/write/admin principal whose limits are
roomy enough that nothing is refused.

One run: several timed server starts (``setup_s`` is their median; the
last one serves), a warm-up, then rounds of a paced open loop at a
fixed rate and a closed loop at ``nproc`` connections.  ``--trace 1``
sends the same traffic to an untraced and a traced server (``--reqlog``
plus the benchmark's own spans) and reports the per-layer breakdown
instead.
"""

from __future__ import annotations

import base64
import json
import os
import secrets
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

import checks
from harness import (
    Client,
    Op,
    SMOKE,
    ServerProcess,
    Spans,
    closed_loop,
    copy_tree,
    cpu_seconds,
    metric,
    open_loop,
    peak_rss_mb,
    read_reqlog,
)
from layers import template_layers

#: Interleaved paced/closed rounds per run (see :func:`_measure`).
CYCLES = 8

#: Percentile reported as ``tail_ms``, taken per round and reported as
#: the median over the rounds.  p99 never has ten samples beyond it at
#: these op counts.  On a 2-CPU virtual machine, p95 of all paced reads
#: spread 47-58% of its median over five runs and pooled p90 28-34%:
#: a few seconds of host slowness in one round move them.  The median
#: over rounds of each round's p90 spread 17-23%.
TAIL_Q = 90.0

#: Load-generator connections (and threads): the CPU count, at most 2.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

#: Server phases reported per op kind, in timeline order: ``read`` is
#: the workload's read endpoint, ``write`` is ``/v1/enroll``.  Only the
#: phases both read endpoints have are named; identify's ``prefilter``
#: phase is part of ``unattributed``'s subtrahend like every other, and
#: the prefilter layer is timed in-process (``prefilter.us_per_row``).
PHASES = {
    "read": ("auth", "limits", "parse", "gallery", "queue_wait",
             "batch_wait", "match", "respond"),
    "write": ("auth", "limits", "parse", "gallery", "respond"),
}

#: Master seed of the verify workload's enrolled population.
POPULATION_SEED = 20130624

#: Per-workload shape.  ``paced_rate`` is set against the closed-loop
#: ``ops_per_s`` measured on a 2-CPU machine (see ``README.md``): about
#: a third of verify's; for identify, about 0.43, so a run still has
#: over a hundred paced reads for the tail.  Of ``--seconds``,
#: ``paced_share`` goes to the paced phase and the rest to the closed
#: loop, whose op count is sized at ``closed_rate`` (about the
#: measured capacity).  ``starts`` is the number of timed server starts
#: (``setup_s`` is their median): a verify start takes about 0.5 s and
#: spreads widely, an identify start about 3.5 s.
SPECS = {
    "verify": {
        "gallery": 48,            # D0 enrollments (program's sensors)
        "starts": 7,
        "write_every": 10,        # every 10th op enrolls a newcomer
        "impostor_every": 5,      # every 5th claim is someone else's
        "paced_rate": 60.0,       # ops/s
        "paced_share": 0.5,
        "closed_rate": 150.0,     # ops/s
        "warmup": 100,
    },
    "identify": {
        "gallery": 1000,          # synthetic identities on D0
        "starts": 3,
        "write_every": 7,         # every 7th op enrolls a new identity
        "paced_rate": 8.0,
        "paced_share": 0.75,
        "closed_rate": 18.0,
        "warmup": 16,
    },
}

#: Fewest paced ops of a run: every round gets reads, and the run at
#: least one write.
PACED_MIN = 3 * CYCLES

if SMOKE:
    SPECS["verify"].update(gallery=12, warmup=10)
    SPECS["identify"].update(gallery=60, warmup=4)


def _body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _wire(template) -> tuple:
    """``(base64 INCITS 378, decoded template)`` or ``None`` if the
    template cannot be encoded (a minutia outside the format's range).

    The decoded template is what the server sees, so every oracle
    scores it rather than the pre-encoding original.
    """
    from repro.api import decode, encode
    from repro.runtime.errors import TemplateFormatError

    try:
        raw = encode(template)
    except TemplateFormatError:
        return None
    return base64.b64encode(raw).decode("ascii"), decode(raw)[0]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Inputs:
    """Everything a serving run sends, generated from the seed."""

    def __init__(self) -> None:
        self.gallery: Dict[str, object] = {}   # identity -> template
        self.warmup: List[Op] = []
        self.paced: List[Op] = []
        self.closed: List[Op] = []


def _newcomers(seed: int, count: int) -> List[tuple]:
    """``count`` wire D0 captures of a population of newcomers drawn
    from the seed, skipping captures the server would refuse."""
    from repro.api import Population, SeedTree, StudyConfig, build_sensor

    # Subjects are synthesized on first access, so a generous population
    # bound costs nothing.
    size = 4 * count + 16
    population = Population(StudyConfig(n_subjects=size, master_seed=seed))
    sensor = build_sensor("D0")
    tree = SeedTree(seed)
    out: List[tuple] = []
    for s in range(size):
        impression = sensor.acquire(
            population.subject(s), "right_index",
            tree.child("newcomer", s).generator("D0"), set_index=0,
        )
        wire = _gated_wire(impression.template)
        if wire is not None:
            out.append(wire)
            if len(out) == count:
                return out
    raise RuntimeError(f"only {len(out)} of {size} newcomers are enrollable")


def verify_inputs(seed: int, n_ops: int, spec: dict) -> Inputs:
    """D0 enrollments of a fixed population; fresh D1/D2 probe captures.

    The enrolled population is the same for every seed (a deployment's
    gallery does not change between measurements); the seed drives the
    captures, their order, the impostor claims and the newcomers that
    enroll.  Probes cycle through the enrolled subjects so every
    subject is probed equally often, and every fifth claim is an
    impostor's.
    """
    from repro.api import Population, SeedTree, StudyConfig, build_sensor

    population = Population(StudyConfig(
        n_subjects=spec["gallery"], master_seed=POPULATION_SEED
    ))
    enroll_tree = SeedTree(POPULATION_SEED)
    sensors = {d: build_sensor(d) for d in ("D0", "D1", "D2")}
    subjects = {}
    inputs = Inputs()
    for s in range(spec["gallery"]):
        subject = population.subject(s)
        impression = sensors["D0"].acquire(
            subject, "right_index",
            enroll_tree.child("enroll", s).generator("D0"), set_index=0,
        )
        wire = _wire(impression.template)
        if wire is not None:
            inputs.gallery[f"subject-{s}"] = wire[1]
            subjects[f"subject-{s}"] = subject
    rng = np.random.default_rng(seed)
    tree = SeedTree(seed)
    order = [str(i) for i in rng.permutation(sorted(inputs.gallery))]
    newcomers = iter(_newcomers(seed, -(-n_ops // spec["write_every"])))
    ops: List[Op] = []
    attempt = reads = 0
    while len(ops) < n_ops:
        j = len(ops)
        if j % spec["write_every"] == 3:
            ops.append(_enroll_op(j, next(newcomers)))
            continue
        attempt += 1
        owner = order[reads % len(order)]
        device = ("D1", "D2")[(reads // len(order)) % 2]
        claim = owner
        if reads % spec["impostor_every"] == 2:
            shift = 1 + int(rng.integers(len(order) - 1))
            claim = order[(reads + shift) % len(order)]
        impression = sensors[device].acquire(
            subjects[owner], "right_index",
            tree.child("probe", attempt).generator(device), set_index=1,
        )
        wire = _wire(impression.template)
        if wire is None:
            continue
        reads += 1
        ops.append(Op(
            "verify", "/v1/verify",
            _body({"identity": claim, "device": "D0", "template": wire[0]}),
            f"v{j}", meta=(claim, wire[1]),
        ))
    _split(inputs, ops, spec)
    return inputs


#: Minutia counts of the synthetic fingers: the range the program's
#: sensors produce, used in equal shares (stratified) so the amount of
#: matching work per op barely depends on the seed.
MINUTIAE = tuple(range(16, 45))


def _random_finger(rng, n: int):
    from repro.matcher.types import template_from_arrays

    return template_from_arrays(
        positions_px=rng.uniform((40.0, 40.0), (260.0, 360.0), size=(n, 2)),
        angles=rng.uniform(0.0, 2.0 * np.pi, size=n),
        kinds=rng.choice((1, 2), size=n, p=(0.6, 0.4)),
        qualities=rng.integers(40, 100, size=n),
        width_px=300, height_px=400,
    )


def _capture(finger, rng):
    """Another capture of ``finger``: small pose change, jitter, and 5%
    dropout."""
    from repro.matcher.types import template_from_arrays

    positions = finger.positions_px()
    theta = float(rng.uniform(-0.15, 0.15))
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    center = positions.mean(axis=0)
    positions = (positions - center) @ rotation.T + center
    positions = positions + rng.uniform(-10.0, 10.0, size=2)
    positions = positions + rng.normal(0.0, 0.5, size=positions.shape)
    # Drop exactly one minutia in twenty: a random dropout count could
    # leave a small finger with too little to search on.
    keep = np.ones(len(positions), dtype=bool)
    keep[rng.choice(len(positions), size=len(positions) // 20, replace=False)] = False
    return template_from_arrays(
        positions_px=positions[keep],
        angles=finger.angles()[keep] + theta,
        kinds=finger.kinds()[keep],
        qualities=finger.qualities()[keep],
        width_px=300, height_px=400,
    )


def _gated_wire(template):
    """``_wire(template)`` if it also passes the server's default NFIQ
    enrollment gate (levels 1-4), else ``None``."""
    from repro.api import assess_template

    wire = _wire(template)
    if wire is not None and assess_template(wire[1]).level <= 4:
        return wire
    return None


def _enrollable(rng, n: int) -> tuple:
    """A new finger of ``n`` minutiae and its wire capture, retried until
    it encodes and passes the server's NFIQ gate."""
    while True:
        finger = _random_finger(rng, n)
        wire = _gated_wire(_capture(finger, rng))
        if wire is not None:
            return finger, wire


def _enroll_op(j: int, wire: tuple) -> Op:
    identity = f"new-{j:05d}"
    return Op(
        "enroll", "/v1/enroll",
        _body({"identity": identity, "device": "D0", "template": wire[0]}),
        f"e{j}", meta=(identity, wire[1]),
    )


def identify_inputs(seed: int, n_ops: int, spec: dict) -> Inputs:
    """Synthetic identities on D0; genuine probes plus new enrollments.

    Every ``write_every``-th op enrolls a new identity; the rest are
    genuine two-stage searches whose mates cycle through the minutia
    strata.
    """
    rng = np.random.default_rng(seed)
    inputs = Inputs()
    fingers = {}
    strata: Dict[int, List[str]] = {n: [] for n in MINUTIAE}
    for i in range(spec["gallery"]):
        n = MINUTIAE[i % len(MINUTIAE)]
        finger, wire = _enrollable(rng, n)
        identity = f"id-{i:05d}"
        inputs.gallery[identity] = wire[1]
        fingers[identity] = finger
        strata[n].append(identity)
    ops: List[Op] = []
    reads = writes = 0
    while len(ops) < n_ops:
        j = len(ops)
        if j % spec["write_every"] == 3:
            _, wire = _enrollable(rng, MINUTIAE[writes % len(MINUTIAE)])
            writes += 1
            ops.append(_enroll_op(j, wire))
            continue
        stratum = strata[MINUTIAE[reads % len(MINUTIAE)]]
        mate = stratum[int(rng.integers(len(stratum)))]
        wire = _wire(_capture(fingers[mate], rng))
        if wire is None:
            continue
        reads += 1
        ops.append(Op(
            "identify", "/v1/identify",
            _body({"template": wire[0], "device": "D0",
                   "mode": "two_stage"}),
            f"i{j}", meta=(mate, wire[1]),
        ))
    _split(inputs, ops, spec)
    return inputs


def _split(inputs: Inputs, ops: List[Op], spec: dict) -> None:
    warm = spec["warmup"]
    paced = spec["_paced_n"]
    inputs.warmup = ops[:warm]
    inputs.paced = ops[warm:warm + paced]
    inputs.closed = ops[warm + paced:]


def prepare_gallery(root: Path, gallery: Dict[str, object]) -> None:
    from repro.api import GalleryIndex

    with GalleryIndex(root) as index:
        for identity, template in sorted(gallery.items()):
            index.enroll(identity, template, device="D0")


def write_keyfile(path: Path) -> str:
    key = "rk_" + secrets.token_urlsafe(24)
    roomy = {"rate": 1e6, "burst": 1e6}
    path.write_text(json.dumps({"keys": [{
        "principal": "bench",
        "key": key,
        "roles": ["read", "write", "admin"],
        "limits": {"read": roomy, "write": roomy, "admin": roomy,
                   "quota": 0},
    }]}))
    return key


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _warm(server: ServerProcess, key: str, inputs: Inputs,
          workload: str) -> List[Op]:
    """Untimed warm-up; returns every op it sent (they count as
    attempted, and a failure among them counts as failed)."""
    sweep: List[Op] = []
    if workload == "identify":
        # One verify per enrolled identity (all with one probe) builds
        # every gallery frame in the server's matcher cache, so the
        # timed phases see the steady state of a long-running server:
        # warm gallery frames, cold probes.
        probe = json.loads(inputs.warmup[0].body)["template"]
        sweep = [
            Op("verify", "/v1/verify",
               _body({"identity": identity, "device": "D0",
                      "template": probe}), f"w{i}")
            for i, identity in enumerate(sorted(inputs.gallery))
        ]
    clients = [Client(server.port, key) for _ in range(CONNECTIONS)]
    try:
        closed_loop(sweep, clients)
        closed_loop(inputs.warmup, clients)
    finally:
        for client in clients:
            client.close()
    return sweep


def _measure(server: ServerProcess, key: str, inputs: Inputs,
             spec: dict) -> dict:
    """The timed phases, interleaved: ``CYCLES`` rounds of a paced
    open-loop chunk followed by a closed-loop chunk.

    The host's speed drifts over tens of seconds, so both phases are
    spread over the whole measured span and every figure is pooled over
    all rounds: ``p50_ms`` is the median of every paced read,
    ``ops_per_s`` all closed-loop reads over all closed-loop wall time,
    ``cpu_ms_per_op`` all closed-loop server CPU over all closed-loop
    ops.  Server CPU comes from ``/proc``, batch counts from
    ``/v1/stats``.
    """
    clients = [Client(server.port, key) for _ in range(CONNECTIONS)]
    wall = cpu = 0.0
    batches = jobs = 0
    try:
        for cycle in range(CYCLES):
            open_loop(inputs.paced[cycle::CYCLES], clients, spec["paced_rate"])
            before = clients[0].get("/v1/stats")["batching"]
            cpu_before = cpu_seconds(server.pid)
            wall += closed_loop(inputs.closed[cycle::CYCLES], clients)
            cpu += cpu_seconds(server.pid) - cpu_before
            stats = clients[0].get("/v1/stats")
            batches += stats["batching"]["batches"] - before["batches"]
            jobs += stats["batching"]["jobs"] - before["jobs"]
    finally:
        for client in clients:
            client.close()
    done = [o for o in inputs.closed if o.ok]
    return {
        "p50_ms": np.median([o.latency_ms for o in inputs.paced
                             if o.ok and o.kind != "enroll"]),
        "ops_per_s": sum(o.kind != "enroll" for o in done) / wall,
        "cpu_ms_per_op": cpu * 1000.0 / max(1, len(done)),
        "batches": batches,
        "mean_batch": jobs / batches if batches else 0.0,
        "stats": stats,
    }


def _latency_metrics(ops: Sequence[Op]) -> Dict[str, dict]:
    """The paced phase's tail (median over rounds of each round's
    ``TAIL_Q`` percentile of reads) and the median of all its writes."""
    def read_ms(cycle: int) -> List[float]:
        return [o.latency_ms for o in ops[cycle::CYCLES]
                if o.ok and o.kind != "enroll"]

    writes = [o.latency_ms for o in ops if o.ok and o.kind == "enroll"]
    return {
        "tail_ms": metric(np.median([
            np.percentile(read_ms(cycle), TAIL_Q) for cycle in range(CYCLES)
        ]), "ms"),
        "write_p50_ms": metric(np.median(writes), "ms"),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_outputs(workload: str, ops: Sequence[Op], inputs: Inputs,
                  sample: int = 8) -> List[str]:
    """Workload ops against the scalar matcher (warm-up sweeps, whose
    only purpose is to fill the cache, are not checked)."""
    from repro.api import BioEngineMatcher
    from repro.service.server import DEFAULT_THRESHOLD

    matcher = BioEngineMatcher()
    sent = [o for o in ops if o.status and o.meta is not None]
    writes = [o for o in sent if o.kind == "enroll"]
    reads = [o for o in sent if o.kind != "enroll"]
    errors = checks.check_enroll(
        [o.response if o.ok else None for o in writes],
        [o.meta[0] for o in writes],
    )
    if workload == "verify":
        oracle = [matcher.match(o.meta[1], inputs.gallery[o.meta[0]])
                  for o in reads]
        return errors + checks.check_verify(
            [o.response if o.ok else None for o in reads], oracle,
            DEFAULT_THRESHOLD,
        )
    templates = dict(inputs.gallery)
    for o in writes:
        templates[o.meta[0]] = o.meta[1]
    picks = np.random.default_rng(len(reads)).choice(
        len(reads), size=min(sample, len(reads)), replace=False
    )
    errors += checks.check_identify(
        [o.response if o.ok else None for o in reads],
        [o.meta[0] for o in reads],
        sorted(int(i) for i in picks),
        lambda i, identity: matcher.match(reads[i].meta[1], templates[identity]),
    )
    return errors


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _setup(workload: str, seed: int, seconds: int, work: Path):
    spec = dict(SPECS[workload])
    share = spec["paced_share"]
    spec["_paced_n"] = max(PACED_MIN, round(spec["paced_rate"] * seconds * share))
    closed_n = max(CYCLES, round(spec["closed_rate"] * seconds * (1 - share)))
    n_ops = spec["warmup"] + spec["_paced_n"] + closed_n
    make = verify_inputs if workload == "verify" else identify_inputs
    inputs = make(seed, n_ops, spec)
    master = work / "gallery"
    prepare_gallery(master, inputs.gallery)
    keyfile = work / "keys.json"
    key = write_keyfile(keyfile)
    return spec, inputs, master, keyfile, key


def _serve(workload: str, spec: dict, inputs: Inputs, master: Path,
           keyfile: Path, key: str, work: Path, starts: int = 1,
           extra_args: Sequence[str] = ()) -> dict:
    """Start a server ``starts`` times (each on a fresh gallery copy),
    warm the last one up, run the timed phases, and stop it."""
    setups = []
    server = None
    try:
        for _ in range(starts):
            if server is not None:
                server.stop()
            server = ServerProcess(
                copy_tree(master, work / "serve"), keyfile,
                work / "server.log", extra_args,
            )
            setups.append(server.start())
        sweep = _warm(server, key, inputs, workload)
        measured = _measure(server, key, inputs, spec)
        measured["sweep"] = sweep
        measured["peak_rss_mb"] = peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()
    measured["setups"] = setups
    return measured


def run_serving(workload: str, seed: int, seconds: int, trace: bool,
                work: Path) -> dict:
    spec, inputs, master, keyfile, key = _setup(workload, seed, seconds, work)
    if trace:
        return _traced(workload, spec, inputs, master, keyfile, key, work)
    started = time.perf_counter()
    served = _serve(workload, spec, inputs, master, keyfile, key, work,
                    starts=spec["starts"])
    served_s = time.perf_counter() - started
    ops = served["sweep"] + inputs.warmup + inputs.paced + inputs.closed
    metrics = {
        "setup_s": metric(np.median(served["setups"]), "s"),
        "p50_ms": metric(served["p50_ms"], "ms"),
    }
    metrics.update(_latency_metrics(inputs.paced))
    metrics["ops_per_s"] = metric(served["ops_per_s"], "1/s")
    metrics["cpu_ms_per_op"] = metric(served["cpu_ms_per_op"], "ms")
    metrics["peak_rss_mb"] = metric(served["peak_rss_mb"], "MB")
    paced_reads = sum(o.kind != "enroll" for o in inputs.paced)
    return {
        "ops": ops,
        "errors": check_outputs(workload, ops, inputs),
        "metrics": metrics,
        "info": {
            "gallery": len(inputs.gallery),
            "paced_reads": paced_reads,
            "paced_writes": len(inputs.paced) - paced_reads,
            "closed_ops": len(inputs.closed),
            "tail_percentile": TAIL_Q,
            "setup_samples_s": served["setups"],
            "serving_s": served_s,
        },
    }


def _phase_metrics(reqlog: Dict[str, dict], ops: Sequence[Op]) -> Dict[str, dict]:
    """Per-kind (read, write) p50 of every server phase, plus the
    unattributed remainder (server latency minus all its phases) and
    the client-side transport time of reads."""
    per: Dict[str, Dict[str, List[float]]] = {}
    transport: List[float] = []
    for op in ops:
        entry = reqlog.get(op.request_id)
        if entry is None or not op.ok:
            continue
        sums: Dict[str, float] = {}
        for phase in entry.get("phases", []):
            sums[phase["name"]] = sums.get(phase["name"], 0.0) + phase["ms"]
        kind = "write" if op.kind == "enroll" else "read"
        bucket = per.setdefault(kind, {})
        for name in PHASES[kind]:
            bucket.setdefault(name, []).append(sums.get(name, 0.0))
        bucket.setdefault("unattributed", []).append(
            entry["latency_ms"] - sum(sums.values())
        )
        if kind == "read":
            transport.append((op.done - op.sent) * 1000.0 - entry["latency_ms"])
    out = {}
    for kind, phases in per.items():
        for name, values in phases.items():
            out[f"server.{kind}.{name}_ms"] = metric(np.median(values), "ms")
    out["client.transport_ms"] = metric(np.median(transport), "ms")
    return out


def _traced(workload, spec, inputs, master, keyfile, key, work) -> dict:
    """Per-layer run: an untraced server, then one with ``--reqlog``."""
    untraced = _fresh_inputs(inputs)
    plain = _serve(workload, spec, untraced, master, keyfile, key, work)
    reqlog_path = work / "reqlog.jsonl"
    spans = Spans()
    served = spans.timed(
        "serve", _serve, workload, spec, inputs, master, keyfile, key, work,
        extra_args=["--reqlog", str(reqlog_path)],
    )
    all_ops = (served["sweep"] + inputs.warmup + inputs.paced + inputs.closed
               + plain["sweep"] + untraced.warmup + untraced.paced
               + untraced.closed)
    errors = check_outputs(workload, all_ops, inputs)
    metrics = _phase_metrics(read_reqlog(reqlog_path), inputs.paced)
    lag = [(o.sent - o.due) * 1000.0 for o in inputs.paced]
    metrics.update({
        "client.lag_ms": metric(np.median(lag), "ms"),
        "batcher.mean_batch_size": metric(served["mean_batch"], "jobs"),
        "batcher.batches": metric(served["batches"], "count"),
        "tracing.overhead_pct": metric(
            (served["p50_ms"] - plain["p50_ms"]) * 100.0 / plain["p50_ms"], "%"
        ),
    })
    probes = [o.meta[1] for o in inputs.paced if o.kind != "enroll"][:160]
    gallery = list(inputs.gallery.values())
    closed = [o for o in inputs.closed if o.kind != "enroll"]
    pairs = [(o.meta[1], gallery[i % len(gallery)])
             for i, o in enumerate(closed[:120])]
    metrics.update(template_layers(probes, pairs))
    wal = served["stats"]["gallery"]["wal"]
    metrics["wal.appends"] = metric(wal["appends"], "count")
    metrics["wal.fsyncs"] = metric(wal["fsyncs"], "count")
    metrics["gallery.restart_ms_per_record"] = metric(
        served["setups"][0] * 1000.0 / len(inputs.gallery), "ms"
    )
    metrics["prefilter.us_per_row"] = metric(
        _prefilter_us_per_row(master, probes), "us"
    )
    return {"ops": all_ops, "errors": errors, "metrics": metrics,
            "info": {"traced_serve_s": spans.total("serve"),
                     "untraced_p50_ms": plain["p50_ms"]}}


def _fresh_inputs(inputs: Inputs) -> Inputs:
    """Unsent copies of every op, with distinct request ids (the
    traced run sends the same traffic to two servers)."""
    copy = Inputs()
    copy.gallery = inputs.gallery
    for name in ("warmup", "paced", "closed"):
        setattr(copy, name, [
            Op(o.kind, o.path, o.body, o.request_id + "u", o.meta)
            for o in getattr(inputs, name)
        ])
    return copy


def _prefilter_us_per_row(master: Path, probes: Sequence) -> float:
    """``GalleryIndex.prefilter`` top-32 on a read-only open, per row."""
    from repro.api import GalleryIndex

    index = GalleryIndex(master, readonly=True)
    rows = len(index.identities("D0"))
    started = time.perf_counter()
    for probe in probes:
        index.prefilter(probe, device="D0", k=32)
    elapsed = time.perf_counter() - started
    return elapsed * 1e6 / (len(probes) * rows)
