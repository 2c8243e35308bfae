"""The stable public API of the reproduction.

``repro.api`` is the one import surface downstream code — the CLI, the
examples, the benchmark suite, notebooks — should use.  It provides:

* **Study entry points**: :func:`run_study`, :func:`load_scores` and
  :func:`compare_devices`, which cover the common workflows (run the
  experiment, reuse cached scores, interrogate one device pair) without
  reaching into :mod:`repro.core.study` internals;
* **Curated re-exports** of every class, function and constant the
  workflows compose with (configuration, sensors, matcher, statistics,
  report renderers), so one ``from repro.api import ...`` line replaces
  a half-dozen deep-module imports.

Deep imports (``repro.core.study``, ``repro.stats.roc``, ...) keep
working — they are the implementation, not the contract — but only the
names exported here are covered by the deprecation policy: anything
re-exported from ``repro.api`` survives internal refactors.

The old top-level imports (``from repro import InteroperabilityStudy``)
are gone; see ``docs/api.md`` for the migration table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

# --- configuration / runtime ------------------------------------------------
from .runtime.artifacts import ArtifactStore, canonical_digest
from .runtime.cache import ScoreCache
from .runtime.config import (
    DEFAULT_SUBJECT_COUNT,
    PAPER_SUBJECT_COUNT,
    StudyConfig,
    resolve_worker_count,
)
from .runtime.errors import (
    ConfigurationError,
    MatcherError,
    PermanentError,
    ReproError,
    TransientError,
    classify_failure,
)
from .runtime.faults import FaultInjector, parse_faults
from .runtime.manifest import RunManifest, render_manifest, validate_manifest
from .runtime.parallel import parallel_map, parallel_map_batched
from .runtime.progress import ProgressReporter
from .runtime.rng import SeedTree
from .runtime.shm import SharedTemplateStore, SharedTemplateView
from .runtime.supervisor import RetryPolicy, supervised_map_batched
from .runtime.telemetry import (
    TelemetryRecorder,
    TraceContext,
    configure_logging,
    current_trace,
    disable_telemetry,
    enable_telemetry,
    get_recorder,
    new_request_id,
    trace_request,
)

# --- study engine -----------------------------------------------------------
from .core.error_rates import (
    TABLE5_FMR,
    TABLE6_FMR,
    TABLE6_MAX_NFIQ,
    diagonal_dominance_violations,
    fnmr_interoperability_matrix,
    mean_interoperability_penalty,
)
from .core.habituation import (
    control_by_presentation,
    first_vs_last,
    render_habituation,
)
from .core.identification import (
    DEFAULT_CANDIDATE_K,
    IDENTIFY_MODES,
    SearchReport,
    TwoStageIdentifier,
    cross_device_cmc,
    open_set_rates,
    rank_candidates,
    rank_candidates_scalar,
)
from .core.prefilter import (
    DESCRIPTOR_DIM,
    PrefilterIndex,
    descriptor_vector,
)
from .core.kendall_analysis import (
    asymmetry_count,
    kendall_matrix,
    pvalue_matrix,
)
from .core.prediction import FnmrPredictor
from .core.quality_analysis import (
    low_score_quality_surface,
    quality_filtered_fnmr_matrix,
)
from .core.report import (
    render_figure1,
    render_figure4,
    render_figure5,
    render_fnmr_matrix,
    render_score_histograms,
    render_table1,
    render_table3,
    render_table4,
)
from .core.scores import (
    GALLERY_SET,
    PROBE_SET,
    SCENARIOS,
    ScoreSet,
    enumerate_ddmg_jobs,
    enumerate_dmg_jobs,
    expected_counts,
)
from .core.study import InteroperabilityStudy

# --- data and models --------------------------------------------------------
from .calibration import (
    DeviceInferenceModel,
    apply_tps_to_template,
    control_points_from_matches,
    d_prime,
    fit_tps,
    separability_weights,
    sum_fusion,
    weighted_sum_fusion,
)
from .datasets import (
    build_collection,
    load_quality_arrays,
    render_collection_summary,
    subject_artifact_digest,
    summarize_collection,
    warm_artifacts,
)
from .imaging import (
    ImagePipeline,
    RenderSettings,
    extract_template,
    recovery_metrics,
    render_finger,
    to_uint8,
)
from .io.incits378 import RecordMetadata, decode, encode
from .matcher import (
    BioEngineMatcher,
    Minutia,
    RidgeGeometryMatcher,
    Template,
    build_matcher,
)
from .matcher.alignment import candidate_pairs, estimate_alignments
from .matcher.descriptors import build_descriptors, similarity_matrix
from .matcher.pairing import pair_minutiae
from .matcher.scoring import compute_score
from .pipeline import (
    EnrolledRecord,
    InteropAwareVerifier,
    TemplateDatabase,
    Verifier,
)
from .pipeline.verifier import train_interop_verifier_from_study
from .quality import (
    QualityFeatures,
    assess_template,
    nfiq_level,
    template_quality_features,
)
from .service import (
    BatchingConfig,
    EnrollmentRejected,
    GalleryIndex,
    GalleryReadOnlyError,
    GalleryRecord,
    MicroBatcher,
    RequestLog,
    ServerStartupError,
    ServiceClient,
    ServiceClientError,
    ServiceStats,
    UnknownIdentityError,
    VerificationServer,
    WorkerPool,
    WorkerPoolConfig,
    WorkerPoolDegradedError,
    encode_template,
    iter_reqlog,
    parse_exposition,
    render_exposition,
    shard_of,
)
from .sensors import (
    DEVICE_ORDER,
    DEVICE_PROFILES,
    LIVESCAN_DEVICES,
    Impression,
    InkCardSensor,
    OpticalSensor,
    ProtocolSettings,
    build_sensor,
)
from .stats import (
    det_points,
    fnmr_at_fmr,
    score_histogram,
    summarize,
    threshold_at_fmr,
    wilson_interval,
)
from .stats.comparison import render_det
from .synthesis import (
    FINGER_POSITION_CODES,
    PatternClass,
    Population,
    ascii_preview,
    read_pgm,
    render_ridge_image,
    synthesize_master_finger,
    write_pgm,
)


# ---------------------------------------------------------------------------
# Facade entry points
# ---------------------------------------------------------------------------
@dataclass
class StudyResult:
    """Outcome of :func:`run_study`: scores plus the analyses over them.

    Holds the four Table 2 score sets and the study they came from; the
    analysis methods delegate to the study engine, so everything stays
    lazy and cache-backed.
    """

    config: StudyConfig
    score_sets: Dict[str, ScoreSet]
    study: InteroperabilityStudy = field(repr=False)

    def genuine_scores(self, gallery_device: str, probe_device: str) -> ScoreSet:
        """Genuine scores of one (gallery, probe) device cell."""
        return self.study.genuine_scores(gallery_device, probe_device)

    def impostor_scores(self, gallery_device: str, probe_device: str) -> ScoreSet:
        """Impostor scores of one (gallery, probe) device cell."""
        return self.study.impostor_scores(gallery_device, probe_device)

    def fnmr_matrix(
        self, target_fmr: float = TABLE5_FMR, max_nfiq: Optional[int] = None
    ) -> np.ndarray:
        """Tables 5/6: FNMR at fixed FMR for every device cell."""
        return self.study.fnmr_matrix(target_fmr, max_nfiq)

    def kendall_matrix(self):
        """Table 4: Kendall rank-correlation tests per device pair."""
        return self.study.kendall_matrix()

    def demographics(self) -> Dict[str, Dict[str, int]]:
        """Figure 1: population demographics histograms."""
        return self.study.demographics()


@dataclass(frozen=True)
class DeviceComparison:
    """One (gallery, probe) cell of the interoperability analysis."""

    gallery_device: str
    probe_device: str
    genuine: ScoreSet
    impostor: ScoreSet
    mean_genuine_score: float
    mean_impostor_score: float
    fnmr: float
    target_fmr: float

    @property
    def cross_device(self) -> bool:
        """Whether enrollment and verification devices differ."""
        return self.gallery_device != self.probe_device


def run_study(
    config: Optional[StudyConfig] = None,
    *,
    protocol: Optional[ProtocolSettings] = None,
    cache: Optional[ScoreCache] = None,
    artifacts: Optional[ArtifactStore] = None,
    progress_factory: Optional[Callable] = None,
) -> StudyResult:
    """Run the paper's experiment and return its scores and analyses.

    The one-call entry point: builds (or loads from cache) the four
    Table 2 score sets for ``config`` and returns a :class:`StudyResult`
    whose methods expose the per-table analyses.

    Parameters
    ----------
    config:
        Scale, seed, matcher and parallelism settings; defaults to
        ``StudyConfig()``.
    protocol:
        Collection-protocol switches (quality gating, device order).
    cache:
        Score-cache override; by default ``config.cache_dir`` decides.
    artifacts:
        Artifact-store override for the acquisition pipeline; by default
        ``config.artifact_dir`` decides.  Pre-warm it once with
        :func:`warm_artifacts` and every subsequent ``run_study`` (or
        fresh process) loads the collection instead of re-acquiring it.
    progress_factory:
        Optional ``(total, label) -> ProgressReporter`` hook.
    """
    effective = config if config is not None else StudyConfig()
    kwargs: Dict[str, object] = {}
    if protocol is not None:
        kwargs["protocol"] = protocol
    if cache is not None:
        kwargs["cache"] = cache
    if artifacts is not None:
        kwargs["artifacts"] = artifacts
    if progress_factory is not None:
        kwargs["progress_factory"] = progress_factory
    study = InteroperabilityStudy(effective, **kwargs)
    return StudyResult(
        config=effective, score_sets=study.score_sets(), study=study
    )


def load_scores(
    config: StudyConfig,
    scenario: Optional[str] = None,
    *,
    protocol: Optional[ProtocolSettings] = None,
):
    """Load cached score sets for ``config`` without computing anything.

    With ``scenario`` (``"DMG"`` / ``"DMI"`` / ``"DDMG"`` / ``"DDMI"``)
    returns that scenario's :class:`ScoreSet`, or ``None`` when any of
    its cache shards is missing.  Without ``scenario`` returns a dict of
    every fully cached scenario (possibly empty).  Use :func:`run_study`
    when computing on a miss is acceptable.
    """
    kwargs: Dict[str, object] = {}
    if protocol is not None:
        kwargs["protocol"] = protocol
    study = InteroperabilityStudy(config, **kwargs)
    if scenario is not None:
        return study.cached_score_set(scenario)
    loaded: Dict[str, ScoreSet] = {}
    for name in SCENARIOS:
        cached = study.cached_score_set(name)
        if cached is not None:
            loaded[name] = cached
    return loaded


def compare_devices(
    result: StudyResult,
    gallery_device: str,
    probe_device: str,
    target_fmr: float = TABLE5_FMR,
) -> DeviceComparison:
    """Summarize one enrollment/verification device pairing.

    Answers the paper's operational question for a single cell: what do
    genuine and impostor scores look like, and what FNMR does the pair
    pay at the ``target_fmr`` operating point?  Accepts the
    :class:`StudyResult` of :func:`run_study` (or any object exposing
    ``genuine_scores``/``impostor_scores``).
    """
    genuine = result.genuine_scores(gallery_device, probe_device)
    impostor = result.impostor_scores(gallery_device, probe_device)
    return DeviceComparison(
        gallery_device=gallery_device,
        probe_device=probe_device,
        genuine=genuine,
        impostor=impostor,
        mean_genuine_score=float(genuine.scores.mean()) if len(genuine) else float("nan"),
        mean_impostor_score=float(impostor.scores.mean()) if len(impostor) else float("nan"),
        fnmr=fnmr_at_fmr(genuine.scores, impostor.scores, target_fmr),
        target_fmr=target_fmr,
    )


__all__ = [
    # facade entry points
    "run_study",
    "load_scores",
    "compare_devices",
    "StudyResult",
    "DeviceComparison",
    # study engine
    "InteroperabilityStudy",
    "ScoreSet",
    "SCENARIOS",
    "GALLERY_SET",
    "PROBE_SET",
    "enumerate_dmg_jobs",
    "enumerate_ddmg_jobs",
    "expected_counts",
    "FnmrPredictor",
    "fnmr_interoperability_matrix",
    "quality_filtered_fnmr_matrix",
    "low_score_quality_surface",
    "kendall_matrix",
    "pvalue_matrix",
    "asymmetry_count",
    "diagonal_dominance_violations",
    "mean_interoperability_penalty",
    "TABLE5_FMR",
    "TABLE6_FMR",
    "TABLE6_MAX_NFIQ",
    "cross_device_cmc",
    "open_set_rates",
    "rank_candidates",
    "rank_candidates_scalar",
    "DEFAULT_CANDIDATE_K",
    "IDENTIFY_MODES",
    "SearchReport",
    "TwoStageIdentifier",
    "DESCRIPTOR_DIM",
    "PrefilterIndex",
    "descriptor_vector",
    "control_by_presentation",
    "first_vs_last",
    "render_habituation",
    # report renderers
    "render_table1",
    "render_table3",
    "render_table4",
    "render_figure1",
    "render_figure4",
    "render_figure5",
    "render_fnmr_matrix",
    "render_score_histograms",
    "render_det",
    # configuration / runtime
    "StudyConfig",
    "DEFAULT_SUBJECT_COUNT",
    "PAPER_SUBJECT_COUNT",
    "resolve_worker_count",
    "ScoreCache",
    "ArtifactStore",
    "canonical_digest",
    "SeedTree",
    "ProgressReporter",
    "RunManifest",
    "render_manifest",
    "validate_manifest",
    "TelemetryRecorder",
    "enable_telemetry",
    "disable_telemetry",
    "get_recorder",
    "configure_logging",
    "TraceContext",
    "current_trace",
    "new_request_id",
    "trace_request",
    "parallel_map",
    "parallel_map_batched",
    "supervised_map_batched",
    "RetryPolicy",
    "SharedTemplateStore",
    "SharedTemplateView",
    "FaultInjector",
    "parse_faults",
    "ReproError",
    "ConfigurationError",
    "MatcherError",
    "TransientError",
    "PermanentError",
    "classify_failure",
    # data and models
    "build_collection",
    "warm_artifacts",
    "subject_artifact_digest",
    "load_quality_arrays",
    "summarize_collection",
    "render_collection_summary",
    "Population",
    "PatternClass",
    "FINGER_POSITION_CODES",
    "synthesize_master_finger",
    "render_ridge_image",
    "ascii_preview",
    "read_pgm",
    "write_pgm",
    "RenderSettings",
    "render_finger",
    "extract_template",
    "recovery_metrics",
    "to_uint8",
    "ImagePipeline",
    "BioEngineMatcher",
    "RidgeGeometryMatcher",
    "build_matcher",
    "Template",
    "Minutia",
    "candidate_pairs",
    "estimate_alignments",
    "build_descriptors",
    "similarity_matrix",
    "pair_minutiae",
    "compute_score",
    "QualityFeatures",
    "nfiq_level",
    "assess_template",
    "template_quality_features",
    # online serving layer
    "VerificationServer",
    "ServiceClient",
    "ServiceClientError",
    "ServiceStats",
    "GalleryIndex",
    "GalleryReadOnlyError",
    "GalleryRecord",
    "BatchingConfig",
    "MicroBatcher",
    "EnrollmentRejected",
    "UnknownIdentityError",
    "ServerStartupError",
    "encode_template",
    "RequestLog",
    "iter_reqlog",
    "render_exposition",
    "parse_exposition",
    "WorkerPool",
    "WorkerPoolConfig",
    "WorkerPoolDegradedError",
    "shard_of",
    "Impression",
    "ProtocolSettings",
    "build_sensor",
    "OpticalSensor",
    "InkCardSensor",
    "DEVICE_ORDER",
    "DEVICE_PROFILES",
    "LIVESCAN_DEVICES",
    "RecordMetadata",
    "decode",
    "encode",
    "EnrolledRecord",
    "TemplateDatabase",
    "Verifier",
    "InteropAwareVerifier",
    "train_interop_verifier_from_study",
    "DeviceInferenceModel",
    "d_prime",
    "separability_weights",
    "sum_fusion",
    "weighted_sum_fusion",
    "fit_tps",
    "apply_tps_to_template",
    "control_points_from_matches",
    # statistics
    "summarize",
    "wilson_interval",
    "threshold_at_fmr",
    "fnmr_at_fmr",
    "det_points",
    "score_histogram",
]
