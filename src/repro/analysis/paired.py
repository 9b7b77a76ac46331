"""Paired-twin harness: incident recovery gates and the sensitivity suite.

AutoSens rests on natural experiments, so this module tests that premise
directly. It runs the estimator on a perturbed telemetry twin, compares
the NLP curve with the clean same-seed twin's over their common support,
and grades every comparison:

- **within tolerance** — ``recovered`` (recovery) or ``robust``
  (sensitivity): max |NLP_variant - NLP_clean| stays within the fixture's
  tolerance;
- **degraded-explained** — beyond tolerance (or no comparable support),
  *but* a paired probe, a health warning or a typed
  :class:`~repro.errors.InsufficientDataError` refusal flagged it, so
  ``autosens doctor`` sees it;
- **silent-bias** — beyond tolerance with a clean bill of health. The one
  outcome the estimator must never produce; it fails the CI gate.

Two perturbation protocols share the harness. A protocol decides only how
a variant is made, which paired probes run on it, and how its artifact is
shaped:

- **recovery** (``autosens recover``) re-simulates the workload under an
  :class:`~repro.workload.incidents.IncidentPlan` — one variant per
  fixture, judged by the paired regime probe, written as
  ``<name>.curve.json`` (``obs diff`` sniffs it as a curve) plus a
  ``<name>.recovery.json`` verdict;
- **sensitivity** (``autosens sensitivity``) sweeps a level ladder per
  fixture, either degrading the clean log after the fact with a
  :class:`~repro.workload.degradations.DegradationPlan` (regime plus
  missingness probes) or subsampling inside the engine with a
  :class:`~repro.core.SubsamplePolicy` (no post-hoc probe: the engine's
  own degradation record is the loud channel). Each fixture becomes a
  ``<name>.frontier.json`` bias-vs-cost ladder: L∞ and signed-area bias,
  a CI-band-inflation proxy, probe verdicts and span counts.

A suite generates and estimates the clean twin once. Every run is
deterministic and backend bit-identical: generation uses the
explicit-executor path, engine randomness is stream-keyed, degradations
draw from per-spec named streams, and each engine pass runs under its own
deterministic observability context, fanned out over
``executor.map_ordered`` with pure payloads. Wall seconds go only to the
sensitivity suite's ungated ``timings.json`` sidecar.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import AutoSens, AutoSensConfig, DegradePolicy, SubsamplePolicy
from repro.core.result import PreferenceResult
from repro.errors import ConfigError, EmptyDataError, InsufficientDataError
from repro.obs import _runtime
from repro.obs._runtime import ObsContext
from repro.obs.health import build_health_report
from repro.obs.probes import (
    DEFAULT_PAIRED_MARGINS,
    PairedRegimeMargins,
    probe_latency_regime,
    probe_missingness,
)
from repro.obs.trace import aggregate_span_timings
from repro.parallel import resolve_executor, task_seeds
from repro.telemetry.log_store import LogStore
from repro.workload.degradations import DEGRADATION_BUILDERS, DegradationPlan
from repro.workload.incidents import (
    AutoscaleStep,
    IncidentPlan,
    IncidentSpec,
    LoadSpike,
    RegionalDegradation,
    RetryStorm,
    SlowDependency,
)
from repro.workload.scenarios import SCENARIOS, Scenario

__all__ = [
    "RecoveryFixture",
    "RecoveryOutcome",
    "RECOVERY_FIXTURES",
    "RECOVERY_SCALES",
    "SensitivityFixture",
    "SensitivityOutcome",
    "SENSITIVITY_FIXTURES",
    "SENSITIVITY_SCALES",
    "DEFAULT_SENSITIVITY_NAMES",
    "paired_regime_findings",
    "run_recovery",
    "run_recovery_suite",
    "run_sensitivity",
    "run_sensitivity_suite",
]

RECOVERY_SCHEMA = "autosens.recovery/v1"
SENSITIVITY_SCHEMA = "autosens.sensitivity/v1"

VERDICT_RECOVERED = "recovered"
VERDICT_ROBUST = "robust"
VERDICT_EXPLAINED = "degraded-explained"
VERDICT_SILENT_BIAS = "silent-bias"

#: Workload sizes: (duration_days, n_users, candidates_per_user_day).
#: The small size is proven to yield healthy curves while keeping a 1/8
#: subsample above ``min_actions``; sensitivity names it ``smoke`` (its
#: CI flag).
_SMALL = (2.0, 140, 80.0)
_FULL = (5.0, 300, 100.0)
RECOVERY_SCALES: Dict[str, Tuple[float, int, float]] = {
    "small": _SMALL, "full": _FULL}
SENSITIVITY_SCALES: Dict[str, Tuple[float, int, float]] = {
    "smoke": _SMALL, "full": _FULL}

_SUBSAMPLE_AXES = ("event", "user", "time")
_REGIME_EDGES = np.geomspace(20.0, 20000.0, 61)
_REGIME_CENTERS = np.sqrt(_REGIME_EDGES[:-1] * _REGIME_EDGES[1:])


@dataclass(frozen=True)
class Variant:
    """One perturbed twin of the clean run and the probes that judge it."""

    #: The telemetry the engine estimates from.
    logs: LogStore
    #: In-engine thinning (the ``logs`` are then the clean twin's own).
    subsample: Optional[SubsamplePolicy] = None
    #: Paired probes against the clean logs, in order: ``"regime"``,
    #: ``"missingness"``.
    probes: Tuple[str, ...] = ()
    #: Ground-truth incident annotations (re-simulated variants only).
    incident_windows: Tuple[dict, ...] = ()


@dataclass(frozen=True)
class Protocol:
    """The names and vocabulary one paired-twin suite runs under."""

    #: Run-id prefix and error-message noun.
    name: str
    fixtures: Mapping[str, Any]
    scales: Mapping[str, Tuple[float, int, float]]
    #: Verdict of a variant within tolerance.
    within: str


# ---------------------------------------------------------------------------
# Recovery protocol: incident regimes re-simulated on the clean seed.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryFixture:
    """One incident regime plus the recovery tolerance it must meet."""

    name: str
    description: str
    specs: Tuple[IncidentSpec, ...]
    #: Max |NLP_incident - NLP_clean| over the compared support.
    tolerance: float = 0.08
    #: Compare only bins up to here — beyond it both curves are tail-sparse.
    compare_max_ms: float = 1200.0

    def scenario(
        self, seed: Optional[int], scale: str, with_incidents: bool
    ) -> Scenario:
        """The clean (or incident) queue scenario at ``scale``."""
        base = replace(_scenario(RECOVERY, "owa-queue", scale), seed=seed)
        return self._with_incidents(base) if with_incidents else base

    def _with_incidents(self, base: Scenario) -> Scenario:
        return base.with_incidents(IncidentPlan(specs=self.specs, seed=0))

    def variants(
        self, base: Scenario, clean_logs: LogStore, seed: int, executor: Any
    ) -> List[Variant]:
        """Re-simulate the clean seed with this fixture's incidents.

        Same population, candidate streams and engine randomness as the
        clean twin — the only difference is the latency regime.
        """
        telemetry = _generate(self._with_incidents(base), seed, executor,
                              run_id=f"recovery:{self.name}:generate")
        return [Variant(
            telemetry.logs, probes=("regime",),
            incident_windows=tuple(
                w.to_dict() for w in telemetry.incident_windows),
        )]


#: The scenario matrix the chaos CI job sweeps: every incident class alone,
#: plus one composed regime (spike + slow dependency overlapping).
RECOVERY_FIXTURES: Dict[str, RecoveryFixture] = {
    fixture.name: fixture
    for fixture in (
        RecoveryFixture(
            name="load-spike",
            description="arrival surge queues requests at the diurnal shoulder",
            specs=(LoadSpike(start_frac=0.35, duration_s=5400.0, peak_mult=2.5),),
        ),
        RecoveryFixture(
            name="slow-dependency",
            description="bimodal service mixture from a degraded downstream",
            specs=(SlowDependency(
                start_frac=0.45, duration_s=7200.0,
                slow_share=0.35, extra_ms=700.0,
            ),),
        ),
        RecoveryFixture(
            name="regional-degradation",
            description="part of the fleet serves slow for three hours",
            specs=(RegionalDegradation(
                start_frac=0.3, duration_s=10800.0,
                service_mult=1.8, region_share=0.4,
            ),),
        ),
        RecoveryFixture(
            name="autoscale-step",
            description="over-eager scale-in removes a server for two hours",
            specs=(AutoscaleStep(
                start_frac=0.5, duration_s=7200.0, server_delta=-1,
            ),),
        ),
        RecoveryFixture(
            name="retry-storm",
            description="load and per-request work inflate together",
            specs=(RetryStorm(
                start_frac=0.4, duration_s=3600.0,
                load_mult=1.7, service_mult=1.25,
            ),),
        ),
        RecoveryFixture(
            name="composite",
            description="load spike overlapping a slow dependency",
            specs=(
                LoadSpike(start_frac=0.3, duration_s=5400.0, peak_mult=2.0),
                SlowDependency(
                    start_frac=0.35, duration_s=7200.0,
                    slow_share=0.25, extra_ms=500.0,
                ),
            ),
        ),
    )
}


@dataclass
class RecoveryOutcome:
    """Everything one fixture run produced, JSON-stable for diffing."""

    fixture: str
    verdict: str
    max_abs_nlp_diff: float
    tolerance: float
    n_compared_bins: int
    seed: int
    scale: str
    executor: str
    incident_windows: List[dict]
    health: Dict[str, Any]
    regime: List[dict]
    clean_n_actions: int
    incident_n_actions: int
    curve: PreferenceResult
    clean_curve: PreferenceResult

    @property
    def gate_passed(self) -> bool:
        """The CI contract: anything but a silent clean-but-biased curve."""
        return self.verdict != VERDICT_SILENT_BIAS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RECOVERY_SCHEMA,
            "fixture": self.fixture,
            "verdict": self.verdict,
            "gate_passed": self.gate_passed,
            "max_abs_nlp_diff": round(float(self.max_abs_nlp_diff), 6),
            "tolerance": float(self.tolerance),
            "n_compared_bins": int(self.n_compared_bins),
            "seed": int(self.seed),
            "scale": self.scale,
            "executor": self.executor,
            "incident_windows": list(self.incident_windows),
            "health": self.health,
            "regime": list(self.regime),
            "clean_n_actions": int(self.clean_n_actions),
            "incident_n_actions": int(self.incident_n_actions),
        }


# ---------------------------------------------------------------------------
# Sensitivity protocol: degradation ladders over one realized log.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityFixture:
    """One degradation operator and the level ladder to sweep it over."""

    name: str
    description: str
    #: ``"degrade"`` (post-hoc LogStore operator) or ``"subsample"``
    #: (in-engine :class:`~repro.core.SubsamplePolicy`).
    kind: str
    #: For ``degrade``: a :data:`~repro.workload.degradations.DEGRADATION_BUILDERS`
    #: key. For ``subsample``: the axis (``event``/``user``/``time``).
    operator: str
    #: Degradation levels in [0, 1] (``degrade``) or kept fractions in
    #: (0, 1] (``subsample``). One frontier cell per level.
    levels: Tuple[float, ...]
    #: Max |NLP_cell - NLP_clean| a cell may show and still be robust.
    tolerance: float = 0.08
    #: Compare only bins up to here — beyond it both curves are tail-sparse.
    compare_max_ms: float = 1200.0
    #: Whether the default suite sweep includes this fixture. The
    #: deliberately-silent demo fixture is excluded so the default gate
    #: stays green while CI can still invoke it by name to prove the gate
    #: goes red.
    in_default: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("degrade", "subsample"):
            raise ConfigError(
                f"kind must be 'degrade' or 'subsample', got {self.kind!r}")
        if self.kind == "degrade" and self.operator not in DEGRADATION_BUILDERS:
            raise ConfigError(
                f"unknown degradation operator {self.operator!r}; "
                f"expected one of {sorted(DEGRADATION_BUILDERS)}")
        if self.kind == "subsample" and self.operator not in _SUBSAMPLE_AXES:
            raise ConfigError(
                f"unknown subsample axis {self.operator!r}; "
                f"expected one of {_SUBSAMPLE_AXES}")
        if not self.levels:
            raise ConfigError(f"fixture {self.name!r} has no levels")

    def subsample_policy(self, level: float) -> SubsamplePolicy:
        return SubsamplePolicy(**{f"{self.operator}_fraction": level})

    def variants(
        self, base: Scenario, clean_logs: LogStore, seed: int, executor: Any
    ) -> List[Variant]:
        """One variant per level, all from the same realized telemetry."""
        if self.kind == "subsample":
            # Thinning happens inside the engine; its degradation record (a
            # health warning) is the loud channel, and the paired probes
            # have nothing post-hoc to inspect.
            return [Variant(clean_logs, subsample=self.subsample_policy(level))
                    for level in self.levels]
        # One degradation-plan seed per fixture, derived purely from the
        # suite seed and the fixture name: every level of the ladder shares
        # the same per-row draws (monotone nesting), adding a fixture never
        # moves another's draws, and the engine seed stays the suite seed
        # so each cell is the clean run's true twin.
        plan_seed = task_seeds(seed, f"sensitivity/{self.name}", 1)[0]
        return [
            Variant(
                DegradationPlan(
                    specs=(DEGRADATION_BUILDERS[self.operator](level),),
                    seed=plan_seed,
                ).apply(clean_logs),
                probes=("regime", "missingness"),
            )
            for level in self.levels
        ]


#: The default frontier matrix: every operator family across a level
#: ladder, plus the named silent-bias demo (``in_default=False``).
SENSITIVITY_FIXTURES: Dict[str, SensitivityFixture] = {
    fixture.name: fixture
    for fixture in (
        SensitivityFixture(
            name="diurnal-thinning",
            description="collector sheds load at the diurnal peak",
            kind="degrade", operator="diurnal-thinning",
            levels=(0.3, 0.6, 0.9),
        ),
        SensitivityFixture(
            name="mnar-latency",
            description="slow requests drop out of the logging path (MNAR)",
            kind="degrade", operator="mnar-latency",
            levels=(0.25, 0.5, 0.75),
        ),
        SensitivityFixture(
            name="user-skew-mild",
            description=(
                "heavy users moderately over-represented; duplication "
                "preserves every row, so the drift stays inside the "
                "smoke-scale noise envelope — the committed robust class"),
            kind="degrade", operator="user-skew",
            levels=(0.25, 0.5),
            tolerance=0.20,
        ),
        SensitivityFixture(
            name="subsample-events",
            description="uniform probe subsampling (keep a fraction of events)",
            kind="subsample", operator="event",
            levels=(0.5, 0.25, 0.125),
        ),
        SensitivityFixture(
            name="subsample-users",
            description="per-device sampling flags (keep whole users)",
            kind="subsample", operator="user",
            levels=(0.5, 0.25, 0.125),
        ),
        SensitivityFixture(
            name="subsample-time",
            description="collector off for whole time windows",
            kind="subsample", operator="time",
            levels=(0.5, 0.25, 0.125),
        ),
        SensitivityFixture(
            name="user-skew-heavy",
            description=(
                "strong heavy-user duplication: the committed silent-bias "
                "demonstration (no regime or missingness fingerprint)"),
            kind="degrade", operator="user-skew",
            levels=(1.0,),
            in_default=False,
        ),
    )
}

#: Fixture names the no-argument suite (and CI's green gate) sweeps.
DEFAULT_SENSITIVITY_NAMES: Tuple[str, ...] = tuple(
    name for name, f in sorted(SENSITIVITY_FIXTURES.items()) if f.in_default
)


@dataclass
class SensitivityOutcome:
    """One fixture's frontier: a verdict-graded bias-vs-cost ladder."""

    fixture: str
    description: str
    kind: str
    operator: str
    tolerance: float
    compare_max_ms: float
    seed: int
    scale: str
    scenario: str
    executor: str
    clean: Dict[str, Any]
    cells: List[Dict[str, Any]]
    clean_curve: PreferenceResult
    cell_curves: Dict[float, Optional[PreferenceResult]]
    margins: Dict[str, float]
    #: Wall seconds per cell (and the clean twin) — *not* part of the
    #: frontier artifact; written to the ungated timings sidecar only.
    wall_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def gate_passed(self) -> bool:
        """The CI contract: no cell may be silently biased."""
        return all(c["verdict"] != VERDICT_SILENT_BIAS for c in self.cells)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SENSITIVITY_SCHEMA,
            "fixture": self.fixture,
            "description": self.description,
            "kind": self.kind,
            "operator": self.operator,
            "tolerance": float(self.tolerance),
            "compare_max_ms": float(self.compare_max_ms),
            "seed": int(self.seed),
            "scale": self.scale,
            "scenario": self.scenario,
            # The executor label is deliberately NOT serialized: the gated
            # frontier must be byte-identical across backends, so runtime
            # provenance lives in the ungated timings sidecar instead.
            "margins": dict(self.margins),
            "clean": self.clean,
            "cells": list(self.cells),
            "gate_passed": self.gate_passed,
        }


RECOVERY = Protocol("recovery", RECOVERY_FIXTURES, RECOVERY_SCALES,
                    within=VERDICT_RECOVERED)
SENSITIVITY = Protocol("sensitivity", SENSITIVITY_FIXTURES,
                       SENSITIVITY_SCALES, within=VERDICT_ROBUST)


# ---------------------------------------------------------------------------
# The harness.
# ---------------------------------------------------------------------------


def _regime_matrix(logs: Any) -> np.ndarray:
    """Hour-of-day x latency-bin counts straight off the raw telemetry.

    Raw latencies keep the incident's full upper tail (the estimator's
    slot/bin tensor clips and reweights it), so the paired comparison sees
    a 10-20x tail-ratio signal where the curve-level one sees 1.1-3x.
    """
    slots = ((np.asarray(logs.times) // 3600.0) % 24).astype(int)
    bins = np.clip(
        np.digitize(np.asarray(logs.latencies_ms), _REGIME_EDGES) - 1,
        0, _REGIME_CENTERS.size - 1,
    )
    matrix = np.zeros((24, _REGIME_CENTERS.size))
    np.add.at(matrix, (slots, bins), 1.0)
    return matrix


def paired_regime_findings(
    clean_logs: Any,
    other_logs: Any,
    margins: Optional[PairedRegimeMargins] = None,
) -> List[dict]:
    """Regime probe on a run, thresholded by its clean same-seed twin.

    Runs :func:`probe_latency_regime` twice: once on the clean run with
    unreachable thresholds (to read off the baseline tail ratio and median
    spread), then on the other run with warn thresholds at
    ``baseline * margin`` and fail thresholds at the margins' fail
    factors. Much tighter than the probe's scenario-agnostic defaults,
    because the clean twin *is* the null hypothesis here. Inherits the
    probe's never-raise contract.
    """
    margins = margins or DEFAULT_PAIRED_MARGINS
    baseline = {
        f.probe: f.value
        for f in probe_latency_regime(
            _regime_matrix(clean_logs), _REGIME_CENTERS,
            slice_description="clean twin",
            warn_tail_ratio=np.inf, fail_tail_ratio=np.inf,
            warn_median_spread=np.inf, fail_median_spread=np.inf,
        )
        if f.value is not None
    }
    clean_tail = baseline.get("latency_tail_inflation")
    clean_spread = baseline.get("latency_regime_shift")
    if clean_tail is None or clean_spread is None:
        # Clean twin itself not assessable — nothing to pair against.
        return [f.to_dict() for f in probe_latency_regime(
            _regime_matrix(other_logs), _REGIME_CENTERS,
            slice_description="paired vs clean (unpaired fallback)",
        )]
    findings = probe_latency_regime(
        _regime_matrix(other_logs), _REGIME_CENTERS,
        slice_description="paired vs clean",
        warn_tail_ratio=clean_tail * margins.tail,
        fail_tail_ratio=clean_tail * margins.tail * margins.tail_fail_factor,
        warn_median_spread=clean_spread * margins.spread,
        fail_median_spread=(
            clean_spread * margins.spread * margins.spread_fail_factor
        ),
    )
    out = []
    for f in findings:
        d = f.to_dict()
        d["context"]["clean_baseline"] = {
            "latency_tail_inflation": round(float(clean_tail), 6),
            "latency_regime_shift": round(float(clean_spread), 6),
        }
        out.append(d)
    return out


def _paired_probes(
    variant: Variant, clean_logs: LogStore, margins: PairedRegimeMargins
) -> List[dict]:
    findings: List[dict] = []
    if "regime" in variant.probes:
        findings += paired_regime_findings(clean_logs, variant.logs, margins)
    if "missingness" in variant.probes:
        findings += [f.to_dict() for f in probe_missingness(
            variant.logs.times, variant.logs.latencies_ms,
            reference_times=clean_logs.times,
            reference_latencies_ms=clean_logs.latencies_ms,
            slice_description="paired vs clean",
        )]
    return findings


def _scenario(protocol: Protocol, scenario: str, scale: str) -> Scenario:
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; "
            f"expected one of {sorted(SCENARIOS)}"
        )
    if scale not in protocol.scales:
        raise ConfigError(
            f"unknown {protocol.name} scale {scale!r}; "
            f"expected one of {sorted(protocol.scales)}"
        )
    duration_days, n_users, cpd = protocol.scales[scale]
    return SCENARIOS[scenario]().scaled(
        duration_days=duration_days, n_users=n_users,
        candidates_per_user_day=cpd,
    )


def _fixtures(protocol: Protocol, names: Sequence[Any]) -> List[Any]:
    out = []
    for fixture in names:
        if isinstance(fixture, str):
            if fixture not in protocol.fixtures:
                raise ConfigError(
                    f"unknown {protocol.name} fixture {fixture!r}; "
                    f"expected one of {sorted(protocol.fixtures)}"
                )
            fixture = protocol.fixtures[fixture]
        out.append(fixture)
    return out


def _generate(scenario: Scenario, seed: int, executor: Any, run_id: str):
    """One scoped, deterministic generation."""
    ctx = ObsContext(enabled=True, deterministic=True, run_id=run_id)
    previous = _runtime.install(ctx)
    try:
        return scenario.generate(seed=seed, executor=executor)
    finally:
        _runtime.install(previous)


def _engine_pass(payload: Tuple) -> Tuple:
    """Top-level (picklable) task: one engine pass on one twin.

    Installs a fresh deterministic observability context so each pass's
    findings, degradations, and span counts are its own — independent of
    which worker runs it and in what order. A typed
    :class:`InsufficientDataError` (a starved subsample, say) comes back
    as an ``error`` string, never an exception: a refusal is a loud,
    classifiable outcome, not a crash.
    """
    logs, seed, subsample, run_id = payload
    ctx = ObsContext(enabled=True, deterministic=True, run_id=run_id)
    previous = _runtime.install(ctx)
    start = time.perf_counter()
    try:
        engine = AutoSens(
            AutoSensConfig(seed=seed),
            degrade=DegradePolicy(),
            subsample=subsample,
        )
        curve: Optional[PreferenceResult] = None
        error: Optional[str] = None
        try:
            curve = engine.preference_curve(logs)
        except (InsufficientDataError, EmptyDataError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        report = build_health_report(
            findings=list(ctx.findings), degradations=list(ctx.degradations)
        )
        health = {
            "verdict": report.verdict,
            "counts": report.counts(),
            "worst": [
                {k: f.get(k) for k in ("probe", "stage", "severity", "message")}
                for f in report.worst_findings(limit=5)
                if f.get("severity") != "ok"
            ],
        }
        spans = aggregate_span_timings(ctx.tracer.finished())
        span_counts = {name: info["count"] for name, info in spans.items()}
    finally:
        _runtime.install(previous)
    wall = time.perf_counter() - start
    return curve, health, span_counts, error, wall


def _band_halfwidths(curve: PreferenceResult) -> np.ndarray:
    """Delta-method CI-halfwidth proxy per bin: |nlp| * sqrt(1/B + 1/U).

    Not a bootstrap band (that would re-run the pipeline dozens of times
    per cell); a deterministic count-based proxy whose *ratio* between a
    degraded cell and its clean twin measures variance inflation. Exactly
    1.0 for an identity cell, since twin and cell share every count.
    """
    eps = 1e-9
    b = np.maximum(np.nan_to_num(curve.biased_counts, nan=0.0), eps)
    u = np.maximum(np.nan_to_num(curve.unbiased_counts, nan=0.0), eps)
    return np.abs(np.nan_to_num(curve.nlp, nan=0.0)) * np.sqrt(1.0 / b + 1.0 / u)


def _bias(
    curve: Optional[PreferenceResult],
    clean: PreferenceResult,
    compare_max_ms: float,
) -> Tuple[float, Dict[str, Any]]:
    """L∞ (``inf`` without comparable support) plus the rounded metrics.

    Metric values are ``None`` (never ``inf`` — the artifact is JSON)
    when the curves share no comparable support.
    """
    mask = None if curve is None else (
        curve.valid & clean.valid & (curve.latencies <= compare_max_ms))
    if mask is None or not mask.any():
        return float("inf"), {
            "bias_linf": None,
            "bias_signed_area": None,
            "ci_band_inflation": None,
            "n_compared_bins": 0,
        }
    diff = curve.nlp[mask] - clean.nlp[mask]
    linf = float(np.abs(diff).max())
    cell_hw = float(_band_halfwidths(curve)[mask].mean())
    clean_hw = float(_band_halfwidths(clean)[mask].mean())
    inflation = cell_hw / clean_hw if clean_hw > 0 else None
    return linf, {
        "bias_linf": round(linf, 6),
        "bias_signed_area": round(float(diff.sum() * clean.bins.width), 6),
        "ci_band_inflation": (
            round(inflation, 6) if inflation is not None else None
        ),
        "n_compared_bins": int(mask.sum()),
    }


@dataclass
class _Twin:
    """One engine pass: the clean twin's, or a variant's graded against it."""

    curve: Optional[PreferenceResult]
    #: JSON-stable summary: ``n_actions``, ``health``, ``span_counts`` and,
    #: for a variant, ``verdict``, ``gate_passed``, ``error``, ``probes``
    #: and the bias metrics.
    record: Dict[str, Any]
    wall: float
    variant: Optional[Variant] = None
    #: Unrounded L∞ bias (``inf`` without comparable support).
    linf: float = float("inf")


def _run_pairs(
    protocol: Protocol,
    fixtures: List[Any],
    scenario: str,
    seed: int,
    scale: str,
    executor_spec: Any,
    margins: PairedRegimeMargins,
) -> Tuple[_Twin, List[List[_Twin]]]:
    """Estimate the clean twin once, then every fixture's variants.

    Returns the clean twin and, per fixture, its graded variants.
    """
    executor = resolve_executor(executor_spec)
    base = _scenario(protocol, scenario, scale)
    clean_logs = _generate(
        base, seed, executor, run_id=f"{protocol.name}:generate").logs
    curve, health, spans, error, wall = _engine_pass(
        (clean_logs, seed, None, f"{protocol.name}:clean"))
    if curve is None:
        raise InsufficientDataError(
            f"clean twin of the {protocol.name} suite produced no curve: "
            f"{error}"
        )
    clean = _Twin(curve, {
        "n_actions": int(len(clean_logs)),
        "health": health,
        "span_counts": spans,
    }, wall)

    graded: List[List[_Twin]] = []
    for fixture in fixtures:
        variants = fixture.variants(base, clean_logs, seed, executor)
        passes = executor.map_ordered(_engine_pass, [
            (v.logs, seed, v.subsample, f"{protocol.name}:{fixture.name}:{i}")
            for i, v in enumerate(variants)
        ])
        twins = []
        for variant, (curve, health, spans, error, wall) in zip(
                variants, passes):
            probes = _paired_probes(variant, clean_logs, margins)
            linf, metrics = _bias(curve, clean.curve, fixture.compare_max_ms)
            loud = (
                any(f.get("severity") in ("warn", "fail") for f in probes)
                or error is not None
                or health["verdict"] != "ok"
                or health["counts"]["warn"] > 0
            )
            if linf <= fixture.tolerance:
                verdict = protocol.within
            elif loud:
                verdict = VERDICT_EXPLAINED
            else:
                verdict = VERDICT_SILENT_BIAS
            twins.append(_Twin(curve, {
                "verdict": verdict,
                "gate_passed": verdict != VERDICT_SILENT_BIAS,
                "n_actions": int(len(variant.logs)),
                "error": error,
                "health": health,
                "probes": probes,
                "span_counts": spans,
                **metrics,
            }, wall, variant, linf))
        graded.append(twins)
    return clean, graded


def _write_suite(out_dir: Union[str, Path], files: Dict[str, str]) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)


def _dumps(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def run_recovery(
    fixture: Union[str, RecoveryFixture],
    seed: int = 7,
    scale: str = "small",
    executor: str = "serial",
) -> RecoveryOutcome:
    """Run one recovery fixture end to end and classify the outcome."""
    (outcome,) = run_recovery_suite(
        [fixture], seed=seed, scale=scale, executor=executor).values()
    return outcome


def run_recovery_suite(
    names: Optional[Sequence[Union[str, RecoveryFixture]]] = None,
    seed: int = 7,
    scale: str = "small",
    executor: str = "serial",
    out_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, RecoveryOutcome]:
    """Run a fixture matrix; optionally write diffable artifacts.

    Generates the incident-free workload once and each incident workload
    on the *same seed*, estimates every NLP curve, and compares each
    incident curve with the clean one on their common support. ``out_dir``
    receives, per fixture, the incident-run curve (``<name>.curve.json``)
    and the verdict (``<name>.recovery.json``), plus a ``summary.json``.
    """
    fixtures = _fixtures(RECOVERY, names or sorted(RECOVERY_FIXTURES))
    clean, graded = _run_pairs(RECOVERY, fixtures, "owa-queue", seed, scale,
                               executor, DEFAULT_PAIRED_MARGINS)
    outcomes: Dict[str, RecoveryOutcome] = {}
    for fixture, (twin,) in zip(fixtures, graded):
        if twin.curve is None:
            # An incident run must still yield a curve to diff against.
            raise InsufficientDataError(
                f"recovery fixture {fixture.name!r}: {twin.record['error']}")
        outcomes[fixture.name] = RecoveryOutcome(
            fixture=fixture.name,
            verdict=twin.record["verdict"],
            max_abs_nlp_diff=twin.linf,
            tolerance=fixture.tolerance,
            n_compared_bins=twin.record["n_compared_bins"],
            seed=seed,
            scale=scale,
            executor=executor,
            incident_windows=list(twin.variant.incident_windows),
            health=twin.record["health"],
            regime=twin.record["probes"],
            clean_n_actions=clean.record["n_actions"],
            incident_n_actions=twin.record["n_actions"],
            curve=twin.curve,
            clean_curve=clean.curve,
        )
    if out_dir is not None:
        files: Dict[str, str] = {}
        for name, o in outcomes.items():
            files[f"{name}.curve.json"] = json.dumps(o.curve.to_dict(),
                                                     indent=1)
            files[f"{name}.recovery.json"] = _dumps(o.to_dict())
        files["summary.json"] = _dumps({
            "schema": RECOVERY_SCHEMA,
            "seed": seed,
            "scale": scale,
            "executor": executor,
            "fixtures": {
                name: {
                    "verdict": o.verdict,
                    "gate_passed": o.gate_passed,
                    "max_abs_nlp_diff": round(float(o.max_abs_nlp_diff), 6),
                }
                for name, o in outcomes.items()
            },
            "gate_passed": all(o.gate_passed for o in outcomes.values()),
        })
        _write_suite(out_dir, files)
    return outcomes


def run_sensitivity(
    fixture: Union[str, SensitivityFixture],
    scenario: str = "owa-queue",
    seed: int = 7,
    scale: str = "smoke",
    executor: str = "serial",
    margins: Optional[PairedRegimeMargins] = None,
) -> SensitivityOutcome:
    """Run one fixture's full level ladder end to end."""
    (outcome,) = run_sensitivity_suite(
        [fixture], scenario=scenario, seed=seed, scale=scale,
        executor=executor, margins=margins).values()
    return outcome


def run_sensitivity_suite(
    names: Optional[Sequence[Union[str, SensitivityFixture]]] = None,
    scenario: str = "owa-queue",
    seed: int = 7,
    scale: str = "smoke",
    executor: str = "serial",
    out_dir: Optional[Union[str, Path]] = None,
    margins: Optional[PairedRegimeMargins] = None,
) -> Dict[str, SensitivityOutcome]:
    """Run a fixture matrix over ONE shared generation; write artifacts.

    Every cell is estimated from the clean twin's realized telemetry and
    engine seed. ``margins`` overrides the paired-probe margins; the
    defaults are the recovery gates' values. ``out_dir`` receives, per
    fixture, the frontier (``<name>.frontier.json`` — ``obs diff`` sniffs
    it as a sensitivity artifact), plus ``summary.json`` and a
    ``timings.json`` sidecar holding wall seconds (the only
    non-deterministic quantity, kept out of every gated artifact).
    """
    fixtures = _fixtures(SENSITIVITY, names or DEFAULT_SENSITIVITY_NAMES)
    effective = margins or DEFAULT_PAIRED_MARGINS
    clean, graded = _run_pairs(SENSITIVITY, fixtures, scenario, seed, scale,
                               executor, effective)
    outcomes: Dict[str, SensitivityOutcome] = {}
    for fixture, twins in zip(fixtures, graded):
        wall_seconds = {"clean": round(clean.wall, 6)}
        wall_seconds.update({
            f"level_{level:g}": round(t.wall, 6)
            for level, t in zip(fixture.levels, twins)
        })
        outcomes[fixture.name] = SensitivityOutcome(
            fixture=fixture.name,
            description=fixture.description,
            kind=fixture.kind,
            operator=fixture.operator,
            tolerance=fixture.tolerance,
            compare_max_ms=fixture.compare_max_ms,
            seed=seed,
            scale=scale,
            scenario=scenario,
            executor=executor,
            clean=clean.record,
            cells=[{"level": float(level), **t.record}
                   for level, t in zip(fixture.levels, twins)],
            clean_curve=clean.curve,
            cell_curves={
                level: t.curve for level, t in zip(fixture.levels, twins)},
            margins=effective.to_dict(),
            wall_seconds=wall_seconds,
        )
    if out_dir is not None:
        files = {f"{name}.frontier.json": _dumps(o.to_dict())
                 for name, o in outcomes.items()}
        files["summary.json"] = _dumps({
            "schema": SENSITIVITY_SCHEMA,
            "scenario": scenario,
            "seed": seed,
            "scale": scale,
            "fixtures": {
                name: {
                    "gate_passed": o.gate_passed,
                    "cells": {
                        f"{c['level']:g}": c["verdict"] for c in o.cells
                    },
                }
                for name, o in outcomes.items()
            },
            "gate_passed": all(o.gate_passed for o in outcomes.values()),
        })
        files["timings.json"] = _dumps({
            "executor": executor,
            **{name: dict(o.wall_seconds) for name, o in outcomes.items()},
        })
        _write_suite(out_dir, files)
    return outcomes
