"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``prepare``, runs one op
through the public API of ``repro`` in ``op``, rebuilds the same op from
the public stage functions under a :class:`~tracing.Tracer` in
``traced_op``, and checks an op's output in ``check`` (run after the op's
clock stops; it returns a list of problems, empty when the output is
right).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import (
    QUARTILE_NAMES,
    AutoSens,
    AutoSensConfig,
    PreferenceResult,
    alpha_from_counts,
    assign_quartiles,
    average_results,
    corrected_histograms_from_counts,
    quartile_slices,
    slotted_counts,
)
from repro.stats.rng import RngFactory
from repro.telemetry import (
    IngestCollector,
    IngestPolicy,
    LogStore,
    iter_csv,
    iter_jsonl,
    read_csv,
    read_jsonl,
    read_quarantine,
    write_csv,
    write_jsonl,
)
from repro.types import ALL_DAY_PERIODS, DayPeriod
from repro.workload import owa_scenario, queue_scenario

from tracing import Tracer


def same_curve(a: PreferenceResult, b: PreferenceResult) -> bool:
    """Bit-identical curves: every array, the label, size and reference slots."""
    arrays = ("biased_counts", "unbiased_counts", "raw_ratio", "smoothed_ratio", "nlp")
    return (
        all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True) for k in arrays)
        and a.bins == b.bins
        and a.slice_description == b.slice_description
        and a.n_actions == b.n_actions
        and a.metadata.get("reference_slots") == b.metadata.get("reference_slots")
    )


def curve_digest(curves: List[PreferenceResult]) -> str:
    digest = hashlib.sha256()
    for c in curves:
        digest.update(c.slice_description.encode())
        digest.update(np.ascontiguousarray(c.nlp).tobytes())
    return digest.hexdigest()


def _description(action, user_class, period: Optional[DayPeriod]) -> str:
    """The slice label ``AutoSens`` derives its RNG stream name from."""
    parts = []
    if action is not None:
        parts.append(f"action={action}")
    if user_class is not None:
        parts.append(f"class={user_class}")
    if period is not None:
        parts.append(f"period={period.value}")
    return ", ".join(parts) if parts else "all actions"


def rebuild_curve(tracer: Tracer, logs: LogStore, config: AutoSensConfig,
                  action=None, user_class=None,
                  period: Optional[DayPeriod] = None) -> PreferenceResult:
    """``AutoSens.preference_curve`` rebuilt from its public stage functions.

    Same order and RNG stream name as the engine (time correction on, no
    subsample, degrade or supervisor), with one span per stage.
    """
    with tracer.span("telemetry.where"):
        sliced = logs.where(action=action, user_class=user_class, period=period)
    description = _description(action, user_class, period)
    if len(sliced) < config.min_actions:
        raise ValueError(f"slice [{description}] has only {len(sliced)} actions")
    bins = config.bins()
    computer = config.computer()
    n_unbiased = int(np.ceil(config.unbiased_oversample * len(sliced)))
    with tracer.span("core.slotted_counts"):
        counts = slotted_counts(
            sliced, bins, scheme=config.slot_scheme,
            n_unbiased_samples=n_unbiased,
            rng=RngFactory(config.seed).stream(f"curve/{description}"),
            estimator=config.unbiased_estimator, n_shards=config.unbiased_shards,
        )
    references = counts.busiest_slots(config.n_reference_slots)
    per_reference = []
    for reference in references:
        with tracer.span("core.alpha"):
            alpha = alpha_from_counts(
                counts, reference_slot=reference,
                bin_average=config.alpha_bin_average,
                min_bin_count=config.alpha_min_bin_count,
            )
        with tracer.span("core.corrected"):
            biased, unbiased = corrected_histograms_from_counts(counts, alpha)
        with tracer.span("core.preference"):
            per_reference.append(computer.compute(
                biased, unbiased, slice_description=description,
                n_actions=len(sliced)))
    with tracer.span("core.average"):
        result = average_results(per_reference, slice_description=description)
    result.metadata["reference_slots"] = references
    return result


def _files_digest(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- ingest-analyze ------------------------------------------------------------

#: Share of injected malformed rows.
BAD_SHARE = 0.01
#: Malformed-row kinds per format, paired by index, and the reason each
#: reader files it under in the quarantine sink.
BAD_KINDS = {
    "jsonl": ("bad-json", "nan-latency", "missing-field", "negative-latency"),
    "csv": ("non-numeric", "nan-latency", "missing-field", "negative-latency"),
}
BAD_REASONS = {
    ("jsonl", "bad-json"): "json-decode",
    ("jsonl", "nan-latency"): "non-finite",
    ("jsonl", "missing-field"): "schema",
    ("jsonl", "negative-latency"): "schema",
    ("csv", "non-numeric"): "parse",
    ("csv", "nan-latency"): "non-finite",
    ("csv", "missing-field"): "parse",
    ("csv", "negative-latency"): "schema",
}
#: NLP probes checked against the generator's ground truth, each with the
#: bound the measured value may lie outside the business/consumer truth
#: range. At about 19k actions the estimator's sampling error at 1000 ms
#: reaches 0.27 (seeds 0-119 and three large seeds); 1500 ms is left out
#: because the curve's valid range ends below it on some seeds.
TRUTH_PROBES_MS = (500.0, 1000.0)
TRUTH_BOUNDS = (0.15, 0.4)
CSV_FIELDS = ("time", "action", "latency_ms", "user_id", "user_class",
              "success", "tz_offset_hours")


def _bad_jsonl(record: dict, kind: str) -> str:
    if kind == "bad-json":
        text = json.dumps(record, separators=(",", ":"))
        return text[: len(text) // 2]
    record = dict(record)
    if kind == "nan-latency":
        record["latency_ms"] = float("nan")
    elif kind == "missing-field":
        del record["latency_ms"]
    elif kind == "negative-latency":
        record["latency_ms"] = -(record["latency_ms"] + 1.0)
    return json.dumps(record, separators=(",", ":"))


def _bad_csv(record: dict, kind: str) -> str:
    row = [record[k] for k in CSV_FIELDS]
    row[5] = int(row[5])
    if kind == "non-numeric":
        row[2] = "n/a"
    elif kind == "nan-latency":
        row[2] = "nan"
    elif kind == "missing-field":
        row = row[:2]
    elif kind == "negative-latency":
        row[2] = -(row[2] + 1.0)
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()


class IngestAnalyze:
    """Read a dirty owa log as JSONL and CSV under quarantine, then one curve each."""

    ACTION = "SelectMail"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = AutoSensConfig(seed=seed)
        self.paths = {"jsonl": workdir / "owa.jsonl", "csv": workdir / "owa.csv"}
        self.policies = {
            fmt: IngestPolicy(mode="quarantine",
                              quarantine_path=workdir / f"quarantine.{fmt}.jsonl")
            for fmt in self.paths
        }
        self.readers = {"jsonl": (read_jsonl, iter_jsonl), "csv": (read_csv, iter_csv)}

    def prepare(self) -> None:
        result = owa_scenario(duration_days=2.0, n_users=300).generate(seed=self.seed)
        store = result.logs
        n = len(store)
        rng = np.random.default_rng([self.seed, 0xBAD])
        n_bad = max(len(BAD_KINDS["jsonl"]), int(round(BAD_SHARE * n)))
        bad_at = set(rng.choice(n + n_bad, n_bad, replace=False).tolist())
        donors = rng.integers(0, n, n_bad)
        kinds = rng.permutation(n_bad) % len(BAD_KINDS["jsonl"])
        records = [r.to_dict() for r in store.iter_records()]

        write_jsonl(store.iter_records(), self.paths["jsonl"])
        write_csv(store.iter_records(), self.paths["csv"])
        self.expected: Dict[str, List[Tuple[int, str]]] = {}
        for fmt, path in self.paths.items():
            with open(path, newline="", encoding="utf-8") as fh:
                lines = fh.read().splitlines(keepends=True)
            header = lines[:1] if fmt == "csv" else []
            good = iter(lines[len(header):])
            out = list(header)
            expected = []
            b = 0
            for row in range(n + n_bad):
                if row not in bad_at:
                    out.append(next(good))
                    continue
                kind = BAD_KINDS[fmt][kinds[b]]
                donor = records[donors[b]]
                if fmt == "jsonl":
                    out.append(_bad_jsonl(donor, kind) + "\n")
                else:
                    out.append(_bad_csv(donor, kind))
                expected.append((len(out), BAD_REASONS[(fmt, kind)]))
                b += 1
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(out)
            self.expected[fmt] = expected
        self.expected_reasons = {fmt: dict(Counter(reason for _, reason in rows))
                                 for fmt, rows in self.expected.items()}
        self.n_good = n
        self.n_bad = n_bad
        self.read_bytes = sum(p.stat().st_size for p in self.paths.values())
        self.reference = AutoSens(self.config).preference_curve(store, action=self.ACTION)
        truth = result.ground_truth
        probes = np.asarray(TRUTH_PROBES_MS)
        by_class = [truth.expected_nlp(probes, self.ACTION, c) for c in store.class_names()]
        self.truth_lo = np.min(by_class, axis=0) - TRUTH_BOUNDS
        self.truth_hi = np.max(by_class, axis=0) + TRUTH_BOUNDS

    def fingerprint(self) -> str:
        return _files_digest(*self.paths.values()) + curve_digest([self.reference])

    def op(self):
        engine = AutoSens(self.config)
        stores, curves = {}, {}
        for fmt, path in self.paths.items():
            read = self.readers[fmt][0]
            stores[fmt] = read(path, policy=self.policies[fmt])
            curves[fmt] = engine.preference_curve(stores[fmt], action=self.ACTION)
        return {"reports": {f: s.ingest_report for f, s in stores.items()},
                "curves": curves, "cache": engine.cache_stats()}

    def traced_op(self, tracer: Tracer):
        """``read_jsonl``/``read_csv`` and the curve, split into layer spans."""
        stores, curves = {}, {}
        for fmt, path in self.paths.items():
            iterate = self.readers[fmt][1]
            collector = IngestCollector(self.policies[fmt], source=path)
            with tracer.span("telemetry.columnarize"):
                store = LogStore.from_records(tracer.timed_iter(
                    f"telemetry.decode.{fmt}",
                    iterate(path, policy=self.policies[fmt], collector=collector)))
            with tracer.span("telemetry.finish"):
                store.ingest_report = collector.finish()
            stores[fmt] = store
            curves[fmt] = rebuild_curve(tracer, store, self.config, action=self.ACTION)
        return {"reports": {f: s.ingest_report for f, s in stores.items()},
                "curves": curves, "cache": None}

    def check(self, out) -> List[str]:
        problems = []
        probes = np.asarray(TRUTH_PROBES_MS)
        for fmt, curve in out["curves"].items():
            if not same_curve(curve, self.reference):
                problems.append(f"{fmt}: curve differs from the in-memory store's")
            nlp = np.asarray(curve.at(probes))
            if not np.all((nlp >= self.truth_lo) & (nlp <= self.truth_hi)):
                problems.append(f"{fmt}: NLP {nlp} outside the ground-truth bound")
        for fmt, report in out["reports"].items():
            counts = (report.n_rows, report.n_bad, report.reasons)
            if counts != (self.n_good, self.n_bad, self.expected_reasons[fmt]):
                problems.append(f"{fmt}: report {report.summary()} != injected rows")
            sink = read_quarantine(self.policies[fmt].quarantine_path)
            if [(q["lineno"], q["reason"]) for q in sink] != self.expected[fmt]:
                problems.append(f"{fmt}: quarantine lines differ from the injected rows")
        return problems

    def rows(self, out) -> int:
        return sum(r.n_seen for r in out["reports"].values())

    def counts(self, out) -> Dict[str, float]:
        reports = out["reports"].values()
        return {
            "telemetry.rows_good": sum(r.n_rows for r in reports),
            "telemetry.rows_bad": sum(r.n_bad for r in reports),
            "telemetry.read_bytes": self.read_bytes,
            "core.curves": len(out["curves"]),
        }


# -- segment-sweep -------------------------------------------------------------

class SegmentSweep:
    """The paper's segmentations (Figs. 4-7) over an in-memory owa store."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = AutoSensConfig(seed=seed)

    def prepare(self) -> None:
        self.store = owa_scenario(duration_days=7.0, n_users=400).generate(seed=self.seed).logs
        self.reference = self.op()["curves"]

    def fingerprint(self) -> str:
        return curve_digest(list(self.reference.values()))

    def op(self):
        engine = AutoSens(self.config)
        store = self.store
        figures = {
            "fig4": engine.curves_by_action(store),
            "fig5": engine.curves_by_user_class(store),
            "fig6": engine.curves_by_quartile(store),
            "fig7": engine.curves_by_period(store),
        }
        curves = {(fig, label): c for fig, out in figures.items() for label, c in out.items()}
        return {"curves": curves, "cache": engine.cache_stats()}

    def traced_op(self, tracer: Tracer):
        """The four sweeps rebuilt curve by curve, in the engine's order."""
        store, cfg = self.store, self.config
        curves = {}
        for action in store.action_names():
            curves[("fig4", action)] = rebuild_curve(tracer, store, cfg, action=action)
        for name in [n for n in store.class_names() if n]:
            curves[("fig5", name)] = rebuild_curve(tracer, store, cfg, user_class=name)
        with tracer.span("core.quartiles"):
            base = store.successful()
            slices = quartile_slices(base, assign_quartiles(base, min_actions_per_user=5))
        for name in QUARTILE_NAMES:
            curve = rebuild_curve(tracer, slices[name], cfg)
            curve.slice_description = f"quartile={name}"
            curves[("fig6", name)] = curve
        for period in ALL_DAY_PERIODS:
            curves[("fig7", period.value)] = rebuild_curve(tracer, store, cfg, period=period)
        return {"curves": curves, "cache": None}

    def check(self, out) -> List[str]:
        curves = out["curves"]
        if list(curves) != list(self.reference):
            return [f"curve set {sorted(curves)} != {sorted(self.reference)}"]
        return [f"{key}: curve differs from the set-up reference"
                for key, curve in curves.items()
                if not same_curve(curve, self.reference[key])]

    def rows(self, out) -> int:
        return len(self.store)

    def counts(self, out) -> Dict[str, float]:
        return {"core.curves": len(out["curves"])}


# -- generate-export -----------------------------------------------------------

#: Every SAMPLE_EVERY-th written row is parsed back with the stdlib and checked.
SAMPLE_EVERY = 97


def _row_of(store: LogStore, i: int) -> dict:
    return {
        "time": float(store.times[i]),
        "action": store.action_vocab[int(store.action_codes[i])],
        "latency_ms": float(store.latencies_ms[i]),
        "user_id": store.user_vocab[int(store.user_codes[i])],
        "user_class": store.class_vocab[int(store.class_codes[i])],
        "success": bool(store.success[i]),
        "tz_offset_hours": float(store.tz_offsets[i]),
    }


def _parse_csv_row(row: dict) -> dict:
    out = dict(row)
    for key in ("time", "latency_ms", "tz_offset_hours"):
        out[key] = float(row[key])
    out["success"] = bool(int(row["success"]))
    return out


class GenerateExport:
    """Generate owa-queue telemetry and write it as JSONL and CSV."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.scenario = queue_scenario(duration_days=1.0, n_users=300)
        self.paths = {"jsonl": workdir / "export.jsonl", "csv": workdir / "export.csv"}
        self.writers = {"jsonl": write_jsonl, "csv": write_csv}

    def prepare(self) -> None:
        out = self.op()
        self.n_rows = len(out["result"].logs)
        self.sizes = {f: p.stat().st_size for f, p in self.paths.items()}
        self.digest = _files_digest(*self.paths.values())

    def fingerprint(self) -> str:
        return self.digest

    def op(self):
        result = self.scenario.generate(seed=self.seed)
        written = {fmt: self.writers[fmt](result.logs.iter_records(), path)
                   for fmt, path in self.paths.items()}
        return {"result": result, "written": written}

    def traced_op(self, tracer: Tracer):
        with tracer.span("workload.generate"):
            result = self.scenario.generate(seed=self.seed)
        written = {}
        for fmt, path in self.paths.items():
            with tracer.span(f"telemetry.encode.{fmt}") as span:
                records = tracer.accumulate(
                    "telemetry.records", result.logs.iter_records(), span)
                written[fmt] = self.writers[fmt](records, path)
        return {"result": result, "written": written}

    def check(self, out) -> List[str]:
        store = out["result"].logs
        problems = []
        if set(out["written"].values()) != {len(store)} or len(store) != self.n_rows:
            problems.append(f"row counts {out['written']} vs {len(store)} vs {self.n_rows}")
        sizes = {f: p.stat().st_size for f, p in self.paths.items()}
        if sizes != self.sizes:
            problems.append(f"file sizes {sizes} != {self.sizes}")
        with open(self.paths["jsonl"], encoding="utf-8") as fh:
            jsonl_rows = fh.readlines()
        with open(self.paths["csv"], newline="", encoding="utf-8") as fh:
            csv_rows = list(csv.DictReader(fh))
        for i in range(0, min(len(store), len(jsonl_rows), len(csv_rows)), SAMPLE_EVERY):
            expected = _row_of(store, i)
            if json.loads(jsonl_rows[i]) != expected:
                problems.append(f"jsonl row {i} differs from the store")
            if _parse_csv_row(csv_rows[i]) != expected:
                problems.append(f"csv row {i} differs from the store")
        return problems

    def rows(self, out) -> int:
        return len(out["result"].logs)

    def counts(self, out) -> Dict[str, float]:
        result = out["result"]
        return {
            "telemetry.write_bytes": sum(p.stat().st_size for p in self.paths.values()),
            "workload.accept_ratio": result.n_accepted / result.n_candidates,
        }


WORKLOADS = {
    "ingest-analyze": IngestAnalyze,
    "segment-sweep": SegmentSweep,
    "generate-export": GenerateExport,
}
