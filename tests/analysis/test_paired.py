"""The paired-twin harness: behaviours both perturbation protocols share.

Recovery (incidents re-simulated on the clean seed) and sensitivity
(post-hoc degradation or in-engine subsampling) are two protocols over
one harness, so fixture lookup, the CLI's usage errors, backend
bit-identity, the silent-bias exit code and the single clean twin are
pinned here once, parametrized over both protocols.
"""

import json
from dataclasses import dataclass, replace
from typing import Callable, Tuple

import pytest

from repro.analysis.paired import (
    RECOVERY_FIXTURES,
    run_recovery,
    run_recovery_suite,
    run_sensitivity,
    run_sensitivity_suite,
)
from repro.cli.main import main
from repro.core import AutoSens
from repro.errors import ConfigError
from repro.workload.scenarios import Scenario


@dataclass(frozen=True)
class Case:
    label: str
    command: str
    run: Callable
    suite: Callable
    #: A cheap fixture that gates green.
    fixture: str
    #: CLI arguments that run a silently biased fixture.
    silent_args: Tuple[str, ...]
    #: Two fixtures, and the generator / engine calls a suite of them costs.
    pair: Tuple[str, str]
    generations: int
    estimates: int


CASES = {
    "recovery": Case(
        label="recovery", command="recover",
        run=run_recovery, suite=run_recovery_suite,
        fixture="autoscale-step",
        silent_args=("recover", "autoscale-strict"),
        # One clean twin plus one re-simulated incident run per fixture.
        pair=("autoscale-step", "load-spike"), generations=3, estimates=3,
    ),
    "sensitivity": Case(
        label="sensitivity", command="sensitivity",
        run=run_sensitivity, suite=run_sensitivity_suite,
        fixture="user-skew-mild",
        silent_args=("sensitivity", "user-skew-heavy", "--smoke"),
        # One generation; the clean twin plus 2 + 3 ladder cells.
        pair=("user-skew-mild", "subsample-events"), generations=1,
        estimates=6,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture()
def strict_recovery_fixture(monkeypatch):
    """autoscale-step drifts ~0.048 with every probe and health check
    quiet, so under a 0.01 tolerance its drift is silent bias."""
    monkeypatch.setitem(RECOVERY_FIXTURES, "autoscale-strict", replace(
        RECOVERY_FIXTURES["autoscale-step"], name="autoscale-strict",
        tolerance=0.01))


def _gated_artifacts(out_dir):
    """Every gated artifact's text, minus recovery's executor label."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "timings.json":  # ungated wall seconds
            continue
        text = path.read_text()
        payload = json.loads(text)
        if "executor" in payload:
            payload.pop("executor")
            text = json.dumps(payload, indent=1, sort_keys=True)
        files[path.name] = text
    return files


def test_unknown_fixture_rejected(case):
    with pytest.raises(ConfigError):
        case.run("no-such-fixture")


def test_unknown_fixture_exits_2(case, capsys):
    assert main([case.command, "no-such-fixture"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_baseline_dir_requires_out_dir(case, tmp_path, capsys):
    assert main([case.command, case.fixture,
                 "--baseline-dir", str(tmp_path)]) == 2
    assert "--baseline-dir requires --out-dir" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [2, 4])
def test_serial_and_process_artifacts_identical(case, tmp_path, workers):
    serial_dir = tmp_path / "serial"
    proc_dir = tmp_path / f"proc{workers}"
    case.suite([case.fixture], executor="serial", out_dir=serial_dir)
    case.suite([case.fixture], executor=workers, out_dir=proc_dir)
    serial = _gated_artifacts(serial_dir)
    assert len(serial) >= 2  # a per-fixture artifact plus summary.json
    assert serial == _gated_artifacts(proc_dir)


def test_silent_bias_exits_1(case, strict_recovery_fixture, capsys):
    assert main(list(case.silent_args)) == 1
    assert f"{case.label} gate: FAIL — silent bias" in capsys.readouterr().out


def test_clean_twin_generated_and_estimated_once(case, monkeypatch):
    calls = {"generate": 0, "estimate": 0}
    generate = Scenario.generate
    estimate = AutoSens.preference_curve

    def counting_generate(self, *args, **kwargs):
        calls["generate"] += 1
        return generate(self, *args, **kwargs)

    def counting_estimate(self, *args, **kwargs):
        calls["estimate"] += 1
        return estimate(self, *args, **kwargs)

    monkeypatch.setattr(Scenario, "generate", counting_generate)
    monkeypatch.setattr(AutoSens, "preference_curve", counting_estimate)
    outcomes = case.suite(list(case.pair))
    assert set(outcomes) == set(case.pair)
    assert calls == {"generate": case.generations,
                     "estimate": case.estimates}
