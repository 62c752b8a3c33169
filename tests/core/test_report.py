"""CampaignReport: the unified result type and its arm comparisons."""

import warnings
from dataclasses import replace

import pytest

from repro.core.campaign import (CampaignResult, CampaignSpec,
                                 ExperimentRecord)
from repro.core.metrics import reduction_fraction, speedup
from repro.core.report import REPORT_SCHEMA, CampaignReport
from repro.scale.hashing import decision_hash


def _record(i, objective, valid=True, started=None, finished=None):
    return ExperimentRecord(
        index=i, params={"x": float(i)}, valid=valid, objective=objective,
        source="test", started=started if started is not None else 100.0 * i,
        finished=finished if finished is not None else 100.0 * i + 50.0)


def _result(target=None):
    spec = CampaignSpec(name="camp", objective_key="plqy", target=target,
                        max_experiments=10)
    records = [
        _record(0, 0.2),
        _record(1, None, valid=False),
        _record(2, 0.55),
        _record(3, 0.8),
    ]
    return CampaignResult(
        spec=spec, records=records, best_value=0.8,
        best_params={"x": 3.0}, started=0.0, finished=350.0,
        stop_reason="budget-exhausted", counters={"planned": 4})


# -- construction --------------------------------------------------------------

def test_from_result_derives_everything():
    rep = CampaignReport.from_result(_result(target=0.5))
    assert rep.campaign == "camp"
    assert rep.n_experiments == 4
    assert rep.n_valid == 3
    assert rep.correctness == pytest.approx(0.75)
    assert rep.best_value == pytest.approx(0.8)
    assert rep.best_params == {"x": 3.0}
    assert rep.stop_reason == "budget-exhausted"
    assert rep.duration == pytest.approx(350.0)
    # Target 0.5 first met by record index 2 (3rd experiment).
    assert rep.time_to_target == pytest.approx(250.0)
    assert rep.experiments_to_target == 3
    assert len(rep.decisions) == 4
    # Invalid experiment encodes as nan objective, valid flag 0.
    import math
    assert math.isnan(rep.decisions[1][1])
    assert rep.decisions[1][4] == 0.0


def test_target_defaults_to_spec_target():
    rep = CampaignReport.from_result(_result(target=0.5))
    rep2 = CampaignReport.from_result(_result(target=None))
    assert rep.target == 0.5
    assert rep2.target is None
    assert rep2.time_to_target is None


def test_with_tenant_and_sim_seconds():
    rep = CampaignReport.from_result(_result(), tenant="lab-a",
                                     sim_seconds=1000.0)
    assert rep.tenant == "lab-a"
    assert rep.sim_seconds == 1000.0
    assert rep.with_tenant("lab-b").tenant == "lab-b"
    # sim_seconds defaults to the finish time.
    assert CampaignReport.from_result(_result()).sim_seconds == 350.0


def test_with_tenant_equals_dataclasses_replace():
    """The ``__dict__`` copy is ``replace(report, tenant=...)``: every
    field, the shared (not copied) containers, ``to_dict`` and the
    frozen contract."""
    rep = CampaignReport.from_result(_result(target=0.5), tenant="lab-a",
                                     sim_seconds=1000.0)
    got, want = rep.with_tenant("lab-b"), replace(rep, tenant="lab-b")
    assert type(got) is CampaignReport
    assert got == want
    assert vars(got) == vars(want)
    assert list(vars(got)) == list(vars(want))
    for name in ("counters", "decisions", "best_params"):
        assert getattr(got, name) is getattr(want, name)
    assert got.to_dict() == want.to_dict()
    assert decision_hash(got) == decision_hash(want)
    assert rep.tenant == "lab-a"
    with pytest.raises(AttributeError):
        got.tenant = "lab-c"


def test_to_dict_is_stable_superset_of_legacy_summary_shape():
    d = CampaignReport.from_result(_result()).to_dict()
    assert d["schema"] == REPORT_SCHEMA
    legacy_keys = {"campaign", "objective_key", "n_experiments", "n_valid",
                   "best_value", "stop_reason", "sim_seconds", "decisions"}
    assert legacy_keys <= set(d)
    digest = decision_hash(d)
    assert isinstance(digest, str) and len(digest) == 64


def test_summary_matches_legacy_shape_and_rounding():
    rep = CampaignReport.from_result(_result())
    s = rep.summary()
    assert s == {"campaign": "camp", "experiments": 4, "valid": 3,
                 "correctness": 0.75, "best": 0.8, "duration_s": 350.0,
                 "stop_reason": "budget-exhausted", "planned": 4}


def test_report_supports_arm_comparisons():
    rep = CampaignReport.from_result(_result(target=0.5))
    assert speedup(750.0, rep.time_to_target) == pytest.approx(3.0)
    assert reduction_fraction(9, rep.experiments_to_target) \
        == pytest.approx(1.0 - 3.0 / 9.0)
    assert reduction_fraction(6, rep.experiments_to_target) \
        == pytest.approx(0.5)


def test_report_method_stays_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        rep = _result().report()
    assert rep.n_experiments == 4
