import numpy as np

from sphereacs.report import AuditReport


def test_verdicts_and_counts():
    report = AuditReport("demo")
    report.add("ok", 1.0, 1.0 + 1e-12, 1e-9, "close enough")
    report.add("bad", 1.0, 2.0, 1e-9, "asserted failure")
    report.add("noted", 0.0, 1.0, 1e-9, "recorded only", asserted=False)
    assert not report.passed
    assert [c.name for c in report.failures()] == ["bad"]
    assert [c.name for c in report.mismatches()] == ["noted"]
    report.record("value", 2.0, "recorded value")
    assert report.counts() == {"pass": 1, "mismatch": 1, "fail": 1, "recorded": 1}
    assert sum(report.counts().values()) == len(report.checks)
    assert report.mismatches()[0].verdict == "mismatch"
    assert report.checks[-1].verdict == "recorded"


def test_report_passes_when_only_recorded_mismatches():
    report = AuditReport("demo")
    report.add("noted", 0.0, 1.0, 1e-9, "recorded only", asserted=False)
    assert report.passed
    assert report.max_error() == 1.0


def test_select_and_max_error_prefix():
    report = AuditReport("demo")
    report.add("fam[0]", 0.0, 0.5, 1e-9, "x", asserted=False)
    report.add("fam[1]", 0.0, 0.25, 1e-9, "x", asserted=False)
    report.add("other", 0.0, 0.0, 1e-9, "y")
    assert len(report.select("fam")) == 2
    assert report.max_error("fam") == 0.5


def test_max_error_propagates_nan_in_any_order():
    for values in ((1.0, float("nan")), (float("nan"), 1.0)):
        report = AuditReport("demo")
        for k, value in enumerate(values):
            report.add(f"row[{k}]", value, 0.0, 1e-9, "x", asserted=False)
        assert np.isnan(report.max_error())
    assert AuditReport("empty").max_error() == 0.0
