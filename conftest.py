"""A skipped test counts as a failed one.

A skip says nothing about whether the code works, so no test run may pass
because of one: every skip (a `pytest.skip` call, a `skip`/`skipif` mark,
a module-level `importorskip`) is reported as a failure with its reason.
Expected failures (`xfail`) are left as they are.
"""

import pytest


def _fail_if_skipped(report):
    if report.skipped and not hasattr(report, "wasxfail"):
        reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else report.longrepr
        report.outcome = "failed"
        report.longrepr = f"counted as a failure: {reason}"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    _fail_if_skipped(outcome.get_result())


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    outcome = yield
    _fail_if_skipped(outcome.get_result())
