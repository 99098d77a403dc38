"""A skipped test counts as a failed one.

A skip says nothing about whether the code works, so no test run may pass
because of one: every skip (a `pytest.skip` call, a `skip`/`skipif` mark,
a module-level `importorskip`) is reported as a failure with its reason.
Expected failures (`xfail`) are left as they are.

Property tests keep hypothesis' random examples and example counts, but a
failing example prints its `@reproduce_failure` line, so it can be rerun.
"""

import pytest
from hypothesis import settings

settings.register_profile("addcomb", print_blob=True)
settings.load_profile("addcomb")


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
