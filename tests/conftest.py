"""Collects acceptance-criterion verdict lines and re-prints them after
the run so they stay visible under captured output; and the ``gemms``
spy that the weight-gradient tests share."""

import numpy as np
import pytest

acceptance_lines = []


@pytest.fixture()
def gemms(monkeypatch):
    """The result of every ``np.tensordot`` call, in call order."""
    results, real = [], np.tensordot

    def spy(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(np, "tensordot", spy)
    return results


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
