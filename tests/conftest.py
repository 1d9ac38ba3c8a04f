"""Session-wide Hypothesis seed.

Without --hypothesis-seed every session draws a fresh seed and hands it to
Hypothesis as if it had been given, so the data stays random from session
to session while a slow or failing run can be replayed exactly: the seed is
printed below the session header, under -q too, which hides the header
itself.  An explicit --hypothesis-seed is used unchanged.
"""

import secrets

import pytest


@pytest.hookimpl(tryfirst=True)  # before Hypothesis's plugin reads the option
def pytest_configure(config):
    if config.getoption("hypothesis_seed") is None:
        config.option.hypothesis_seed = str(secrets.randbelow(2**32))


@pytest.hookimpl(wrapper=True)  # after the terminal's own session header
def pytest_sessionstart(session):
    result = yield
    seed = session.config.getoption("hypothesis_seed")
    terminal = session.config.pluginmanager.get_plugin("terminalreporter")
    if terminal is not None:
        terminal.write_line(
            f"hypothesis seed: {seed} (replay with --hypothesis-seed={seed})")
    return result
