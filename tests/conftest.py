"""Shared pytest plumbing: the acceptance verdict board, and the sample
bank's rows at the encoders' widths.

Acceptance tests push one "A-n PASS/FAIL" line each onto ``VERDICTS``;
echoing them from the terminal-summary hook keeps them visible in normal
captured runs, where in-test prints of passing tests are swallowed.
"""

import numpy as np

from namelink.encoders import NAME_DIM, TEXT_DIM

VERDICTS: list[str] = []


def widen(bank, x1, x2, name_dim=NAME_DIM, text_dim=TEXT_DIM):
    """Rows of ``bank`` at the encoders' widths, which its oracles have:
    each kept column in its place in each half of x1 and in x2, every
    other column +0.0."""
    wide1 = np.zeros((len(x1), 2 * name_dim), x1.dtype)
    wide1[:, bank.name_columns] = x1[:, : bank.name_dim]
    wide1[:, name_dim + bank.name_columns] = x1[:, bank.name_dim :]
    wide2 = np.zeros((len(x2), text_dim), x2.dtype)
    wide2[:, bank.text_columns] = x2
    return wide1, wide2


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
