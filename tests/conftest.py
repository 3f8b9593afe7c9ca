"""Prints the acceptance-criterion result lines at the end of the run,
where pytest's capture cannot swallow them."""

from streams import criterion_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
