"""Collects the acceptance-criterion result lines and prints them at the end
of the run, where pytest's capture cannot swallow them, and holds the
instance streams that criteria 1 and 2 share with the solver tests."""

from totipm.instances import SplitMix64, random_instance

criterion_lines = []


def criterion_01_problems(seed=20240):
    """The 50 variant-U instances of acceptance criterion 1, in stream order:
    30 of d = 2 with n_k in 2..6, then 20 of d = 3 with n_k in 2..4,
    alternating uniform and random marginals."""
    rng = SplitMix64(seed)
    problems = []
    for trial in range(50):
        if trial < 30:
            dims = (2 + rng.next_int(5), 2 + rng.next_int(5))
        else:
            dims = tuple(2 + rng.next_int(3) for _ in range(3))
        kind = "uniform" if trial % 2 == 0 else "random"
        problems.append(random_instance(dims, "U", rng, kind))
    return problems


def criterion_02_problems(seed=20241):
    """The 20 variant-V instances of acceptance criterion 2, in stream order:
    d alternating 2 and 3 with n_k in 2..3, marginals uniform, uniform,
    random, random, and so on."""
    rng = SplitMix64(seed)
    problems = []
    for trial in range(20):
        d = 2 if trial % 2 == 0 else 3
        dims = tuple(2 + rng.next_int(2) for _ in range(d))
        kind = "uniform" if trial % 4 < 2 else "random"
        problems.append(random_instance(dims, "V", rng, kind))
    return problems


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
