import pytest
from hypothesis import HealthCheck, settings


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from _verdicts import LINES
    except ImportError:
        return
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=100,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def oracle_members_1e5():
    """Odd composites <= 1e5 passing the definition predicate, one by one."""
    from _oracles import brute_overpseudoprimes

    return brute_overpseudoprimes(10**5)


@pytest.fixture(scope="session")
def record_1e7():
    """Single shared enumeration sweep up to 1e7 with members retained."""
    from overpseudo import Budget, ov_count

    return ov_count(10**7, Budget(200_000_000))


@pytest.fixture(scope="session")
def primitive_parts_120():
    """Primitive parts of 2**n - 1 for 2 <= n <= 120, fully factored."""
    from overpseudo import Budget, primitive_part

    parts = {n: primitive_part(n, Budget(50_000_000)) for n in range(2, 121)}
    assert all(p.complete for p in parts.values())
    return parts


@pytest.fixture
def no_phi2_table(monkeypatch, no_scanned_section):
    """Hide the table of factored Phi_h(2), complete and partial entries and
    the scanned section, at its owner, primover, so that primover factors
    every order and count scans every order h >= 3."""
    from overpseudo import primover

    monkeypatch.setattr(primover, "_phi2_table", dict)
    monkeypatch.setattr(primover, "_phi2_partial", dict)


@pytest.fixture
def no_scanned_section(monkeypatch):
    """Hide only the table's scanned section, so that count scans every
    order without a complete entry from sqrt(x) up, as it does one above
    the section's limit."""
    from overpseudo import primover

    monkeypatch.setattr(primover, "_phi2_scanned", lambda: (0, 0, [], []))
