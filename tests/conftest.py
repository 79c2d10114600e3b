import collections

import pytest
from hypothesis import settings

# The property tests run one fixed set of examples: derandomized, with no
# example database and no per-example deadline.
settings.register_profile("exact", derandomize=True, database=None, deadline=None,
                          max_examples=100)

_criteria: dict[str, list[tuple[bool, str]]] = collections.defaultdict(list)


@pytest.fixture
def criterion():
    """Record a named acceptance-criterion outcome for the summary block."""

    def _record(cid: str, passed: bool, note: str = ""):
        _criteria[cid].append((bool(passed), note))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_criteria):
        results = _criteria[cid]
        ok = all(passed for passed, _ in results)
        status = "PASS" if ok else "FAIL"
        notes = "; ".join(note for passed, note in results if note and not passed)
        line = f"{cid}: {status}"
        if notes:
            line += f"  [{notes}]"
        terminalreporter.write_line(line)
