import pytest

# one line per acceptance criterion, echoed after the run so the gate is
# readable without digging through -v output
_ACCEPTANCE_LINES: list[str] = []


class AcceptanceLog:
    def gate(self, num: str, desc: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"[criterion {num}] {verdict}  {desc}"
        if detail:
            line += f"  ({detail})"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line


@pytest.fixture(scope="session")
def acceptance() -> AcceptanceLog:
    return AcceptanceLog()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

