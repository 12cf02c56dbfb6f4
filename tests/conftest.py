import os
import sys

# scripts/crossver.py holds the stream-driven oracle checks; the tests
# import it as crossver
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))

verdict_lines = []


def record_verdict(line):
    verdict_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if verdict_lines:
        terminalreporter.section("acceptance summary")
        for line in verdict_lines:
            terminalreporter.line(line)
