"""The CI gate that passes a test run only when its known failures fail."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "known_failures.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("known_failures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def junit_xml(path, passed, failed):
    """A JUnit XML file with one test case per ``classname::name``."""
    def case(name, outcome):
        classname, _, test = name.partition("::")
        return f'<testcase classname="{classname}" name="{test}">{outcome}</testcase>'

    cases = [case(name, "") for name in passed]
    cases += [case(name, '<failure message="boom"/>') for name in failed]
    path.write_text('<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite>'
                    + "".join(cases) + "</testsuite></testsuites>")
    return str(path)


# each suite as the CI workflow names it: Tier-1 by default, the self-tests by name
SUITES = [("tier1", []), ("selftest", ["selftest"])]
PASSING = "tests.test_cli::test_passes"


@pytest.mark.parametrize("suite, tail", SUITES)
class TestKnownFailuresGate:
    def test_exactly_the_known_set_passes(self, gate, tmp_path, capsys, suite, tail):
        known = sorted(gate.KNOWN_FAILURES[suite])
        xml = junit_xml(tmp_path / "run.xml", [PASSING], known)
        assert gate.main(["known_failures.py", xml, *tail]) == 0
        assert capsys.readouterr().out == f"only the {len(known)} known failures failed\n"

    def test_an_extra_failure_fails_and_is_named(self, gate, tmp_path, capsys, suite, tail):
        known = sorted(gate.KNOWN_FAILURES[suite])
        xml = junit_xml(tmp_path / "run.xml", [], [*known, PASSING])
        assert gate.main(["known_failures.py", xml, *tail]) == 1
        assert capsys.readouterr().out == f"unexpected failure: {PASSING}\n"

    def test_a_known_failure_passing_fails_and_is_named(self, gate, tmp_path, capsys,
                                                         suite, tail):
        mended, *known = sorted(gate.KNOWN_FAILURES[suite])
        xml = junit_xml(tmp_path / "run.xml", [mended, PASSING], known)
        assert gate.main(["known_failures.py", xml, *tail]) == 1
        assert capsys.readouterr().out == f"known failure did not fail: {mended}\n"
