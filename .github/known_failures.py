"""Pass only if a test run failed exactly the known failures of its suite.

Tier-1 (suite `tier1`, the default): criteria 7, 8 and 9 of
tests/test_acceptance.py fail on purpose, as a 7-plate Brewster stack
cannot be calibrated at n = 1.5 (README, "The optical twin"). The
benchmark's self-tests (suite `selftest`, perfbench/selftest.py): three
tests still check code that is gone, and fail until they are restated
against the current API. Any other failure or error fails this check,
and so does one of the known failures passing or not running: a change
that mends or breaks one must update KNOWN_FAILURES on purpose.

Usage: python .github/known_failures.py JUNIT_XML [tier1|selftest]
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_FAILURES = {
    "tier1": {
        "tests.test_acceptance::test_criterion_07_calibration_six_settings",
        "tests.test_acceptance::test_criterion_08_monte_carlo_reproduces_the_floor",
        "tests.test_acceptance::test_criterion_09_noise_direction",
    },
    "selftest": {
        "perfbench.selftest::test_family_matches_the_prepared_state",
        "perfbench.selftest::test_tracing_restores_every_module_attribute",
        "perfbench.selftest::test_traced_calibration_counts_prepare_calls",
    },
}


def failed_tests(junit_xml: str) -> set:
    """classname::name of every test case with a failure or an error element."""
    cases = ET.parse(junit_xml).getroot().iter("testcase")
    return {f"{case.get('classname')}::{case.get('name')}" for case in cases
            if case.find("failure") is not None or case.find("error") is not None}


def main(argv) -> int:
    known = KNOWN_FAILURES[argv[2] if len(argv) > 2 else "tier1"]
    failed = failed_tests(argv[1])
    for name in sorted(failed - known):
        print(f"unexpected failure: {name}")
    for name in sorted(known - failed):
        print(f"known failure did not fail: {name}")
    if failed != known:
        return 1
    print(f"only the {len(known)} known failures failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
