"""Pass only if a Tier-1 run failed exactly the known acceptance criteria.

Criteria 7, 8 and 9 of tests/test_acceptance.py fail on purpose: a 7-plate
Brewster stack cannot be calibrated at n = 1.5 (README, "The optical twin").
Any other failure or error fails this check, and so does one of the three
passing or not running: a change to the modelled physics must update
KNOWN_FAILURES on purpose.

Usage: python .github/known_failures.py JUNIT_XML
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_FAILURES = {
    "tests.test_acceptance::test_criterion_07_calibration_six_settings",
    "tests.test_acceptance::test_criterion_08_monte_carlo_reproduces_the_floor",
    "tests.test_acceptance::test_criterion_09_noise_direction",
}


def failed_tests(junit_xml: str) -> set:
    """classname::name of every test case with a failure or an error element."""
    cases = ET.parse(junit_xml).getroot().iter("testcase")
    return {f"{case.get('classname')}::{case.get('name')}" for case in cases
            if case.find("failure") is not None or case.find("error") is not None}


def main(argv) -> int:
    failed = failed_tests(argv[1])
    for name in sorted(failed - KNOWN_FAILURES):
        print(f"unexpected failure: {name}")
    for name in sorted(KNOWN_FAILURES - failed):
        print(f"known failure did not fail: {name}")
    if failed != KNOWN_FAILURES:
        return 1
    print(f"only the {len(KNOWN_FAILURES)} known failures failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
