"""Check that the failing tests in pytest JUnit XML reports are exactly the
documented reds.

The two acceptance points below are analysed limits of the method and stay
red on purpose.  Any other failure or error (including a collection error),
and either red passing, fails the check.

Usage: python .github/check_reds.py REPORT.xml [REPORT.xml ...]
"""

import sys
import xml.etree.ElementTree as ET

DOCUMENTED_REDS = {
    "tests.test_acceptance::"
    "test_grid_scaled_penalty_degrades_small_fraction_convergence",
    "tests.test_acceptance::test_w_cycle_convergence_tracks_two_grid",
}


def failing_tests(path: str) -> tuple[set, int]:
    """Ids of the failed or errored test cases in one report, and the number
    of test cases it holds."""
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None
              or case.find("error") is not None}
    return failed, len(cases)


def main(paths: list) -> int:
    failed, total = set(), 0
    for path in paths:
        ids, count = failing_tests(path)
        failed |= ids
        total += count
    unexpected = sorted(failed - DOCUMENTED_REDS)
    passing_reds = sorted(DOCUMENTED_REDS - failed)
    for name in unexpected:
        print(f"unexpected failure: {name}")
    for name in passing_reds:
        print(f"documented red now passes: {name}")
    if total == 0:
        print("no test cases in the report")
    ok = total > 0 and not unexpected and not passing_reds
    print(f"{total} test cases, {len(failed)} failing: "
          f"{'exactly the documented reds' if ok else 'check failed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
