#!/usr/bin/env python3
"""Self-test of the benchmark's own verification.

Usage (from the repository root): ``python3 perfbench/selftest.py``.

Runs a short ``serve-sum32`` measurement three times against a real
server: once as is (every session must verify), once with a tampered
output expectation and once with a tampered count-mode gate count.
Each tampered run must report every session as failed and the run as
not correct.  Exits 0 when all three hold.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import programs  # noqa: E402
import run  # noqa: E402


class WrongOutput(programs.EvaluatorSide):
    """Expects the true answer with its lowest bit flipped."""

    def expected(self, value):
        check = super().expected(value)
        return lambda bits: check([1 - bits[0]] + list(bits[1:]))


class WrongCount(programs.EvaluatorSide):
    """Claims count mode garbles one gate more than it does."""

    def count_mode(self, value):
        nonxor, bits = super().count_mode(value)
        return nonxor + 1, bits


def main() -> int:
    run.SETUPS = 1
    problems = []
    for side_cls, tampered in ((programs.EvaluatorSide, False),
                                 (WrongOutput, True), (WrongCount, True)):
        result = run.run_one("serve-sum32", 7, 1.0, False, side_cls)
        failed, attempted = result["failed"], result["attempted"]
        if tampered and (result["correct"] or failed != attempted):
            problems.append(f"{side_cls.__name__}: only {failed} of "
                            f"{attempted} sessions failed")
        if not tampered and (not result["correct"] or failed):
            problems.append(f"untampered run failed {failed} sessions")
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
