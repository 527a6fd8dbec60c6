"""Self-tests for the benchmark's own logic.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest

import check
import microkernel
import run
from spans import self_times, summarize

SUITE_NAMES = ["residue-mix-gf7", "residue-mix-gf9", "pipeline-gf7"]


def _suite_report(seed: int, failing=("residue-mix-gf9",)) -> bytes:
    checks = [{"name": n, "pass": n not in failing} for n in SUITE_NAMES]
    passed = sum(c["pass"] for c in checks)
    report = {"command": "suite", "qmax": 64, "seed": seed, "checks": checks,
              "passed": passed, "failed": len(checks) - passed, "ok": passed == len(checks)}
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def _game_report(seed: int, survivors=(10, 6, 6)) -> bytes:
    report = {"command": "game", "q": 121, "strategy": "random-set", "seed": seed,
              "rounds_played": len(survivors) - 1, "survivors": list(survivors),
              "checks": [{"name": "rounds-at-least-floor", "pass": True}], "ok": True}
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


SUITE_ARGV = ["suite", "--qmax", "64", "--seed", "5", "--json"]
GAME_ARGV = ["game", "--q", "121", "--strategy", "random-set", "--seed", "5", "--json"]
EXPECTED = {
    "reports": {" ".join(SUITE_ARGV): check.digest(_suite_report(5))},
    "suite_check_names": SUITE_NAMES,
}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("cli.command", 0.0, 10.0, -1),
            ("qm.verify_scheme", 1.0, 4.0, 0),
            ("qm.transcript", 2.0, 3.0, 1),
            ("qm.transcript", 5.0, 6.5, 0),
        ]
        self.assertEqual(self_times(spans), [5.5, 2.0, 1.0, 1.5])
        summary = summarize(spans)
        self.assertEqual(summary["qm.transcript"], [2, 2.5, 2.5])
        self.assertEqual(summary["cli.command"], [1, 5.5, 10.0])

    def test_children_covering_the_same_time_count_once(self):
        spans = [("a", 0.0, 4.0, -1), ("b", 1.0, 3.0, 0), ("c", 2.0, 5.0, 0)]
        self.assertEqual(self_times(spans)[0], 1.0)


class GateTest(unittest.TestCase):
    def problem(self, argv, stdout, code=None, stderr=b""):
        code = check.expected_exit(argv) if code is None else code
        return check.problem(argv, code, stdout, stderr, EXPECTED)

    def test_recorded_report_passes(self):
        self.assertIsNone(self.problem(SUITE_ARGV, _suite_report(5)))

    def test_tampered_recorded_report_fails(self):
        tampered = _suite_report(5).replace(b'"qmax":64', b'"qmax":65')
        self.assertIn("digest", self.problem(SUITE_ARGV, tampered))

    def test_unrecorded_seed_checks_verdicts(self):
        argv = SUITE_ARGV[:4] + ["6", "--json"]
        self.assertIsNone(self.problem(argv, _suite_report(6)))
        extra = _suite_report(6, failing=("residue-mix-gf9", "pipeline-gf7"))
        self.assertIn("failing", self.problem(argv, extra))
        self.assertIn("failing", self.problem(argv, _suite_report(6, failing=())))
        self.assertIn("seed", self.problem(argv, _suite_report(7)))

    def test_game_verdicts(self):
        self.assertIsNone(self.problem(GAME_ARGV, _game_report(5)))
        self.assertIn("grew", self.problem(GAME_ARGV, _game_report(5, (10, 6, 7))))

    def test_exit_status_and_traceback_fail(self):
        self.assertIn("exit", self.problem(SUITE_ARGV, _suite_report(5), code=0))
        self.assertIn("exit", self.problem(GAME_ARGV, _game_report(5), code=2))
        trace = b'Traceback (most recent call last):\n  ...\nIndexError: boom\n'
        self.assertIn("IndexError", self.problem(GAME_ARGV, _game_report(5), stderr=trace))


class RatioTest(unittest.TestCase):
    def test_ratio_without_a_denominator_is_left_out(self):
        values = {"pqm.rounds_played": 0, "pqm.pqm_round.calls": 0,
                  "rscode.bucket_eval.calls": 8, "rscode.bucket_eval.cache_hits": 2}
        self.assertEqual(run.ratios(values), {"rscode.bucket_eval.cache_hit_ratio": 0.25})
        values.update({"pqm.rounds_played": 4, "pqm.pqm_round.calls": 12,
                       "rscode.bucket_eval.calls": 0, "rscode.bucket_eval.cache_hits": 0})
        self.assertEqual(run.ratios(values), {"pqm.pqm_round.calls_per_round": 3.0})


class _WrongAddField:
    """GF(9) whose add is wrong on one pair: the microkernel must notice."""

    p, e, q, irreducible = 3, 2, 9, (1, 0, 1)

    def add(self, a, b):
        if (a, b) == (4, 5):
            return 0
        ref = microkernel.Reference(3, 2, self.irreducible)
        return ref.add(a, b)


class MicrokernelTest(unittest.TestCase):
    def test_reference_arithmetic_gf9(self):
        ref = microkernel.Reference(3, 2, (1, 0, 1))  # x^2 + 1
        self.assertEqual(ref.add(5, 7), 0)  # (2 + x) + (1 + 2x) = 0
        self.assertEqual(ref.mul(3, 3), 2)  # x * x = -1
        self.assertEqual(ref.mul(4, 4), 6)  # (1 + x)^2 = 2x
        self.assertEqual({ref.trace(a) for a in range(9)}, {0, 1, 2})

    def test_wrong_result_is_reported(self):
        _ns, error = microkernel.measure(_WrongAddField(), "add")
        self.assertIn("GF(9) add(4, 5)", error)


if __name__ == "__main__":
    unittest.main()
