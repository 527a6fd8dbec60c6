"""Correctness gate for every `qmlab ... --json` invocation the benchmark makes.

Every invocation must exit with the expected status: 1 for `suite`, whose
only failing check is `residue-mix-gf9` (acceptance criterion 6 is false
over GF(9), as the README documents), and 0 for every other command.
Anything on stderr, a traceback above all, fails the invocation.

expected.json records the SHA-256 of the canonical JSON report of every
argument list the benchmark makes for RECORDED_SEEDS (the seed-free
`buckets` calls are then covered for every seed).  A recorded invocation
passes only when its report has exactly that digest.  For other seeds the
report's verdicts are checked instead: the suite battery and its single
expected failure, and every check passing elsewhere.

Run as a script to re-record expected.json from the current program:
    python3 perfbench/check.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SUITE_EXPECTED_FAILURES = ["residue-mix-gf9"]
RECORDED_SEEDS = range(32)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_exit(argv) -> int:
    return 1 if argv[0] == "suite" else 0


def _flag(argv, name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def _verdict_problem(argv, report: dict, expected: dict):
    """Why the report's verdicts are wrong for argv, or None."""
    command = argv[0]
    if report.get("command") != command:
        return f"command is {report.get('command')!r}"
    checks = report.get("checks")
    if not isinstance(checks, list):
        return "no checks list"
    failing = [c.get("name") for c in checks if not c.get("pass")]
    seed = _flag(argv, "--seed")
    if command == "suite":
        names = [c.get("name") for c in checks]
        if names != expected["suite_check_names"]:
            return "suite check names differ from the recorded battery"
        if failing != SUITE_EXPECTED_FAILURES:
            return f"suite failing checks {failing}"
        if (report.get("passed"), report.get("failed")) != (len(checks) - 1, 1):
            return "suite pass/fail counts disagree with the checks"
        if report.get("ok") is not False:
            return "suite reports ok"
    else:
        if failing or report.get("ok") is not True:
            return f"failing checks {failing}"
    if seed is not None and "seed" in report and report["seed"] != int(seed):
        return f"report seed {report['seed']} for --seed {seed}"
    q = _flag(argv, "--q")
    if q is not None and report.get("q") != int(q):
        return f"report q {report.get('q')} for --q {q}"
    if command == "game":
        survivors = report.get("survivors", [])
        if report.get("strategy") != _flag(argv, "--strategy"):
            return "game strategy differs from --strategy"
        if len(survivors) != report.get("rounds_played", -1) + 1:
            return "survivor history length disagrees with rounds_played"
        if any(b > a for a, b in zip(survivors, survivors[1:])):
            return "survivor count grew"
    return None


def problem(argv, returncode: int, stdout: bytes, stderr: bytes, expected: dict):
    """Why this invocation failed, or None when it is correct."""
    if stderr.strip():
        first = stderr.decode("utf-8", "replace").strip().splitlines()[-1]
        return f"stderr: {first[:200]}"
    if returncode != expected_exit(argv):
        return f"exit status {returncode}, expected {expected_exit(argv)}"
    recorded = expected["reports"].get(" ".join(argv))
    if recorded is not None:
        if digest(stdout) != recorded:
            return "report differs from the recorded digest"
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    return _verdict_problem(argv, report, expected)


def record() -> dict:
    """Run every workload invocation for RECORDED_SEEDS untraced and record
    exits and digests."""
    from run import WORKLOADS, child_cmd, child_env, invocations, run_child

    env = child_env()
    out = {"reports": {}, "suite_check_names": None}
    for workload in WORKLOADS:
        for seed in RECORDED_SEEDS:
            for argv in invocations(workload, seed):
                key = " ".join(argv)
                if key in out["reports"]:
                    continue
                result = run_child(child_cmd("plain", argv), env)
                if result.stderr.strip() or result.returncode != expected_exit(argv):
                    raise SystemExit(f"cannot record {key}: exit {result.returncode}")
                if argv[0] == "suite":
                    names = [c["name"] for c in json.loads(result.stdout)["checks"]]
                    if out["suite_check_names"] not in (None, names):
                        raise SystemExit("suite battery differs between seeds")
                    out["suite_check_names"] = names
                out["reports"][key] = digest(result.stdout)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    return out


def main() -> int:
    data = record()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
