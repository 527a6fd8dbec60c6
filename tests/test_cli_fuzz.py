"""Seeded fuzz test of the CLI exit contract: every argv exits 0, 1 or 2.

Argument lists are drawn from per-subcommand pools that mix valid values
with out-of-range numbers, non-prime-power fields, malformed scheme and
v_seq files, missing files, unknown flags and non-numeric text.  Fields stay
at q <= 16 and search budgets, sample counts and --qmax stay small, so each
call is cheap.  argparse rejections raise SystemExit(2), which counts as 2.
A second test feeds seeded mutations of valid scheme and v_seq files to the
commands that read them.
"""

import copy
import json
import random

import pytest

from qmlab.cli import cmd_dispatch, scheme_to_obj
from qmlab.galois import field, mask_elems
from qmlab.pqm import mqm_to_pqm
from qmlab.qm import LeakageScheme
from qmlab.shamir7 import gf7_scheme

CALLS = 200
GOOD_QS = ["2", "3", "4", "5", "7", "8", "9", "11", "13", "16"]
BAD_QS = ["0", "1", "6", "-7", "x", "2000000"]
CHEAP_EXHAUSTIVE_QS = ["2", "3", "4", "5", "7", "11", "13", "16", "6", "0"]
SEARCH_QS = ["3", "5", "7", "8", "9", "16", "6"]

def _files(tmp_path) -> dict:
    scheme = scheme_to_obj(gf7_scheme())
    docs = {
        "scheme": scheme,
        "scheme-short": {**scheme, "sets": scheme["sets"][:2]},
        "scheme-bad-field": {**scheme, "field": {"p": 6, "e": 1}},
        "scheme-bool": {**scheme, "servers": [True, 2]},
        "v": {"field": scheme["field"], "v_seq": [[0, 1, 6], [2, 5], [3, 4]]},
        "v-bare": {"v_seq": [[1], [2, 3]]},
        "v-empty": {"v_seq": []},
        "v-out-of-field": {"v_seq": [[0, 99]]},
        "v-not-list": {"v_seq": 5},
        "list": [1, 2, 3],
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    broken = tmp_path / "broken.json"
    broken.write_text('{"v_seq": [[0, 1]')
    paths["broken"] = str(broken)
    paths["missing"] = str(tmp_path / "missing.json")
    return paths


def _argv(rng: random.Random, files: dict) -> list:
    pick = rng.choice

    def csv():
        return ",".join(str(rng.randint(-1, 9)) for _ in range(rng.randint(0, 5)))

    def field_flags(qs=None):
        if qs is not None:  # a command that is slow on some larger fields
            return ["--q", pick(qs)]
        qs = GOOD_QS if rng.random() < 0.8 else BAD_QS
        roll = rng.random()
        if roll < 0.75:
            return ["--q", pick(qs)]
        if roll < 0.9:
            return ["--p", pick(["2", "3", "7", "4", "-1"]), "--e", pick(["1", "2", "0", "-3"])]
        return pick([[], ["--p", "13"]])

    def some(*flags):
        """Each (flag, values[, chance]) is added with that chance (default
        one half); values None means a bare flag, a callable draws a value."""
        out = []
        for flag, values, *chance in flags:
            if rng.random() < (chance[0] if chance else 0.5):
                if values is None:
                    out.append(flag)
                else:
                    out += [flag, values() if callable(values) else pick(values)]
        return out

    scheme_file = ["scheme", "scheme-short", "scheme-bad-field", "scheme-bool", "list",
                   "broken", "missing", "v"]
    v_file = ["v", "v-bare", "v-out-of-field", "v-not-list", "list", "broken", "missing",
              "scheme"]
    command = pick(
        [
            lambda: ["field", *field_flags()],
            lambda: ["residues", *field_flags()],
            lambda: ["charsum", *field_flags(), *some(("--poly", csv, 0.9))],
            lambda: ["buckets", *field_flags()],
            lambda: ["bound", *field_flags()],
            lambda: ["qm", "verify", "--scheme", files[pick(scheme_file)],
                     *some(("--domain", ["all", "nonzero", "omega", "none"]))],
            lambda: ["qm", "search", *field_flags(SEARCH_QS),
                     "--budget", pick(["-1", "0", "5", "40"]),
                     *some(("--mode", ["qm", "mqm", "appendix"]),
                           ("--tmax", ["-1", "0", "2", "3"]), ("--servers", csv))],
            lambda: ["qm", "convert", "--scheme", files[pick(scheme_file)]],
            lambda: ["pqm", "run", "--v-file", files[pick(v_file)],
                     *some(("--transcript", csv, 0.9), ("--q", GOOD_QS))],
            lambda: ["game", *field_flags(),
                     *some(("--strategy", ["greedy-halving", "random-set", "replay"]),
                           ("--max-rounds", ["-1", "0", "2", "30"]),
                           ("--v-file", lambda: files[pick(v_file)]))],
            lambda: ["linleak", "check", *field_flags(),
                     *some(("--k", ["0", "1", "2", "3", "9"]), ("--i", ["-1", "0", "1", "2"]),
                           ("--j", ["0", "1", "3"]), ("--samples", ["-5", "0", "1", "30"], 0.9))],
            lambda: ["linleak", "check", "--exhaustive", *field_flags(CHEAP_EXHAUSTIVE_QS)],
            lambda: ["gf7", pick(["verify", "table"])],
            lambda: ["gf7", "leak",
                     *some(("--alpha", ["-1", "0", "3", "7"], 0.9), ("--set", csv, 0.9))],
            lambda: ["suite", "--qmax", pick(["-1", "0", "2", "3", "4", "6"])],
        ]
    )()
    junk = [pick(["--bogus", "--q=", "--seed=x"])] if rng.random() < 0.05 else []
    # only game, linleak check and suite take --seed; the junk pool feeds it to the rest
    seed = [("--seed", ["0", "7", "-3"])] if command[0] in ("game", "linleak", "suite") else []
    return command + some(("--json", None), *seed) + junk


def _exit_code(argv) -> int:
    try:
        return cmd_dispatch(argv)
    except SystemExit as exc:  # argparse rejects the argv
        return exc.code


def test_every_argv_exits_0_1_or_2(capsys, tmp_path):
    files = _files(tmp_path)
    rng = random.Random(20261018)
    seen = set()
    for _ in range(CALLS):
        argv = _argv(rng, files)
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if "--p" in argv or "--e" in argv:  # --q is the only field selector
            assert code == 2 and "Traceback" not in err, argv
        seen.add(code)
        if code == 2:
            assert "error: " in err and "Traceback" not in err, argv
        elif "--json" in argv:
            assert json.loads(out)["ok"] is (code == 0), argv
    assert seen == {0, 1, 2}


@pytest.mark.parametrize(
    "argv",
    [["pqm", "run", "--v-file", "v", "--transcript", bits] for bits in ("2", "-1", "0,,1", "0,1")]
    + [["game", "--q", "7", "--strategy", "replay", "--v-file", "v-empty"]],
)
def test_bad_transcripts_and_an_empty_replay_exit_0_1_or_2(capsys, tmp_path, argv):
    # "v" holds three eliminators, so "0,1" is one bit short; "0,,1" has an empty entry
    files = _files(tmp_path)
    argv = [files.get(arg, arg) for arg in argv]
    for flags in ([], ["--json"]):
        code = _exit_code(argv + flags)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1 and out == "", argv
        elif flags:
            assert json.loads(out)["ok"] is (code == 0), argv


def test_an_empty_list_entry_exits_2(capsys, tmp_path):
    # a leading, doubled or trailing comma is named, whatever else is wrong with the list
    files = _files(tmp_path)
    commands = {
        "--poly": ["charsum", "--q", "7"],
        "--servers": ["qm", "search", "--q", "7", "--budget", "40"],
        "--transcript": ["pqm", "run", "--v-file", files["v"]],
    }
    rng = random.Random(20261019)
    for n in range(60):
        flag = rng.choice(sorted(commands))
        entries = [str(rng.randint(-1, 9)) for _ in range(rng.randint(1, 4))]
        empty = (0, len(entries) // 2, len(entries))[n % 3]
        entries.insert(empty, "")
        # one argv word, so a leading -1 is not read as a flag
        argv = commands[flag] + [f"{flag}={','.join(entries)}"] + rng.choice([[], ["--json"]])
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err == f"error: {flag}[{empty}] is empty\n", argv


MUTATIONS = ("drop", "type", "bool", "int", "truncate", "irreducible")


def _paths(doc, out: list) -> list:
    """Every (container, key) slot below doc, depth first."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        items = []
    for key, val in items:
        out.append((doc, key))
        _paths(val, out)
    return out


def _mutate(rng: random.Random, doc: dict, p: int, e: int) -> dict:
    """doc with one seeded mutation: a slot dropped, given another JSON type,
    a bool or an out-of-range int, a list truncated, or the field's reducing
    polynomial replaced by another, possibly reducible or non-monic one."""
    doc = copy.deepcopy(doc)
    kind = rng.choice(MUTATIONS)
    if kind == "irreducible" and isinstance(doc.get("field"), dict):
        poly = [rng.randrange(p) for _ in range(e)] + [rng.choice([1, 1, 0])]
        doc["field"]["irreducible"] = poly
        return doc
    slots = _paths(doc, [])
    if kind == "truncate":
        slots = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k]] or slots
    container, key = rng.choice(slots)
    if kind == "drop":
        del container[key]
    elif kind == "type":
        container[key] = rng.choice(["7", 1.5, None, [], {}, [[]]])
    elif kind == "bool":
        container[key] = rng.choice([True, False])
    elif kind == "int":
        container[key] = rng.choice([-1, p**e, p ** (2 * e), 2**64])
    elif isinstance(container[key], list):
        container[key] = container[key][: rng.randrange(len(container[key]))]
    return doc


def test_mutated_scheme_and_v_files_exit_0_1_or_2(capsys, tmp_path):
    gf8 = field(8)
    gf8_scheme = LeakageScheme(gf8, {1, 4, 7}, (4, 4, 7, 7), (0x8A, 0xF0, 0x2C, 0xA2))
    schemes = [scheme_to_obj(gf7_scheme()), scheme_to_obj(gf8_scheme)]
    v_doc = {"field": gf8.descriptor(), "v_seq": [list(mask_elems(v)) for v in mqm_to_pqm(gf8_scheme)]}
    rng = random.Random(20261019)
    path = tmp_path / "mutated.json"
    seen = set()
    for n in range(160):
        if n % 2 == 0:
            doc = rng.choice(schemes)
            p, e = doc["field"]["p"], doc["field"]["e"]
            argvs = [["qm", "verify", "--scheme", str(path),
                      "--domain", rng.choice(["all", "nonzero", "omega"])],
                     ["qm", "convert", "--scheme", str(path)]]
        else:
            doc, p, e = v_doc, 2, 3
            bits = ",".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            argvs = [["pqm", "run", "--v-file", str(path), "--transcript", bits],
                     ["game", "--q", "8", "--strategy", "replay", "--v-file", str(path)]]
        for _ in range(rng.randint(1, 2)):
            doc = _mutate(rng, doc, p, e)
        path.write_text(json.dumps(doc))
        for argv in argvs:
            code = _exit_code(argv + ["--json"])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), (argv, doc)
            assert "Traceback" not in err, (argv, doc)
            if code == 2:
                assert err.startswith("error: ") and out == "", (argv, doc)
            else:
                assert json.loads(out)["ok"] is (code == 0), (argv, doc)
            seen.add(code)
    assert seen == {0, 1, 2}
