import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qmlab
from qmlab import cli, rscode
from qmlab.cli import canonical_json, cmd_dispatch, read_scheme, scheme_from_obj, scheme_to_obj
from qmlab.errors import SchemaError
from qmlab.galois import field, mask_elems
from qmlab.pqm import BoundReport, mqm_to_pqm, run_pqm
from qmlab.qm import LeakageScheme, transcript
from qmlab.shamir7 import gf7_scheme


def run_cli(capsys, argv):
    code = cmd_dispatch(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_canonical_json_normalization():
    blob = {"b": float("inf"), "a": 0.1234567, "s": frozenset({3, 1}), "t": (1, 2)}
    assert canonical_json(blob) == '{"a":0.123457,"b":null,"s":[1,3],"t":[1,2]}'
    for bad in (object(), {"a": [1, object()]}, (1, {2}, b"bytes")):
        with pytest.raises(TypeError):
            canonical_json(bad)
    # lists mixing ints with other values are rendered element by element
    mixed = {"m": [1, True, 0.5, "x"], "n": [(2, "a"), [float("nan")], {5, 4}]}
    assert canonical_json(mixed) == '{"m":[1,true,0.5,"x"],"n":[[2,"a"],[null],[4,5]]}'
    assert canonical_json({True: 1, 2: True}) == '{"2":true,"True":1}'
    # 0.1234565 is stored just below the half, so round() goes down
    assert canonical_json([-0.0, 1e-7, 0.1234565, 1e22]) == "[-0.0,0.0,0.123456,1e+22]"
    assert canonical_json("\u00e9\n") == '"\\u00e9\\n"'


def _plain(obj, flat: dict):
    """The reference: rewrite a payload into values json.dumps encodes
    canonically.  `flat` maps the id of each list or tuple of plain ints and
    strings met so far to its copy."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, float):
        return round(obj, 6) if math.isfinite(obj) else None
    if isinstance(obj, int):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v, flat) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [_plain(v, flat) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        copy = flat.get(id(obj))
        if copy is not None:
            return copy
        if all(type(v) is int or type(v) is str for v in obj):
            copy = flat[id(obj)] = list(obj)
            return copy
        return [_plain(v, flat) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _stdlib_json(obj) -> str:
    return json.dumps(_plain(obj, {}), sort_keys=True, separators=(",", ":"))


_SHARED = (4, 5, 6)
_EDGE_PAYLOADS = [
    {"neg0": -0.0, "tiny": 1e-7, "half": 0.1234565, "big": 1e22, "nan": float("nan"),
     "inf": float("inf"), "-inf": float("-inf"), "floats": (2.5e-7, -1e300, 3.0)},
    {"t": (True, 1, False), "bools": [True, False], "lone": (False,), True: "T", False: 0},
    {3: "three", 10: "ten", -1: "minus", 2**70: 2**70, "3": "later key wins", "i": [-5, 10**30]},
    {"caf\u00e9 \"q\" \\ \x00\x1f\n\u2028 \U0001d11e": "na\u00efve \"q\" \\ \t\x7f\u00ff \U0001f600",
     "list": ["\u00e9", "\x01", "plain"]},
    {"s": {frozenset({3, 1})}, "l": [{2, 1}, {(2, "b"), (1, "a")}], "e": [set(), frozenset()]},
    {"a": _SHARED, "b": [_SHARED, {"c": _SHARED}], "d": (_SHARED, _SHARED), "e": [_SHARED, 1]},
    {"m": [1, "x", True, 2], "n": (1, True), "o": [1, 2.5], "p": [], "q": (), "r": [None, 1]},
    [[1, 2], (3, "4"), [[5], [True]], "top", None, 0.5],
]


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS)
def test_canonical_json_matches_the_stdlib_encoder(payload):
    assert canonical_json(payload) == _stdlib_json(payload)


@pytest.mark.parametrize(
    "argv",
    [["buckets", "--q", str(q)] for q in (3, 4, 9, 16)]
    + [
        ["gf7", "table"],
        ["suite", "--qmax", "16"],
        ["bound", "--q", "2"],
        ["qm", "search", "--q", "5"],
        ["game", "--q", "7"],
        ["linleak", "check", "--q", "8"],
    ],
)
def test_reports_render_as_the_stdlib_encoder(capsys, monkeypatch, argv):
    rendered = []

    def recording(obj):
        rendered.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", recording)
    _, out = run_cli(capsys, argv + ["--json"])
    # the report is rendered last; suite's scheme round-trip row renders too
    assert out == _stdlib_json(rendered[-1]) + "\n"


# the modules qmlab.cli imports only inside the functions that call them
_DEFERRED = ("json", "qmlab.charsum", "qmlab.linleak", "qmlab.pqm", "qmlab.shamir7")


def _fresh_output(code: str) -> str:
    """What `code` prints in a fresh interpreter; pytest itself has imported
    dataclasses, json and every qmlab module, so sys.modules is compared there."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def _deferred_loaded_by(argv) -> list:
    """The _DEFERRED modules cmd_dispatch(argv) adds to sys.modules, after an
    import of qmlab.cli in a fresh interpreter."""
    code = (
        "import contextlib, io, sys\n"
        "from qmlab.cli import cmd_dispatch\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cmd_dispatch({argv!r})\n"
        f"print(' '.join(sorted(set(sys.modules) - before & set({_DEFERRED!r}))))\n"
    )
    return _fresh_output(code).split()


def test_cli_import_leaves_out_dataclasses():
    code = (
        "import sys; before = set(sys.modules); import qmlab; package = set(sys.modules); "
        "import qmlab.cli; added = set(sys.modules) - package; "
        "print(' '.join(sorted(m for m in added if m.startswith('qmlab'))), "
        "'json' in added, 'dataclasses' in set(sys.modules) - before)"
    )
    assert _fresh_output(code) == "qmlab.cli False False\n"
    # a command loads the one deferred module it runs
    assert _deferred_loaded_by(["game", "--q", "7", "--json"]) == ["qmlab.pqm"]
    assert _deferred_loaded_by(["buckets", "--q", "7"]) == []
    # the suite loads its rows' modules before the worker forks
    code = (
        "import contextlib, io, sys\n"
        "from qmlab import cli\n"
        "run, seen = cli._run_beside, []\n"
        "def spy(*args):\n"
        f"    seen.extend(m for m in {_DEFERRED!r} if m in sys.modules)\n"
        "    return run(*args)\n"
        "cli._run_beside = spy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.cmd_dispatch(['suite', '--qmax', '8'])\n"
        "print(' '.join(seen))\n"
    )
    assert set(_DEFERRED[1:]) <= set(_fresh_output(code).split())
    # the escaper json.dumps uses, bound without importing json
    assert cli._escape is json.encoder.encode_basestring_ascii


def test_qmlab_is_imported_from_this_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(qmlab.__file__).resolve().is_relative_to(src)


def test_closed_stdout_prints_nothing_and_keeps_the_verdict():
    # the reader stops after 10 bytes of a report far larger than a pipe buffer
    argv = [sys.executable, "-m", "qmlab", "buckets", "--q", "243"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_main_freezes_the_heap_once_after_dispatch(monkeypatch):
    events = []

    def dispatch(argv=None):
        events.append("dispatch")
        return 1

    monkeypatch.setattr(cli, "cmd_dispatch", dispatch)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as err:
        cli.main()
    assert err.value.code == 1
    assert events == ["dispatch", "freeze"]


def test_in_process_dispatch_never_freezes_the_heap(capsys, monkeypatch):
    # tests and the traced benchmark child call cmd_dispatch in-process, where
    # a freeze would stop the collector for the rest of the process
    frozen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    assert run_cli(capsys, ["field", "--q", "7", "--json"])[0] == 0
    assert frozen == []


@pytest.mark.parametrize(
    "argv",
    [
        ["buckets", "--q", "81", "--json"],
        ["game", "--q", "243", "--strategy", "greedy-halving", "--seed", "0", "--json"],
    ],
    ids=["buckets-81", "game-243"],
)
def test_a_fresh_process_loses_nothing_at_exit(capsys, argv):
    # the heap is frozen before exit; every byte must still reach stdout
    code, out = run_cli(capsys, argv)
    done = subprocess.run([sys.executable, "-m", "qmlab", *argv], capture_output=True, timeout=60)
    assert (code, done.returncode, done.stderr) == (0, 0, b"")
    assert done.stdout == out.encode()


def test_a_fresh_process_keeps_the_exit_codes(capsys):
    assert _qmlab("suite", "--qmax", "9", "--json").returncode == 1
    assert cmd_dispatch(["game", "--q", "6"]) == 2
    want = capsys.readouterr().err
    done = _qmlab("game", "--q", "6")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", want)
    assert want.startswith("error: ") and want.count("\n") == 1


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        cmd_dispatch(["no-such-command"])
    assert err.value.code == 2
    assert cmd_dispatch(["field", "--q", "6"]) == 2
    assert "not a prime power" in capsys.readouterr().err


def _parse(capsys, parser, argv):
    """(exit code, namespace, stdout, stderr) of parsing argv; the code is
    None and the namespace a dict when the parse succeeds."""
    try:
        code, ns = None, vars(parser.parse_args(argv))
    except SystemExit as exc:
        code, ns = exc.code, None
    captured = capsys.readouterr()
    return code, ns, captured.out, captured.err


@pytest.mark.parametrize("path", list(cli._COMMANDS), ids=" ".join)
def test_a_named_command_parses_as_in_the_full_tree(capsys, path):
    # help, a missing required flag, an unknown flag and a bare parse read the
    # same from the command's own path as from the tree of every command
    for argv in ([*path, "--help"], [*path], [*path, "--bogus"], [*path, "--json", "--q", "7"]):
        selective = _parse(capsys, cli._build_parser(argv), argv)
        assert selective == _parse(capsys, cli._build_parser(), argv), argv
    assert _parse(capsys, cli._build_parser(), [*path, "--help"])[0] == 0
    code, _, out, err = _parse(capsys, cli._build_parser(), [*path])
    if code is not None:  # the command has a required flag, and misses it
        assert (code, out) == (2, "") and "the following arguments are required: --" in err


_TOP = [path[0] for path in cli._COMMANDS]
_QM = [path[1] for path in cli._COMMANDS if path[0] == "qm"]


@pytest.mark.parametrize(
    "argv, code, listed",
    [
        ([], 2, ["required: command"]),
        (["--help"], 0, _TOP),
        (["-h", "game"], 0, _TOP),
        (["bogus"], 2, ["invalid choice: 'bogus'", *_TOP]),
        (["qm"], 2, ["required: action"]),
        (["qm", "--help"], 0, _QM),
        (["qm", "bogus"], 2, ["invalid choice: 'bogus'", *_QM]),
    ],
)
def test_argv_naming_no_command_gets_the_full_tree(capsys, argv, code, listed):
    with pytest.raises(SystemExit) as exc:
        cmd_dispatch(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, None, captured.out, captured.err) == _parse(
        capsys, cli._build_parser(), argv
    )
    assert exc.value.code == code
    assert all(word in captured.out + captured.err for word in listed)


def test_dispatch_builds_only_the_named_commands_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser()
    assert len(built) == 1 + len(cli._GROUPS) + len(cli._COMMANDS) == 20
    built.clear()
    assert cmd_dispatch(["game", "--q", "7", "--json"]) == 0
    assert built == ["qmlab", "qmlab game"]
    built.clear()
    assert cmd_dispatch(["qm", "search", "--q", "7", "--servers", "1,2,4", "--json"]) == 0
    assert built == ["qmlab", "qmlab qm", "qmlab qm search"]


def test_dispatch_runs_the_handler_the_module_holds(capsys, monkeypatch):
    # a wrapper set on the module after import (as a profiler or tracer sets
    # one) is the handler that runs
    original, seen = cli.cmd_game, []

    def wrapper(args):
        seen.append(args.q)
        return original(args)

    monkeypatch.setattr(cli, "cmd_game", wrapper)
    assert run_cli(capsys, ["game", "--q", "7", "--json"])[0] == 0
    assert seen == [7]


def test_field_rejects_oversized_before_factoring():
    # trial division of this prime would not finish; the size check must come first
    argv = [sys.executable, "-m", "qmlab", "field", "--q", "1000000000000000003"]
    start = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "exceeds the supported limit" in done.stderr


def test_exit_codes_pass_and_fail(capsys):
    assert run_cli(capsys, ["residues", "--q", "7"])[0] == 0
    code, report = run_json(capsys, ["residues", "--q", "5"])
    assert code == 1
    (check,) = report["checks"]
    assert check["name"] == "scaled-pair-exists" and not check["pass"]
    assert check["counterexample"]["b11_star"] == [2, 3]


FIELD_COMMANDS = [
    ["field"],
    ["residues"],
    ["charsum", "--poly", "0,1,0,1"],
    ["buckets"],
    ["qm", "search"],
    ["game"],
    ["bound"],
    ["linleak", "check"],
]


def test_field_selection_forms(capsys):
    # --q is the one field selector: every field command requires it, and
    # --p / --e, whole or as bare flags, are usage errors rather than a second
    # field or a prefix of another flag (--poly, --exhaustive)
    code, report = run_json(capsys, ["field", "--q", "9"])
    assert code == 0 and (report["field"]["p"], report["field"]["e"]) == (3, 2)
    for command in FIELD_COMMANDS:
        for extra in ([], ["--q", "7", "--p", "3"], ["--q", "9", "--e", "3"],
                      ["--p", "3", "--e", "0"], ["--q", "4", "--p"], ["--q", "4", "--e"]):
            with pytest.raises(SystemExit) as err:
                cmd_dispatch(command + extra)
            assert err.value.code == 2, command + extra
            want = "required: --q" if "--q" not in extra else "unrecognized arguments: --"
            assert want in capsys.readouterr().err, command + extra


def test_residues_report_values(capsys):
    _, report = run_json(capsys, ["residues", "--q", "7"])
    assert report["omega"] == [1, 2, 4]
    assert report["expected_union"] == 4
    assert set(report["union_sizes"].values()) == {4}
    assert report["ok"]


def test_charsum_weil_and_square_factor_gate(capsys):
    code, report = run_json(capsys, ["charsum", "--q", "7", "--poly", "0,1,0,1"])
    assert code == 0 and report["within_bound"] and report["square_free"]
    # x**2 pushes the sum to q - 1, but the bound only binds square-free inputs
    code, report = run_json(capsys, ["charsum", "--q", "7", "--poly", "0,0,1"])
    assert code == 0 and not report["square_free"] and not report["within_bound"]
    assert report["value"] == 6
    (check,) = report["checks"]
    assert check["pass"] and check["note"] == "not square-free: Weil's bound does not apply"
    _, report = run_json(capsys, ["charsum", "--q", "7", "--poly", "0,1,0,1"])
    assert "note" not in report["checks"][0]


# {gf7}: the GF(7) scheme file, {mqm}: a GF(7) scheme inside the restricted
# set, {v}: that scheme's eliminators with the field descriptor
_FIELD_REPORTS = [
    (["field", "--q", "9"], 9),
    (["residues", "--q", "7"], 7),
    (["residues", "--q", "5"], 5),  # no scaled pair: the early return
    (["charsum", "--q", "9", "--poly", "0,1,0,1"], 9),
    (["buckets", "--q", "8"], 8),
    (["qm", "search", "--q", "5"], 5),
    (["qm", "search", "--q", "7", "--tmax", "1"], 7),  # not found
    (["qm", "verify", "--scheme", "{gf7}"], 7),
    (["qm", "convert", "--scheme", "{mqm}"], 7),
    (["pqm", "run", "--v-file", "{v}", "--transcript", "0,1,0"], 7),
    (["game", "--q", "9"], 9),
    (["bound", "--q", "16"], 16),
    (["linleak", "check", "--q", "4", "--samples", "3"], 4),
    (["gf7", "verify"], 7),
    (["gf7", "table"], 7),
]


@pytest.mark.parametrize(
    "argv, q",
    _FIELD_REPORTS,
    ids=[
        "-".join([w for w in a[:2] if not w.startswith("-")] + [str(q)])
        for a, q in _FIELD_REPORTS
    ],
)
def test_a_field_report_names_its_field(capsys, tmp_path, argv, q):
    mqm = LeakageScheme(field(7), {1, 2, 4}, (1, 2, 4), (0x3C, 0x18, 0x24))
    files = {"gf7": scheme_to_obj(gf7_scheme()), "mqm": scheme_to_obj(mqm)}
    v_seq = [mask_elems(v) for v in mqm_to_pqm(mqm)]
    files["v"] = {"field": field(7).descriptor(), "v_seq": v_seq}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in argv]
    code, report = run_json(capsys, argv)
    assert code in (0, 1)
    assert (report["field"], report["q"]) == (field(q).descriptor(), q)


@pytest.mark.parametrize(
    "argv", [["gf7", "leak", "--alpha", "1", "--set", "0,1,6"], ["suite", "--qmax", "5"]]
)
def test_a_report_about_no_one_field_has_no_field_key(capsys, argv):
    assert "field" not in run_json(capsys, argv)[1]


def test_charsum_rejects_out_of_field_coefficients(capsys):
    for q, poly, entry in (("7", "0,9,0,1", "--poly[1] = 9"), ("9", "0,-1,0,1", "--poly[1] = -1")):
        assert cmd_dispatch(["charsum", "--q", q, "--poly", poly]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["charsum", "--q", "7", "--poly", "0,,1"], "--poly[1]"),
        (["charsum", "--q", "7", "--poly", "0,1,"], "--poly[2]"),
        (["charsum", "--q", "7", "--poly", ",0,1"], "--poly[0]"),
        (["qm", "search", "--q", "7", "--servers", "1,,2"], "--servers[1]"),
        (["pqm", "run", "--q", "7", "--v-file", "v.json", "--transcript", "0,,1"],
         "--transcript[1]"),
        (["gf7", "leak", "--alpha", "1", "--set", "0,1,6,"], "--set[3]"),
    ],
)
def test_an_empty_list_entry_is_named_not_dropped(capsys, argv, entry):
    # read as 0,1 the polynomial would be x, not x**2, and the server set {1, 2}
    assert cmd_dispatch(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {entry} is empty\n"


def test_buckets_text_grid(capsys):
    code, out = run_cli(capsys, ["buckets", "--q", "3"])
    assert code == 0
    assert "evaluation point (rows) by coefficient product (columns)" in out
    assert "{0,1,2}" in out


def test_bound_values(capsys):
    _, report = run_json(capsys, ["bound", "--q", "5"])
    assert report["real_bound"] == 1.0 and report["integer_round_bound"] == 2
    _, report = run_json(capsys, ["bound", "--q", "4"])
    assert report["real_bound"] == -2.0 and report["integer_round_bound"] == -1
    _, report = run_json(capsys, ["bound", "--q", "2"])
    assert report["real_bound"] is None  # -inf has no canonical JSON number
    code, text = run_cli(capsys, ["bound", "--q", "2"])
    assert code == 0 and "real_bound = -inf" in text


def test_gf7_commands(capsys):
    code, report = run_json(capsys, ["gf7", "verify"])
    assert code == 0 and report["bits"] == 5 and report["naive_bits"] == 6
    code, report = run_json(capsys, ["gf7", "leak", "--alpha", "1", "--set", "0,1,6"])
    assert code == 0
    assert report["eliminated"] == {"0": [4], "1": [5]}
    code, report = run_json(capsys, ["gf7", "table"])
    assert code == 0
    assert report["table"]["4"]["1"] == [2, 3, 4, 5]
    code, text = run_cli(capsys, ["gf7", "table"])
    assert code == 0 and "{2,3,4,5}" in text


@pytest.mark.parametrize("argv", [["buckets", "--q", "7"], ["gf7", "table"]])
def test_image_grid_is_built_only_in_text_mode(capsys, monkeypatch, argv):
    usual = run_cli(capsys, argv + ["--json"])

    def boom(*_args):
        raise AssertionError("the text grid was built for a JSON report")

    monkeypatch.setattr(cli, "_grid_lines", boom)
    assert run_cli(capsys, argv + ["--json"]) == usual
    assert usual[0] == 0 and json.loads(usual[1])["table"]["1"]["4"] == [2, 3, 4, 5]
    monkeypatch.undo()
    code, text = run_cli(capsys, argv)
    assert code == 0 and "evaluation point (rows) by coefficient product (columns)" in text
    assert "{2,3,4,5}" in text


def _grid_lines_per_cell(ctx, cells):
    """The reference text grid, each of the q^2 cells formatted on its own."""
    text = {key: "{" + ",".join(str(x) for x in val) + "}" for key, val in cells.items()}
    labels = [str(g) for g in ctx.elements]
    width = max(max(len(v) for v in text.values()), max(len(l) for l in labels))
    lines = ["evaluation point (rows) by coefficient product (columns)"]
    lines.append("     " + " ".join(l.rjust(width) for l in labels))
    for a in ctx.elements:
        row = " ".join(text[(a, g)].rjust(width) for g in ctx.elements)
        lines.append(f"{a:>4} " + row)
    return lines


@pytest.mark.parametrize(
    "argv", [["buckets", "--q", str(q)] for q in (9, 16, 27)] + [["gf7", "table"]]
)
def test_image_grid_text_matches_per_cell_formatting(capsys, monkeypatch, argv):
    code, out = run_cli(capsys, argv)
    monkeypatch.setattr(cli, "_grid_lines", _grid_lines_per_cell)
    reference = run_cli(capsys, argv)
    # byte-identical but for the wall-time line
    assert (code, out.splitlines()[:-1]) == (reference[0], reference[1].splitlines()[:-1])
    assert out.splitlines()[-1].startswith("wall time")


@pytest.mark.parametrize(
    "argv", [["buckets", "--q", str(q)] for q in (3, 4, 9, 16, 25, 27, 32)] + [["gf7", "table"]]
)
def test_image_reports_match_direct_enumeration(capsys, monkeypatch, argv):
    usual = run_cli(capsys, argv + ["--json"])
    monkeypatch.setattr(cli, "bucket_eval", rscode._enumerated_image)
    assert run_cli(capsys, argv + ["--json"]) == usual
    assert usual[0] == 0


def test_buckets_keeps_the_field_size_cap(capsys):
    assert cmd_dispatch(["buckets", "--q", "2048", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bucket enumeration capped at q <= 1024\n"


def test_scheme_roundtrip_bytes(tmp_path):
    obj = scheme_to_obj(gf7_scheme())
    path = tmp_path / "scheme.json"
    path.write_text(canonical_json(obj))
    again = scheme_to_obj(read_scheme(str(path)))
    assert canonical_json(again) == canonical_json(obj)


def test_scheme_roundtrip_keeps_value_and_hash():
    scheme = gf7_scheme()
    obj = scheme_to_obj(scheme)
    again = scheme_from_obj(json.loads(canonical_json(obj)))
    assert again is not scheme and again == scheme and hash(again) == hash(scheme)
    assert len({scheme, again}) == 1
    other = scheme_from_obj({**obj, "sets": ["7f"] + obj["sets"][1:]})
    assert other != scheme and scheme != obj


def test_scheme_schema_errors(tmp_path):
    good = scheme_to_obj(gf7_scheme())

    def broken(**patch):
        obj = dict(good)
        obj.update(patch)
        return obj

    with pytest.raises(SchemaError, match="missing field 'k'"):
        scheme_from_obj({k: v for k, v in good.items() if k != "k"})
    with pytest.raises(SchemaError, match="wrong type"):
        scheme_from_obj(broken(k="two"))
    with pytest.raises(SchemaError, match="sets\\[0\\]"):
        scheme_from_obj(broken(sets=["ffff"] + good["sets"][1:]))
    with pytest.raises(SchemaError, match="irreducible"):
        scheme_from_obj(broken(field={"p": 2, "e": 3}))
    with pytest.raises(SchemaError, match="hex mask string"):
        scheme_from_obj(broken(sets=[60] + good["sets"][1:]))
    with pytest.raises(SchemaError, match="wrong type"):
        scheme_from_obj(broken(k=True))
    for coeffs, idx in (([0, True], 1), (["0", 1], 0), ([0, 8], 1)):
        with pytest.raises(SchemaError, match=f"irreducible\\[{idx}\\]"):
            scheme_from_obj(broken(field={"p": 7, "e": 1, "irreducible": coeffs}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"p": 7, "e": 1}\n  "k": 2}')
    with pytest.raises(SchemaError, match=r"bad\.json:2:3"):
        read_scheme(str(bad))


def test_scheme_file_of_another_shape_exits_2_naming_it(capsys, tmp_path):
    good = scheme_to_obj(gf7_scheme())
    path = tmp_path / "s.json"
    for k, i, j in ((3, 0, 1), (2, 0, 2)):
        path.write_text(json.dumps({**good, "k": k, "i": i, "j": j}))
        assert cmd_dispatch(["qm", "verify", "--scheme", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}: need dimension k = 2 with targets {{0, 1}}\n"
    # the targets in the other order are accepted and echoed back as (0, 1)
    path.write_text(json.dumps({**good, "i": 1, "j": 0}))
    code, report = run_json(capsys, ["qm", "verify", "--scheme", str(path)])
    assert code == 0 and (report["scheme"]["i"], report["scheme"]["j"]) == (0, 1)


def test_schema_error_exits_2(capsys, tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text("{not json")
    assert cmd_dispatch(["qm", "verify", "--scheme", str(path)]) == 2
    assert "scheme.json:1:2" in capsys.readouterr().err


def test_qm_verify_failure_has_counterexample(capsys, tmp_path):
    obj = scheme_to_obj(gf7_scheme())
    obj["sets"] = ["01"] * 5  # every leak set {0}: no line separation at all
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(obj))
    code, report = run_json(capsys, ["qm", "verify", "--scheme", str(path), "--domain", "nonzero"])
    assert code == 1
    (check,) = report["checks"]
    wit = check["counterexample"]
    assert wit["products"][0] != wit["products"][1]
    ctx = field(7)
    a, b = wit["message_a"], wit["message_b"]
    assert ctx.mul(a[0], a[1]) == wit["products"][0]
    assert ctx.mul(b[0], b[1]) == wit["products"][1]


@pytest.mark.parametrize("domain", ["all", "nonzero", "omega"])
def test_qm_verify_above_the_bucket_cap_exits_2(capsys, tmp_path, domain):
    # the messages come from rscode.bucket, so a field past its cap is refused
    # before any of the q^2 messages is built
    ctx = field(1031)
    obj = {"field": ctx.descriptor(), "k": 2, "i": 0, "j": 1,
           "servers": [1], "schedule": [1], "sets": ["1"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    assert cmd_dispatch(["qm", "verify", "--scheme", str(path), "--domain", domain]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bucket enumeration capped at q <= 1024\n"


def test_search_verify_convert_run_pipeline(capsys, tmp_path):
    code, report = run_json(
        capsys, ["qm", "search", "--q", "7", "--mode", "mqm", "--servers", "1,2,4"]
    )
    assert code == 0 and report["t"] == 3
    path = tmp_path / "found.json"
    path.write_text(json.dumps(report["scheme"]))
    code, verify = run_json(capsys, ["qm", "verify", "--scheme", str(path), "--domain", "omega"])
    assert code == 0 and verify["ok"]

    code, conv = run_json(capsys, ["qm", "convert", "--scheme", str(path)])
    assert code == 0 and len(conv["v_seq"]) == 3
    vpath = tmp_path / "v.json"
    vpath.write_text(json.dumps({"field": conv["field"], "v_seq": conv["v_seq"]}))

    scheme = read_scheme(str(path))
    bits = transcript(scheme, (1, 1))
    ctx = scheme.ctx
    outcome, _state = run_pqm(ctx, mqm_to_pqm(scheme), bits)
    code, report = run_json(
        capsys,
        ["pqm", "run", "--v-file", str(vpath), "--transcript", ",".join(map(str, bits))],
    )
    assert report["outcome"] == outcome
    assert code == (0 if outcome == "success" else 1)
    assert report["survivors"][0] == 12


def test_pqm_run_rejects_malformed_v_file(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"v_seq": [[0, 1], [99]]}))
    assert cmd_dispatch(["pqm", "run", "--v-file", str(path), "--transcript", "0,1", "--q", "7"]) == 2
    assert "v_seq[1]" in capsys.readouterr().err
    for doc in ({}, [[0, 1], [2]]):  # no v_seq key, and no object at all
        path.write_text(json.dumps(doc))
        argv = ["pqm", "run", "--v-file", str(path), "--transcript", "0,1", "--q", "7"]
        assert cmd_dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {path}: missing field 'v_seq'\n"


def test_pqm_run_rejects_json_booleans(capsys, tmp_path):
    # true/false load as bool, a subclass of int, but are not field elements
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"v_seq": [[1, 0], [True, False]]}))
    assert cmd_dispatch(["pqm", "run", "--v-file", str(path), "--transcript", "1", "--q", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "v_seq[1]" in err and err.count("\n") == 1


def test_pqm_run_rejects_a_q_that_contradicts_the_descriptor(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"field": field(7).descriptor(), "v_seq": [[1, 2]]}))
    argv = ["pqm", "run", "--v-file", str(path), "--transcript", "0", "--json"]
    assert cmd_dispatch([*argv, "--q", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: field descriptor differs from the selected field\n"
    # a matching --q, or none, replays over the file's field
    assert run_cli(capsys, [*argv, "--q", "7"]) == run_cli(capsys, argv)
    # a file without a descriptor takes its field from --q
    path.write_text(json.dumps({"v_seq": [[1, 2]]}))
    code, out = run_cli(capsys, [*argv, "--q", "9"])
    assert code == 1 and json.loads(out)["q"] == 9
    assert cmd_dispatch([*argv, "--q", "0"]) == 2
    assert capsys.readouterr() == ("", "error: q=0 is not a prime power\n")


@pytest.mark.parametrize(
    "argv", [["qm", "verify", "--scheme"], ["pqm", "run", "--transcript", "0", "--v-file"]]
)
def test_an_undecodable_input_file_is_named(capsys, tmp_path, argv):
    path = tmp_path / "bin.json"
    # the second file's bad byte lies beyond the first 8 KiB a reader buffers
    for data, byte, at in ((b"\xff\xfe", "0xff", 0), (b"{" + b" " * 9000 + b"\xc3(", "0xc3", 9001)):
        path.write_bytes(data)
        assert cmd_dispatch([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text (byte {byte} at offset {at})\n"


def test_fields_without_a_square_root_system_are_refused_first(capsys, tmp_path):
    # the refusal comes before any query is translated or any bit is replayed
    gf5 = field(5).descriptor()
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"field": gf5, "k": 2, "i": 0, "j": 1, "servers": [1, 4],
                                  "schedule": [], "sets": []}))
    v_file = tmp_path / "v.json"
    v_file.write_text(json.dumps({"field": gf5, "v_seq": []}))
    for argv in (["qm", "convert", "--scheme", str(scheme)],
                 ["pqm", "run", "--v-file", str(v_file), "--transcript", ""],
                 ["pqm", "run", "--v-file", str(v_file), "--transcript", "0,1"]):
        assert cmd_dispatch(argv) == 2
        assert capsys.readouterr().err == "error: no square-root system over GF(5)\n"


def test_scheme_rejects_json_booleans(capsys, tmp_path):
    path = tmp_path / "scheme.json"
    for key in ("servers", "schedule"):
        obj = scheme_to_obj(gf7_scheme())
        obj[key] = [True] + obj[key][1:]
        path.write_text(json.dumps(obj))
        assert cmd_dispatch(["qm", "verify", "--scheme", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}[0]" in err and err.count("\n") == 1


def test_scheme_errors_name_the_entry_and_its_value(capsys, tmp_path):
    path = tmp_path / "scheme.json"
    for key, idx, value, reason in (
        ("servers", 3, 99, "99 is not an element of GF(7)"),
        ("servers", 0, -1, "-1 is not an element of GF(7)"),
        ("schedule", 2, 6, "6 is not a server"),
    ):
        obj = scheme_to_obj(gf7_scheme())
        obj[key][idx] = value
        path.write_text(json.dumps(obj))
        assert cmd_dispatch(["qm", "verify", "--scheme", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.{key}[{idx}]: {reason}\n"


@pytest.mark.parametrize(
    "text", ["0x25", "0X25", " 25 ", " +43\n", "2_5", "+25", "-0", "\u0663", "2\u0665", ""]
)
def test_scheme_sets_accept_only_hex_digits(capsys, tmp_path, text):
    # int(text, 16) would take prefixes, signs, underscores, whitespace and
    # non-ASCII digits; a mask is ASCII hex digits and nothing else
    path = tmp_path / "scheme.json"
    obj = scheme_to_obj(gf7_scheme())
    obj["sets"][1] = text
    path.write_text(json.dumps(obj))
    assert cmd_dispatch(["qm", "verify", "--scheme", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}.sets[1]: mask {text!r} is not a string of hex digits\n"


def test_game_rejects_malformed_v_file(capsys, tmp_path):
    path = tmp_path / "v.json"
    for doc, where in (({"v_seq": [5]}, "v_seq[0]"), ({"v_seq": [[0], [7]]}, "v_seq[1]")):
        path.write_text(json.dumps(doc))
        argv = ["game", "--q", "7", "--strategy", "replay", "--v-file", str(path)]
        assert cmd_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err and err.count("\n") == 1
    path.write_text(json.dumps({"field": field(11).descriptor(), "v_seq": [[1]]}))
    assert cmd_dispatch(["game", "--q", "7", "--strategy", "replay", "--v-file", str(path)]) == 2
    assert "differs from the selected field" in capsys.readouterr().err
    path.write_text(json.dumps({"field": field(7).descriptor(), "v_seq": [[0, 1, 2], [3]]}))
    argv = ["game", "--q", "7", "--strategy", "replay", "--v-file", str(path), "--json"]
    code, out = run_cli(capsys, argv)
    assert code in (0, 1) and json.loads(out)["rounds_played"] <= 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--max-rounds", "-3"], "--max-rounds"),
        (["--strategy", "replay"], "--v-file"),
        (["--max-rounds", "0"], "--max-rounds must be at least 1, got 0"),
    ],
)
def test_game_rejects_flags_that_would_play_no_rounds(capsys, argv, flag):
    assert cmd_dispatch(["game", "--q", "7", *argv, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and flag in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "strategy", [[], ["--strategy", "greedy-halving"], ["--strategy", "random-set"]]
)
def test_game_rejects_v_file_without_replay(capsys, tmp_path, strategy):
    # the file is valid: a game would play, and ignore it, were it not refused
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"field": field(7).descriptor(), "v_seq": [[0, 1, 2], [3]]}))
    assert cmd_dispatch(["game", "--q", "7", *strategy, "--v-file", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --v-file needs --strategy replay\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_linleak_check_rejects_fewer_than_one_sample(capsys, samples):
    assert cmd_dispatch(["linleak", "check", "--q", "8", "--samples", samples, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("qmax", ["-1", "0", "2"])
def test_suite_rejects_qmax_below_three(capsys, qmax):
    assert cmd_dispatch(["suite", "--qmax", qmax, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --qmax must be at least 3, got {qmax}\n"
    code, report = run_json(capsys, ["suite", "--qmax", "3"])
    assert code == 0 and len(report["checks"]) == report["passed"] > 0


@pytest.mark.parametrize("qmax", ["1048577", "99999999999"])
def test_suite_rejects_qmax_above_the_field_limit(capsys, monkeypatch, qmax):
    # rejected before any row is built: beyond galois.MAX_Q `field` refuses every q
    monkeypatch.setattr(cli, "_field_rows", None)
    assert cmd_dispatch(["suite", "--qmax", qmax, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --qmax must be at most 1048576, got {qmax}\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("json_flag", [["--json"], []])
def test_a_failed_report_write_exits_2_with_one_error_line(json_flag):
    argv = [sys.executable, "-m", "qmlab", "suite", "--qmax", "3", *json_flag]
    with open("/dev/full", "w") as full:
        done = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: cannot write the report: [Errno 28] No space left on device\n"


def _qmlab(*argv):
    argv = [sys.executable, "-m", "qmlab", *argv]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "q, mode, server, a, b",
    [(8, "appendix", 0, [1, 1], [1, 2]), (7, "qm", 3, [0, 0], [1, 2])],
)
def test_qm_search_names_a_pair_no_bandwidth_separates(q, mode, server, a, b):
    done = _qmlab("qm", "search", "--q", str(q), "--mode", mode, "--servers", str(server),
                  "--json")
    assert (done.returncode, done.stderr) == (1, "")
    report = json.loads(done.stdout)
    (check,) = report["checks"]
    assert report["found"] is False and not check["pass"]
    assert check["note"] == "no scheme at any bandwidth: two messages agree at every server"
    ctx = field(q)
    products = [ctx.mul(*a), ctx.mul(*b)]
    assert check["counterexample"] == {"message_a": a, "message_b": b, "products": products}
    assert products[0] != products[1]
    assert ctx.poly_eval(tuple(a), server) == ctx.poly_eval(tuple(b), server)


def test_qm_search_blames_tmax_only_when_the_bits_ran_out():
    done = _qmlab("qm", "search", "--q", "7", "--mode", "mqm", "--servers", "1,2,4",
                  "--tmax", "2", "--json")
    assert (done.returncode, done.stderr) == (1, "")
    (check,) = json.loads(done.stdout)["checks"]
    assert check == {"name": "scheme-found", "note": "no scheme within --tmax", "pass": False}


def test_pqm_run_names_the_transcript_entry_that_is_no_bit(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"v_seq": [[1], [2]]}))
    for bits, bad in (("0,2", "--transcript[1] = 2"), ("1,-1", "--transcript[1] = -1")):
        done = _qmlab("pqm", "run", "--q", "7", "--v-file", str(path), "--transcript", bits)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {bad} is not a bit (0 or 1)\n"


def test_game_replay_rejects_an_empty_v_seq(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"v_seq": []}))
    done = _qmlab("game", "--q", "9", "--strategy", "replay", "--v-file", str(path), "--json")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {path}: v_seq is empty, so the replay would play no round\n"
    # replaying no eliminator leaves every class: pqm run reports that as a FAIL
    done = _qmlab("pqm", "run", "--q", "9", "--v-file", str(path), "--transcript", "", "--json")
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout)["classes_left"] == [1, 2, 3, 6]


@pytest.mark.parametrize(
    "flag, value, least", [("--tmax", "-1", 0), ("--budget", "0", 1), ("--budget", "-5", 1)]
)
def test_qm_search_rejects_out_of_range_flags(capsys, flag, value, least):
    argv = ["qm", "search", "--q", "3", "--mode", "mqm", "--servers", "1"]
    assert cmd_dispatch([*argv, flag, value, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least {least}, got {value}\n"
    code, report = run_json(capsys, [*argv, flag, str(least)])
    assert code == 0 and report["found"] and report["t"] == 0


@pytest.mark.parametrize(
    "q, mode, servers, budget, t",
    [(7, "appendix", "0,1,2,3,4", 1156, 4), (7, "appendix", "0,1,2,3,4", 79, 2),
     (8, "mqm", "1,4,7", 829, 4)],
)
def test_qm_search_budget_error_states_the_proven_bound(capsys, q, mode, servers, budget, t):
    # t is tried in ascending order, so a budget hit at t refutes every smaller t
    argv = ["qm", "search", "--q", str(q), "--mode", mode, "--servers", servers]
    assert cmd_dispatch([*argv, "--budget", str(budget), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: search expanded more than {budget} nodes; no scheme with fewer than {t} bits\n"
    )


@pytest.mark.parametrize(
    "servers, message",
    [("--servers=", "--servers lists no point"), ("--servers=,", "--servers[0] is empty")],
    ids=["--servers=", "--servers=,"],
)
def test_qm_search_rejects_an_empty_server_list(capsys, servers, message):
    assert cmd_dispatch(["qm", "search", "--q", "5", "--mode", "qm", servers, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["qm", "mqm"])
def test_qm_search_names_servers_outside_the_field(capsys, mode):
    argv = ["qm", "search", "--q", "7", "--mode", mode, "--json", "--servers"]
    for servers, message in (("99", "99: not an element"), ("1,8,-2,7", "-2, 7, 8: not elements")):
        assert cmd_dispatch([*argv, servers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --servers {message} of GF(7)\n"


def test_qm_search_mqm_rejects_servers_outside_the_restricted_set(capsys):
    argv = ["qm", "search", "--q", "7", "--mode", "mqm"]
    for servers, named in (("0,3", "0, 3"), ("4,2,1,5", "5")):
        assert cmd_dispatch([*argv, "--servers", servers, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --servers {named}: outside the restricted set {{1, 2, 4}} of GF(7),"
            " the only points mqm mode queries\n"
        )
    # without --servers every point is offered and the search keeps the restricted ones
    code, report = run_json(capsys, argv)
    assert code == 0 and report["servers"] == list(range(7))
    assert report["t"] == 3 and report["scheme"]["schedule"] == [1, 2, 4]


def test_game_meets_floor(capsys):
    code, report = run_json(capsys, ["game", "--q", "7", "--strategy", "greedy-halving"])
    assert code == 0
    assert report["integer_round_bound"] == 3
    (check,) = report["checks"]
    assert check["pass"]


def test_linleak_check_exhaustive_and_sampled(capsys):
    code, report = run_json(capsys, ["linleak", "check", "--q", "4", "--exhaustive"])
    assert code == 0 and report["count"] == 1728 and report["verified"] == 1728
    assert report["witness"] is not None
    code, report = run_json(capsys, ["linleak", "check", "--q", "8", "--samples", "40"])
    assert code == 0 and report["count"] == 40 and report["verified"] == 40
    assert cmd_dispatch(["linleak", "check", "--q", "8", "--exhaustive"]) == 2


def test_linleak_check_seed_needs_sampling(capsys):
    # an exhaustive run draws nothing, so a seed there would be silently ignored
    argv = ["linleak", "check", "--q", "4", "--exhaustive", "--seed", "5", "--json"]
    assert cmd_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed needs sampling; --exhaustive draws no random tuple\n"
    # without --seed the sampled run keeps seed 0
    _, implicit = run_cli(capsys, ["linleak", "check", "--q", "8", "--samples", "20", "--json"])
    argv = ["linleak", "check", "--q", "8", "--samples", "20", "--seed", "0", "--json"]
    assert run_cli(capsys, argv) == (0, implicit)


def test_linleak_exhaustive_size_check_builds_no_probe(capsys, monkeypatch):
    # (q - 1) * q probes would take memory growing as q^2 just to be refused
    def boom(_ctx):
        raise AssertionError("the probe space was built before its size check")

    monkeypatch.setattr(cli, "_query_space", boom)
    assert cmd_dispatch(["linleak", "check", "--q", "65536", "--exhaustive"]) == 2
    size = (65535 * 65536) ** 31  # t = 2e - 1 probes per tuple
    assert capsys.readouterr().err == f"error: {size} query tuples; use --samples for GF(65536)\n"
    assert cmd_dispatch(["linleak", "check", "--q", "8", "--exhaustive"]) == 2
    assert capsys.readouterr().err == f"error: {56 ** 5} query tuples; use --samples for GF(8)\n"


@pytest.mark.parametrize("k", ["5", "100000"])
def test_linleak_check_rejects_k_above_q(capsys, k):
    # without the bound each probe would evaluate k-coefficient polynomials
    argv = ["linleak", "check", "--q", "4", "--k", k, "--i", "0", "--j", str(int(k) - 1)]
    assert cmd_dispatch([*argv, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: k={k} exceeds q=4") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, digest",
    [
        ("linleak check --q 9 --samples 20 --seed 0",
         "59d3cb3df442872c9a1483f5af11d4c2405c9bda6617f4f4c57585b4ae5ed62d"),
        ("linleak check --q 9 --samples 20 --seed 1",
         "7f9fa8b3f253d48b2ee2306b70cb0518c00579479e7aa1b69fdd79bb0e88b51e"),
        ("linleak check --q 16 --samples 20 --seed 0",
         "ce1cdf52aee91c11c918a6b137113057d95d165c583b54630f9732131524134a"),
        ("linleak check --q 16 --samples 20 --seed 1",
         "e2004f374ca4dd2e7949506a497e1ab6fc01a72f52632bf92b4c140113249a3f"),
        ("linleak check --q 25 --samples 20 --seed 0",
         "2994d34e8e0440dad774779b00d12e5a76b0c86a069630342fe547614ae2ac8d"),
        ("linleak check --q 25 --samples 20 --seed 1",
         "db5db0e8763ec805d8051fcd837bf642912527f1ad5292786b3592402b8c12c1"),
        ("linleak check --q 27 --samples 20 --seed 0",
         "f948e174d99fe42a55d043d8b851ef20a549c535141c0d61a7a591173c31a8fc"),
        ("linleak check --q 27 --samples 20 --seed 1",
         "65ed51bbf59a728528689c6cf704043631cbf580ecb95f974927298551d10fdc"),
        ("linleak check --q 8192 --samples 20 --seed 0",
         "04a12f9407c21c8edb5a173b59fb3ae9780546e037e17d8b81c3164864cc0875"),
        ("linleak check --q 8192 --samples 20 --seed 1",
         "1593f61f6a112738b37500591b2a32823e880e990b79c6fdf6ae30a2732a7c20"),
        ("linleak check --q 4 --exhaustive --k 4 --i 3 --j 0",
         "f4a3f4ed529be694e9b3028345d103860ceb2335eaa20c40775b9eebb4c328e4"),
    ],
)
def test_linleak_check_reports_are_pinned(capsys, command, digest):
    # odd p, tabled p = 2 and an untabled field, beyond the benchmark's fields;
    # recorded with the earlier list-of-digits kernel
    code, out = run_cli(capsys, [*command.split(), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


_SEARCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "qm_search_digests.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", list(_SEARCH_DIGESTS))
def test_qm_search_reports_are_pinned(capsys, command):
    # the SHA-256 of stdout, recorded with the search that tried every cap
    # tuple and every branch: the symmetry skips may change no witness.  The
    # 2- and 3-point server sets of GF(q), q in {3, 4, 5, 7, 8}, that it
    # settled within 10^5 nodes, and the search tests' own configurations
    code, out = run_cli(capsys, [*command.split(), "--json"])
    assert code in (0, 1)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _SEARCH_DIGESTS[command]


def test_qm_search_text_reports_its_work(capsys):
    argv = ["qm", "search", "--q", "7", "--mode", "appendix", "--servers", "0,1,2,3,4"]
    code, out = run_cli(capsys, argv)
    assert code == 0 and "\nq = 7\n" in out and '\nfield = {"e":1,' in out
    assert (
        "search work = 1157 nodes expanded; cap tuples 24 searched, 34 skipped by symmetry;"
        " 228 dead edges learned\n"
    ) in out
    assert "nodes" not in run_cli(capsys, [*argv, "--json"])[1]


@pytest.mark.parametrize(
    "k, i, j", [("0", "0", "1"), ("3", "2", "2"), ("2", "-1", "1"), ("3", "0", "3")]
)
def test_linleak_check_names_bad_targets(capsys, k, i, j):
    argv = ["linleak", "check", "--q", "4", "--k", k, "--i", i, "--j", j, "--samples", "3"]
    assert cmd_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = f"error: targets i={i}, j={j} must be distinct, non-negative and below k={k}\n"
    assert captured.err == want


@pytest.mark.parametrize("q, k, i, j", [(8, 3, 0, 2), (9, 4, 1, 3)])
def test_linleak_check_witness_collides_at_the_targets(capsys, q, k, i, j):
    argv = ["linleak", "check", "--q", str(q), "--k", str(k), "--i", str(i), "--j", str(j)]
    code, report = run_json(capsys, [*argv, "--samples", "50"])
    assert code == 0 and report["verified"] == 50
    ctx = field(q)
    witness = report["witness"]
    f, ell = witness["f"], witness["ell"]
    assert len(f) == len(ell) == k
    for alpha, gamma in witness["queries"]:
        assert ctx.trace(ctx.mul(gamma, ctx.poly_eval(f, alpha))) == ctx.trace(
            ctx.mul(gamma, ctx.poly_eval(ell, alpha))
        )
    assert ctx.mul(f[i], f[j]) != ctx.mul(ell[i], ell[j])


@pytest.mark.parametrize(
    "argv", [["field", "--q", "7"], ["buckets", "--q", "3"], ["qm", "search", "--q", "3"],
             ["gf7", "verify"]]
)
def test_seed_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cmd_dispatch([*argv, "--seed", "0"])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["game", "--q", "7"], ["linleak", "check", "--q", "4"], ["suite", "--qmax", "3"]]
)
def test_seed_is_accepted_where_it_is_read(capsys, argv):
    code, report = run_json(capsys, [*argv, "--seed", "5"])
    assert code == 0 and report["ok"]


def test_suite_small_and_q9_failure(capsys):
    code, report = run_json(capsys, ["suite", "--qmax", "8"])
    assert code == 0 and report["failed"] == 0
    code, report = run_json(capsys, ["suite", "--qmax", "9"])
    assert code == 1
    bad = [c["name"] for c in report["checks"] if not c["pass"]]
    assert bad == ["residue-mix-gf9"]


def test_suite_records_unexpected_exception_as_failed_check(capsys, monkeypatch):
    def boom():
        raise ZeroDivisionError("division by zero")

    _, clean = run_json(capsys, ["suite", "--qmax", "8"])
    monkeypatch.setattr(cli, "_sc_gf4_rejections", boom)
    code, report = run_json(capsys, ["suite", "--qmax", "8"])
    assert code == 1 and report["failed"] == 1
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["regime-rejections-gf4"] == {
        "name": "regime-rejections-gf4",
        "pass": False,
        "q": 4,
        "error": "ZeroDivisionError: division by zero",
    }
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in clean["checks"]]
    rest = [c for c in report["checks"] if c["name"] != "regime-rejections-gf4"]
    assert rest == [c for c in clean["checks"] if c["name"] != "regime-rejections-gf4"]


_REAL_BUCKET_EVAL = cli.bucket_eval
_BOUND_BAD = {f"real q={q}": 0.0 for q in (4, 5)}
_BOUND_BAD.update({f"integer q={q}": 0 for q in (7, 8, 9, 11, 13, 16)})


def _tampered_image(ctx, gamma, alpha):
    """bucket_eval with element 0 toggled in the GF(7) cell at point 3, product 5."""
    return _REAL_BUCKET_EVAL(ctx, gamma, alpha) ^ ((ctx.q, alpha, gamma) == (7, 3, 5))


@pytest.mark.parametrize(
    "row, target, fake, fields",
    [
        pytest.param("artin-schreier-gf8", "qmlab.charsum.artin_schreier_solvable",
                     lambda ctx, c: (False, None),
                     {"counterexample": {"c": 0, "trace": 0, "roots": [0, 1]}},
                     id="artin-schreier-verdict"),
        pytest.param("artin-schreier-gf8", "qmlab.charsum.artin_schreier_solvable",
                     lambda ctx, c: (ctx.trace(c) == 0, 2),
                     {"counterexample": {"c": 0, "root": 2}}, id="artin-schreier-root"),
        pytest.param("regime-rejections-gf4", "qmlab.cli.build_sqrt_system", lambda ctx: {},
                     {"counterexample": ["sqrt-system"]}, id="gf4-rejections"),
        pytest.param("pair-absent-gf5", "qmlab.cli.scaled_pair", lambda ctx: None,
                     {"b11": [0, 2, 3]}, id="gf5-pair-absent"),
        pytest.param("gf7-truncations-fail", "qmlab.cli.verify_scheme",
                     lambda scheme, domain: True,
                     {"counterexample": [0, 1, 2, 3, 4]}, id="gf7-truncations"),
        pytest.param("bound-closed-forms", "qmlab.pqm.bandwidth_bound",
                     lambda ctx: BoundReport(0.0, 0),
                     {"q": 16, "counterexample": _BOUND_BAD}, id="bound-forms"),
        pytest.param("gf7-figure1-golden", "qmlab.cli.bucket_eval", _tampered_image,
                     {"counterexample": [[3, 5]]}, id="figure1-mismatch"),
        pytest.param("pipeline-gf7", "qmlab.cli.search_min_bandwidth",
                     lambda *args, **kwargs: None,
                     {"error": "search found nothing"}, id="pipeline-gf7"),
    ],
)
def test_each_fixed_suite_row_can_fail(request, monkeypatch, row, target, fake, fields):
    # a row is a check only if its failure branch runs: break the one name
    # the row reads, where the row reads it (a name cli imports inside the
    # row is read from its own module), and the row must report its witness
    request.addfinalizer(cli._searched_gf7.cache_clear)
    cli._searched_gf7.cache_clear()  # pipeline-gf7 reads the search through this cache
    monkeypatch.setattr(target, fake)
    rows = {r.name: r for r in cli._sweep_rows(16) + cli._fixed_rows(16, 0)}
    check = json.loads(canonical_json(cli._timed_row(rows[row])[0]))
    assert check == {"name": row, "pass": False, "q": rows[row].q, **fields}


@pytest.mark.parametrize("seed", ["0", "1", "7"])
@pytest.mark.parametrize("qmax", ["3", "8", "9", "16", "64"])
def test_suite_json_is_the_same_without_a_worker(capsys, monkeypatch, qmax, seed):
    argv = ["suite", "--qmax", qmax, "--seed", seed, "--json"]
    forked = run_cli(capsys, argv)
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, argv) == forked


def test_a_dead_worker_fails_the_rows_it_did_not_report(capsys, monkeypatch, tmp_path):
    argv = ["suite", "--qmax", "8", "--json"]
    _, clean = run_json(capsys, argv)
    monkeypatch.setattr(cli, "_sc_weil", lambda q: os._exit(3))
    timings = tmp_path / "timings.txt"
    code = cmd_dispatch(argv + ["--timings", str(timings)])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    report = json.loads(out)
    sweep = [row.name for row in cli._sweep_rows(8)]
    dead = sweep.index("weil-bound-gf3")  # the worker's first call of _sc_weil
    for got, want in zip(report["checks"], clean["checks"]):
        if want["name"] in sweep[dead:]:
            error = "suite worker exited with status 3 before reporting this row"
            want = {"name": want["name"], "pass": False, "q": want["q"], "error": error}
        assert got == want
    assert len(report["checks"]) == len(clean["checks"])
    assert report["failed"] == len(sweep) - dead
    lines = [line.split(" ", 1) for line in timings.read_text(encoding="utf-8").splitlines()]
    assert [name for _, name in lines] == [c["name"] for c in clean["checks"]]
    assert [wall == "nan" for wall, _ in lines] == [
        c["name"] in sweep[dead:] for c in clean["checks"]
    ]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_repeat_runs_byte_identical(capsys):
    _, first = run_cli(capsys, ["suite", "--qmax", "8", "--seed", "0", "--json"])
    _, second = run_cli(capsys, ["suite", "--qmax", "8", "--seed", "0", "--json"])
    assert first == second


def test_suite_subprocess_byte_identical():
    argv = [sys.executable, "-m", "qmlab", "suite", "--qmax", "8", "--seed", "0", "--json"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["ok"]


def test_text_report_shows_wall_time(capsys):
    code, out = run_cli(capsys, ["bound", "--q", "7"])
    assert code == 0
    assert "wall time" in out and "wall time" not in canonical_json({})


@pytest.mark.parametrize(
    "command",
    [
        "suite --qmax 64 --seed 0 --json",
        "suite --qmax 64 --seed 1 --json",
        "buckets --q 49 --json",
        "buckets --q 64 --json",
        "buckets --q 81 --json",
        *(
            f"game --q {q} --strategy {strategy} --seed 0 --json"
            for q in (121, 125, 128, 243)
            for strategy in ("greedy-halving", "random-set")
        ),
    ],
)
def test_reports_match_the_benchmark_digests(capsys, command):
    # the SHA-256 of stdout that perfbench/expected.json records for a fresh process
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))["reports"][command]
    _, out = run_cli(capsys, command.split())
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == recorded


def test_suite_timings_file_leaves_json_unchanged(capsys, tmp_path):
    argv = ["suite", "--qmax", "5", "--json"]
    code, plain = run_cli(capsys, argv)
    timings = tmp_path / "timings.txt"
    code_timed, timed = run_cli(capsys, argv + ["--timings", str(timings)])
    assert (code_timed, timed) == (code, plain)
    lines = [line.split(" ", 1) for line in timings.read_text(encoding="utf-8").splitlines()]
    assert [name for _, name in lines] == [c["name"] for c in json.loads(plain)["checks"]]
    assert all(float(wall) >= 0 for wall, _ in lines)


def test_suite_timings_unwritable_path_exits_2(capsys, tmp_path):
    code = cmd_dispatch(["suite", "--qmax", "3", "--timings", str(tmp_path / "no" / "t.txt")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
