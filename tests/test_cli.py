import argparse
import ast
import hashlib
import importlib
import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from gitloci.action import TorusAction, build_product_action
from gitloci.cli import _MaskTexts, _render, load_spec, run
from gitloci.qpoly import BiPoly, InnerProduct, RationalVector
from gitloci.strata import beta_index_set
from gitloci.vgit import masked, wall_chamber_decomposition

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

ACTION_SCHEMA = json.loads((REPO / "action.schema.json").read_text())
REPORT_SCHEMA = json.loads((REPO / "report.schema.json").read_text())


def _run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(list(args) + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_corpus_files_validate_against_action_schema():
    validator = Draft7Validator(ACTION_SCHEMA)
    for path in sorted(CORPUS.glob("*.json")):
        data = json.loads(path.read_text())
        errors = list(validator.iter_errors(data))
        assert not errors, (path.name, [e.message for e in errors])


@pytest.mark.parametrize(
    "args",
    [
        ["stability", "--input", str(CORPUS / "ex1_7.json"), "--point", "all", "--twist", "-1/2"],
        ["beta", "--input", str(CORPUS / "ex1_7.json")],
        ["chambers", "--input", str(CORPUS / "ex1_7.json")],
        ["strata", "--input", str(CORPUS / "ex1_7.json")],
        ["admissible-cone", "--input", str(CORPUS / "sec7_1.json")],
        ["adapted", "--input", str(CORPUS / "ex1_7.json"), "--lambda", "1", "--epsilon", "1/10"],
        ["fan", "--input", str(CORPUS / "sec7_1.json"), "--variant", "b0"],
        ["usweep", "--input", str(CORPUS / "sec7_1.json"), "--point", "basin_miss", "--lambda", "1,0"],
        ["hstable", "--input", str(CORPUS / "sec7_1.json"), "--point", "h_stable"],
        ["external-equiv", "--input", str(CORPUS / "external_toy.json")],
    ],
)
def test_subcommands_emit_schema_valid_reports(args, tmp_path):
    code, text = _run(args, tmp_path)
    assert code == 0
    payload = json.loads(text)
    Draft7Validator(REPORT_SCHEMA).validate(payload)


def test_output_is_byte_identical_across_runs(tmp_path):
    args = ["chambers", "--input", str(CORPUS / "ex1_7.json")]
    _, first = _run(args, tmp_path, "a.json")
    _, second = _run(args, tmp_path, "b.json")
    assert first == second


def test_stability_matches_git_class(tmp_path):
    code, text = _run(
        ["stability", "--input", str(CORPUS / "ex1_7.json"), "--point", "all", "--twist", "-1/2"],
        tmp_path,
    )
    assert code == 0
    statuses = json.loads(text)["result"]["statuses"]
    from gitloci.qpoly import RationalVector
    from gitloci.vgit import git_class

    spec = load_spec(str(CORPUS / "ex1_7.json"))
    fam = git_class(spec.action, RationalVector(["-1/2"]))
    semistable = {
        key for key, status in statuses.items() if status != "unstable"
    }
    expected = {
        ",".join(str(i) for i in sorted(s)) for s in fam
    }
    assert semistable == expected


def test_chambers_reports_ex1_7_walls(tmp_path):
    code, text = _run(["chambers", "--input", str(CORPUS / "ex1_7.json")], tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert [w["at"] for w in result["walls"]] == ["-1", "0", "2"]
    assert [c["interval"] for c in result["chambers"]] == [["-1", "0"], ["0", "2"]]


def test_admissible_cone_sec71(tmp_path):
    code, text = _run(
        ["admissible-cone", "--input", str(CORPUS / "sec7_1.json")], tmp_path
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert result["halfspaces"] == [
        {"normal": ["1", "-1"], "strict": True},
        {"normal": ["2", "1"], "strict": True},
    ]


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 0, "inner_product": [[1]], "factors": []}))
    code = run(["stability", "--input", str(bad), "--point", "all"])
    assert code == 2
    missing = tmp_path / "missing.json"
    code = run(["stability", "--input", str(missing), "--point", "all"])
    assert code == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({
        "rank": 1, "inner_product": [[1]],
        "factors": [{"weights": [["1/2"]]}],
    }))
    code = run(["beta", "--input", str(bad2)])
    assert code == 2


def test_unwritable_output_is_an_exit_2_error(tmp_path, capsys):
    # a missing directory and a directory: open fails, no traceback
    for out in (tmp_path / "no" / "such" / "dir" / "x.json", tmp_path):
        args = ["chambers", "--input", str(CORPUS / "ex1_7.json"), "--output", str(out)]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output file: ")
        assert "Traceback" not in captured.err
    assert not (tmp_path / "no").exists()


def test_error_messages_name_the_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 1, "factors": [{"weights": [[1]]}]}))
    code = run(["beta", "--input", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "inner_product" in captured.err


def test_strict_flag_exit_code_on_clean_run(tmp_path):
    code, _ = _run(
        ["usweep", "--input", str(CORPUS / "sec7_1.json"), "--point", "basin_miss",
         "--lambda", "1,0", "--strict"],
        tmp_path,
    )
    assert code == 0  # unstable with a witness is decided, not undecided


def test_svg_rank2_deterministic(tmp_path):
    args = ["svg", "--input", str(CORPUS / "sec7_1.json")]
    _, first = _run(args, tmp_path, "a.svg")
    _, second = _run(args, tmp_path, "b.svg")
    assert first == second
    assert first.startswith("<svg")
    assert "polygon" in first  # hexagon outline
    assert first.count("<circle") >= 13  # 12 weights + origin


def test_svg_rings_every_beta_beyond_fourteen_weights(tmp_path):
    # 16 distinct rank-2 weights: a 4 x 4 grid, shifted off the origin
    grid = [[x - 1, y + 1] for x in range(4) for y in range(4)]
    spec = {
        "name": "grid",
        "rank": 2,
        "inner_product": [[1, 0], [0, 1]],
        "factors": [{"name": "P15", "weights": grid}],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(spec))
    _, text = _run(["svg", "--input", str(path)], tmp_path, "grid.svg")
    betas = beta_index_set(load_spec(str(path)).action)
    assert len(betas) > 1
    assert text.count('stroke="#aa2288"') == len(betas)


def test_svg_rank1_unsupported(tmp_path):
    code = run(["svg", "--input", str(CORPUS / "ex1_7.json")])
    assert code == 2


def test_console_entrypoint_installed():
    # the child does not inherit pytest's `pythonpath`, so give it the sources
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "gitloci.cli", "chambers", "--input", str(CORPUS / "ex1_7.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "chambers"


def test_strict_flag_exit_3_on_undecided(tmp_path):
    # a minimal-coordinate system {c - b, 1 + b^2} defeats the rational-root
    # back-substitution (the shared b-projection b^2 + 1 has no rational
    # zeros), so the sweep honestly reports Undecided
    spec = {
        "rank": 1,
        "inner_product": [[1]],
        "twist": ["0"],
        "factors": [{"weights": [[-1], [-1], [5]]}],
        "group": {
            "adjoint_weights": [],
            "u_params": 2,
            "u_matrices": [
                [["1", "c+-1*b", "0"], ["0", "1", "b^2"], ["0", "0", "1"]]
            ],
        },
        "points": {"tricky": {"coords": [["0", "1", "1"]]}},
    }
    path = tmp_path / "undecided.json"
    path.write_text(json.dumps(spec))
    args = ["usweep", "--input", str(path), "--point", "tricky", "--lambda", "1"]
    out = tmp_path / "u.json"
    code = run(args + ["--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["result"]["status"] == "undecided"
    code = run(args + ["--strict", "--output", str(out)])
    assert code == 3


@pytest.mark.parametrize(
    "command, point, extra",
    [("usweep", "uhat_stable", ["--lambda", "1,0"]), ("hstable", "h_stable", [])],
)
def test_strict_reads_only_the_verdicts(command, point, extra, tmp_path):
    # a stable point named "undecided" is decided: its name is no verdict
    data = json.loads((CORPUS / "sec7_1.json").read_text())
    data["points"] = {"undecided": data["points"][point]}
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(data))
    argv = [command, "--input", str(path), "--point", "undecided", *extra]
    code, text = _run(argv + ["--strict"], tmp_path)
    assert code == 0
    result = json.loads(text)["result"]
    assert result["point"] == "undecided" and result["status"] == "stable"


def test_strict_exit_3_on_undecided_stabiliser_dimension(tmp_path, monkeypatch):
    # a decided status with an undecided stabiliser dimension is undecided
    from gitloci.stability import StabDimension

    monkeypatch.setattr(
        "gitloci.cli.stab_u_dimension", lambda pt, g: StabDimension.UNDECIDED
    )
    argv = ["hstable", "--input", str(CORPUS / "sec7_1.json"), "--point", "h_stable"]
    assert _run(argv, tmp_path)[0] == 0
    code, text = _run(argv + ["--strict"], tmp_path)
    assert code == 3
    result = json.loads(text)["result"]
    assert result["status"] == "stable"
    assert result["stab_u_dimension"] == "undecided"


@pytest.mark.parametrize(
    "command, message",
    [
        ("chambers", "wall/chamber enumeration is exact for rank <= 2 only"),
        ("fan", "exact fan enumeration is limited to rank <= 2"),
    ],
)
def test_rank_3_chambers_and_fan_exit_2(command, message, tmp_path, capsys):
    spec = {
        "rank": 3,
        "inner_product": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "factors": [{"weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}],
        "group": {"adjoint_weights": [[1, 0, 0]]},
    }
    path = tmp_path / "rank3.json"
    path.write_text(json.dumps(spec))
    code, text = _run([command, "--input", str(path)], tmp_path)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_svg_module_feeds_nothing_back():
    # layering rule: only the CLI imports the renderer
    import gitloci

    src = Path(gitloci.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name in ("svg.py", "cli.py", "__init__.py"):
            continue
        assert "svg" not in path.read_text(), path.name
    init_text = (src / "__init__.py").read_text()
    assert "from .svg" not in init_text


def test_weights_and_cocharacters_are_integer_tuples():
    # weights are characters and flows cocharacters: both integral, held as
    # int tuples with no Fraction beside them
    for path in sorted(CORPUS.glob("*.json")):
        action = load_spec(str(path)).action
        for w in action.weights:
            assert type(w) is tuple and all(type(e) is int for e in w), path
        for bi in beta_index_set(action):
            if bi.lambda_beta is not None:
                lam = bi.lambda_beta.cochar
                assert type(lam) is tuple and all(type(e) is int for e in lam), path


def test_benchmark_entry_points_exist():
    # the benchmark traces these functions by name, checks reports with the
    # oracle and git_class, and builds hull queries and checks from the
    # point-set, vector and support types; a rename would break it without
    # an import error here, so read its table as data
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text())
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    names = [(layer, fn) for layer, fns in tables["SPANNED"].items() for fn in fns]
    names += [("polytope", "min_norm_point_oracle"), ("vgit", "git_class")]
    names += [("polytope", "PointSet"), ("qpoly", "RationalVector")]
    names += [("action", "SupportPoint")]
    for layer, fn in names:
        assert callable(getattr(importlib.import_module(f"gitloci.{layer}"), fn, None)), (
            f"{layer}.{fn}"
        )
    torus_action = importlib.import_module("gitloci.action").TorusAction
    for method in (*tables["COUNTED_METHODS"], "support_count"):
        assert method in vars(torus_action), method
    # the decomposition span's size reads its argument's lines and its
    # result's faces
    polytope = importlib.import_module("gitloci.polytope")
    arr = polytope.Arrangement2D([polytope.Line2D(1, 0, 0)], [])
    dec = polytope.chamber_decomposition_2d(arr)
    assert (len(arr.lines), len(dec.faces)) == (1, 3)


_NO_EXPANSION_ARGVS = [
    ["stability", "--input", "ex1_7.json", "--point", "all", "--twist", "-1/2"],
    ["stability", "--input", "sec7_1.json", "--point", "all", "--twist", "1/2,1/2"],
    ["stability", "--input", "external_toy.json", "--point", "all"],
    ["beta", "--input", "ex1_7.json"],
    ["beta", "--input", "sec7_1.json"],
    ["beta", "--input", "external_toy.json"],
    ["chambers", "--input", "ex1_7.json"],
    ["chambers", "--input", "sec7_1.json"],
    ["chambers", "--input", "external_toy.json"],
    ["strata", "--input", "ex1_7.json"],
    ["strata", "--input", "sec7_1.json"],
    ["strata", "--input", "external_toy.json"],
    ["admissible-cone", "--input", "sec7_1.json", "--variant", "b0"],
    ["admissible-cone", "--input", "external_toy.json"],
    ["adapted", "--input", "ex1_7.json", "--lambda", "1", "--twist", "-1/2"],
    ["adapted", "--input", "sec7_1.json", "--lambda", "1,2"],
    ["fan", "--input", "sec7_1.json"],
    ["fan", "--input", "sec7_1.json", "--variant", "b0"],
    ["fan", "--input", "external_toy.json"],
    ["usweep", "--input", "sec7_1.json", "--point", "uhat_stable", "--lambda", "1,0"],
    ["usweep", "--input", "external_toy.json", "--point", "generic", "--lambda", "1"],
    ["hstable", "--input", "sec7_1.json", "--point", "h_stable"],
    ["hstable", "--input", "external_toy.json", "--point", "generic"],
    ["external-equiv", "--input", "external_toy.json"],
]


def test_no_subcommand_but_svg_expands_segre_weights(monkeypatch, tmp_path):
    # supports are read through their distinct weights (`support_weights`)
    # and flows through per-coordinate values; the full Segre expansion is
    # left to the weight diagram, which counts multiplicities
    from gitloci.action import TorusAction
    from gitloci.cli import _COMMANDS

    def refuse(self, *args, **kwargs):
        raise AssertionError("segre_weights called in a computation path")

    monkeypatch.setattr(TorusAction, "segre_weights", refuse)
    commands = {argv[0] for argv in _NO_EXPANSION_ARGVS}
    assert commands == set(_COMMANDS)  # every subcommand but svg
    for command, flag, spec, *rest in _NO_EXPANSION_ARGVS:
        argv = [command, flag, str(CORPUS / spec), *rest]
        code, _ = _run(argv, tmp_path)
        assert code == 0, argv


# ---------------------------------------------------------------------------
# The argument contract: one flag set for every command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["nonsense", "--input", str(CORPUS / "ex1_7.json")],
        [],
        ["--input", str(CORPUS / "ex1_7.json")],
        ["beta"],
        ["svg", "--output", "unused.svg"],
    ],
)
def test_argument_errors_exit_2_with_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["beta", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gitloci")


def test_negative_flag_values_glued_or_separate(tmp_path):
    base = ["adapted", "--input", str(CORPUS / "sec7_1.json"), "--twist", "-1/2,1"]
    separate = _run(base + ["--lambda", "-1,2"], tmp_path, "a.json")
    glued = _run(base + ["--lambda=-1,2"], tmp_path, "b.json")
    assert separate[0] == 0
    assert separate == glued
    assert json.loads(separate[1])["result"]["lambda"] == ["-1", "2"]


def test_svg_output_file_matches_stdout(tmp_path, capsys):
    args = ["svg", "--input", str(CORPUS / "sec7_1.json")]
    assert run(args) == 0
    printed = capsys.readouterr().out
    code, written = _run(args, tmp_path, "hexagon.svg")
    assert code == 0
    assert written == printed


def _readme_examples() -> list[list[str]]:
    text = (REPO / "README.md").read_text()
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    examples = _readme_examples()
    assert len(examples) >= 7
    monkeypatch.chdir(REPO)
    for argv in examples:
        if "--output" in argv:  # keep the checkout clean
            i = argv.index("--output") + 1
            argv[i] = str(tmp_path / argv[i])
        assert run(argv) == 0, argv
        capsys.readouterr()


def test_no_parser_built_per_run(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    args = ["admissible-cone", "--input", str(CORPUS / "sec7_1.json")]
    assert _run(args, tmp_path, "a.json")[0] == 0
    assert _run(args, tmp_path, "b.json")[0] == 0
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["hstable", "--input", "sec7_1.json", "--point", "h_stable"],
        ["svg", "--input", "sec7_1.json"],
        ["external-equiv", "--input", "external_toy.json"],
        ["stability", "--input", "sec7_1.json", "--point", "all"],
        ["beta", "--input", "sec7_1.json"],
        ["strata", "--input", "ex1_7.json"],
        ["adapted", "--input", "sec7_1.json", "--lambda", "1,2"],
    ],
)
def test_twist_flag_equals_twist_in_the_spec(argv, tmp_path):
    # --twist replaces the spec's twist for every command that reads one
    command, flag, name, *rest = argv
    data = json.loads((CORPUS / name).read_text())
    twist = ["1", "0"] if data["rank"] == 2 else ["-1/2"]
    data["twist"] = twist
    twisted = tmp_path / name
    twisted.write_text(json.dumps(data))
    by_flag = _run(
        [command, flag, str(CORPUS / name), *rest, "--twist", ",".join(twist)],
        tmp_path,
        "flag.out",
    )
    by_spec = _run([command, flag, str(twisted), *rest], tmp_path, "spec.out")
    assert by_flag[0] == 0
    assert by_flag == by_spec


def test_matrix_free_group_sweeps_as_the_identity(tmp_path):
    # "group": {} is the trivial unipotent radical: usweep and hstable give
    # on every point the report that explicit identity matrices give
    data = json.loads((CORPUS / "sec7_1.json").read_text())
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    paths = {}
    for key, group in (("empty", {}), ("identity", {"u_matrices": [eye] * 3})):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps({**data, "group": group}))
    usweep = {}
    for point in data["points"]:
        for argv in (
            ["usweep", "--point", point, "--lambda", "1,0"],
            ["hstable", "--point", point],
        ):
            empty, identity = (
                _run([argv[0], "--input", str(paths[key]), *argv[1:]], tmp_path)
                for key in ("empty", "identity")
            )
            assert empty[0] == 0 and empty == identity, argv
            if argv[0] == "usweep":
                usweep[point] = json.loads(empty[1])["result"]["status"]
    assert usweep["uhat_stable"] == "stable"
    assert usweep["basin_miss"] == "unstable"


def test_hstable_reads_twist(tmp_path):
    # at twist (1,0) the orbit of h_stable reaches a support whose hull has
    # the twist on its boundary; b = c = 1 is the witness
    from gitloci.qpoly import RationalVector
    from gitloci.stability import h_stable_explicit

    sec71 = str(CORPUS / "sec7_1.json")
    code, text = _run(
        ["hstable", "--input", sec71, "--point", "h_stable", "--twist", "1,0"],
        tmp_path,
    )
    assert code == 0
    assert json.loads(text)["result"]["status"] == "unstable"
    spec = load_spec(sec71)
    twisted = spec.action.with_twist(RationalVector([1, 0]))
    verdict = h_stable_explicit(spec.points["h_stable"], twisted, spec.group)
    assert [str(v) for v in verdict.witness] == ["1", "1"]


def test_sweeps_call_common_zero_avoiding_only(tmp_path, monkeypatch):
    # `common_zero_exists` is `common_zero_avoiding` with nothing to avoid, so
    # a sweep that called it would take each decision through both
    import gitloci.qpoly as qpoly

    calls = {"common_zero_exists": 0, "common_zero_avoiding": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    for name in calls:
        original = getattr(qpoly, name)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "gitloci" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    sec71 = str(CORPUS / "sec7_1.json")
    for point in load_spec(sec71).points:
        usweep = ["usweep", "--input", sec71, "--point", point, "--lambda", "1,0"]
        assert _run(usweep, tmp_path)[0] == 0
        assert _run(["hstable", "--input", sec71, "--point", point], tmp_path)[0] == 0
    assert calls["common_zero_exists"] == 0
    assert calls["common_zero_avoiding"] > 0


_VALID_SPEC = {
    "rank": 1,
    "inner_product": [[1]],
    "factors": [{"weights": [[-1], [0], [2]]}],
}


@pytest.mark.parametrize(
    "field, patch",
    [
        ("factors[1]", {"factors": [{"weights": [[1], [2]]}, 7]}),
        ("points.p", {"points": {"p": 5}}),
        ("variants", {"variants": ["b0"]}),
        ("variants.b0", {"variants": {"b0": 3}}),
        ("group", {"group": "trivial"}),
        ("external", {"external": 10}),
        ("points", {"points": []}),
        ("variants", {"variants": []}),
    ],
)
def test_non_object_blocks_are_validation_errors(field, patch, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_VALID_SPEC, **patch}))
    assert run(["beta", "--input", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, patch",
    [
        ("group.adjoint_weights", {"group": {"adjoint_weights": 5}}),
        ("group.u_matrices", {"group": {"u_matrices": 5}}),
        ("group.u_matrices[0]", {"group": {"u_matrices": [5]}}),
        ("group.u_matrices[0][0]", {"group": {"u_matrices": [[5]]}}),
        ("variants.b0.adjoint_weights", {"variants": {"b0": {"adjoint_weights": 5}}}),
        ("external.m_lambda", {"external": {"m_lambda": 5, "m_mu": [1], "N": 1}}),
        ("external.m_mu", {"external": {"m_lambda": [1], "m_mu": 5, "N": 1}}),
        ("points.p.support[0]", {"points": {"p": {"support": [5]}}}),
        ("points.p.coords[0]", {"points": {"p": {"coords": [5]}}}),
        ("name", {"name": ["x"]}),
    ],
)
def test_non_list_fields_are_validation_errors(field, patch, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_VALID_SPEC, **patch}))
    assert run(["beta", "--input", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, patch",
    [
        ("external.N", {"N": [1]}),
        ("external.N", {"N": True}),
        ("external.N", {"N": "10"}),
        ("external.m_lambda[0]", {"m_lambda": [[1]]}),
        ("external.m_lambda[1]", {"m_lambda": [1, "0"]}),
        ("external.m_mu[1]", {"m_mu": [2, False]}),
        ("external.epsilon", {"epsilon": True}),
        ("external.epsilon", {"epsilon": False}),
    ],
)
def test_non_integer_external_fields_are_validation_errors(
    field, patch, tmp_path, capsys
):
    data = json.loads((CORPUS / "external_toy.json").read_text())
    data["external"].update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["external-equiv", "--input", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, patch",
    [
        ("inner_product[0][0]", {"inner_product": [[1.5]]}),
        ("inner_product[0][0]", {"inner_product": [["2"]]}),
        ("rank", {"rank": True}),
        ("group.u_params", {"group": {"u_params": "1"}}),
        ("group.u_params", {"group": {"u_params": 0.5}}),
        ("group.u_params", {"group": {"u_params": None}}),
        ("factors[0].weights[1]", {"factors": [{"weights": [[-1], [True]]}]}),
        ("twist", {"twist": [False]}),
        ("points.p", {"points": {"p": {"coords": [[1, True, 0]]}}}),
        ("group.adjoint_weights[0]", {"group": {"adjoint_weights": [[True]]}}),
        ("points.p.support[0]", {"points": {"p": {"support": [[True]]}}}),
        ("points.p.support[0]", {"points": {"p": {"support": [[0, False]]}}}),
        ("twist", {"twist": ["1/0"]}),
        ("factors[0].weights[1]", {"factors": [{"weights": [[-1], ["-2/0"]]}]}),
        ("points.p", {"points": {"p": {"coords": [["1/0", "1", "0"]]}}}),
        ("group.u_matrices[0][0][0]", {"group": {"u_matrices": [[["1/0*b"]]]}}),
        ("inner_product", {"inner_product": [[1, 0], [0, 1]]}),
    ],
)
def test_non_integer_spec_fields_are_validation_errors(field, patch, tmp_path, capsys):
    # the schema types rank, the form's entries, u_params and support indices
    # as integers, and weights, twists, coordinates and adjoint weights as
    # integers or rational strings with a nonzero denominator; a float must
    # not be truncated into a form or group that was not given, nor JSON true
    # or false read as 1 or 0, nor a zero denominator divide by zero; the
    # form's size is the rank
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_VALID_SPEC, **patch}))
    assert run(["beta", "--input", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch, message",
    [
        ([[1.5, 0, 0]], "points.p.coords[0]: expected a rational literal, got 1.5"),
        ([[0, "x", 0]], "points.p.coords[0]: expected a rational literal, got 'x'"),
        ([[0, 0, 0]], "points.p.coords: a projective point needs a nonzero"),
    ],
)
def test_bad_coordinates_name_their_block_once(patch, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_VALID_SPEC, "points": {"p": {"coords": patch}}}))
    assert run(["beta", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def _factor_by_factor(data):
    """The action as load_spec built it factor by factor: one TorusAction
    per factor, their product, then the spec's twist."""
    rank, ip = data["rank"], InnerProduct(data["inner_product"])
    factors = [
        TorusAction(rank, [RationalVector(w) for w in f["weights"]], ip)
        for f in data["factors"]
    ]
    action = build_product_action(factors)
    if "twist" in data:
        action = action.with_twist(RationalVector(data["twist"]))
    return action


def _random_spec(rng):
    rank = rng.randint(1, 3)
    diagonal = [rng.randint(1, 3) for _ in range(rank)]
    gram = [[diagonal[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
    if rank > 1 and rng.random() < 0.5:
        gram[0][1] = gram[1][0] = rng.choice([-1, 1])
        gram[0][0] = gram[1][1] = 2

    def entry(q):
        return rng.choice([q, str(q)])

    data = {
        "rank": rank,
        "inner_product": gram,
        "factors": [
            {
                "weights": [
                    [entry(rng.randint(-3, 3)) for _ in range(rank)]
                    for _ in range(rng.randint(1, 4))
                ]
            }
            for _ in range(rng.randint(1, 4))
        ],
    }
    if rng.random() < 0.7:
        data["twist"] = [
            rng.choice([rng.randint(-4, 4), f"{rng.randint(-4, 4)}/{rng.randint(1, 5)}"])
            for _ in range(rank)
        ]
    return data


def test_load_spec_builds_the_factor_by_factor_action(tmp_path):
    rng = random.Random(30)
    specs = [json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))]
    specs += [_random_spec(rng) for _ in range(60)]
    for k, data in enumerate(specs):
        path = tmp_path / f"spec{k}.json"
        path.write_text(json.dumps(data))
        got, want = load_spec(str(path)).action, _factor_by_factor(data)
        assert (got.weights, got.factor_partition, got.twist, got.ip) == (
            want.weights,
            want.factor_partition,
            want.twist,
            want.ip,
        )


def test_one_load_of_sec7_1_builds_one_action_and_evaluates_nothing(monkeypatch):
    # the work of a load, machine-independently: the product action is
    # built once, and the u-matrices are checked from their terms
    counts = {"TorusAction": 0, "eval_at": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        TorusAction, "__init__", counting("TorusAction", TorusAction.__init__)
    )
    monkeypatch.setattr(BiPoly, "eval_at", counting("eval_at", BiPoly.eval_at))
    load_spec(str(CORPUS / "sec7_1.json"))
    assert counts == {"TorusAction": 1, "eval_at": 0}


@pytest.mark.parametrize(
    "flag, value, argv",
    [
        ("--twist", "1/0,0", ["adapted", "sec7_1.json", "--lambda", "1,2"]),
        ("--epsilon", "1/0", ["adapted", "sec7_1.json", "--lambda", "1,2"]),
        ("--epsilon", "-1/00", ["external-equiv", "external_toy.json"]),
    ],
)
def test_zero_denominator_flags_are_validation_errors(flag, value, argv, capsys):
    command, name, *rest = argv
    assert run([command, "--input", str(CORPUS / name), *rest, flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: not a rational literal")


# ---------------------------------------------------------------------------
# The report writer: the bytes of json.dumps(sort_keys=True, indent=2)
# ---------------------------------------------------------------------------


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


def test_writer_matches_json_dumps_on_golden_reports():
    goldens = sorted((REPO / "tests" / "golden").glob("*.json"))
    assert len(goldens) == 25  # every golden but the svg
    for path in goldens:
        text = path.read_text()
        report = json.loads(text)
        assert "".join(_render(report)) + "\n" == _dumps(report) + "\n" == text, path.name


# quotes, backslashes, control, non-ASCII and astral characters
_ESCAPED = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aé\u2028\U0001f600'))
_TEXT = st.text() | _ESCAPED
_INTS = st.integers(min_value=-(2**200), max_value=2**200)
_PAYLOADS = st.recursive(
    st.none()
    | st.booleans()
    | _INTS
    | _TEXT
    | st.lists(_INTS)
    | st.lists(_INTS | st.booleans())
    | st.lists(_TEXT),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_TEXT, inner),
    max_leaves=40,
)


@settings(deadline=None)
@given(_PAYLOADS)
def test_writer_matches_json_dumps(value):
    assert "".join(_render(value)) == _dumps(value)


# support families: frozensets of frozensets of indices, possibly empty,
# which a report holds as their sorted lists of sorted supports
_INDICES = st.integers(min_value=0, max_value=40) | st.integers(
    min_value=0, max_value=0x10FFFF
)
_FAMILIES = st.frozensets(st.frozensets(_INDICES, max_size=8), max_size=12)


def _rows(family):
    return sorted(sorted(s) for s in family)


# a seeded support table as a complex numbers its supports: distinct
# nonempty sorted index tuples, ascending, bit i the i-th
_TABLE_RNG = random.Random(4093)
_TABLE = tuple(
    sorted(
        {
            tuple(sorted(_TABLE_RNG.sample(range(60), _TABLE_RNG.randint(1, 6))))
            for _ in range(24)
        }
    )
)
_MASKS = st.integers(min_value=0, max_value=2 ** len(_TABLE) - 1)


@settings(deadline=None)
@given(_FAMILIES, st.integers(min_value=0, max_value=6), _MASKS)
@example(frozenset(), 0, 0)
@example(frozenset({frozenset()}), 3, 0)
@example(frozenset(), 1, 2 ** len(_TABLE) - 1)
def test_family_writer_matches_json_dumps(family, depth, mask):
    # one table, two indents, each asked twice: the memo keeps a mask
    # family's texts apart, the empty mask included
    texts = _MaskTexts(_TABLE)
    chosen = sorted(list(row) for k, row in enumerate(_TABLE) if mask >> k & 1)
    for d in (depth, depth + 2, depth):
        indent = "\n" + "  " * d
        assert texts.text(mask, indent) == _dumps(chosen).replace("\n", indent)
    report = {"family": texts(mask), "families": [texts(mask), _rows(family)]}
    plain = {"family": chosen, "families": [chosen, _rows(family)]}
    assert "".join(_render(report)) == _dumps(plain)


def _complex_faces(cc):
    """The faces of a complex in report order."""
    cells = [c for w in cc.walls for c in w.cells]
    return cells + list(cc.chambers) + list(cc.vertices)


def _bit_rows(cc):
    """Each face's family as its mask's support rows in bit order."""
    return [[list(r) for r in masked(cc.labels.rows, f.mask)] for f in _complex_faces(cc)]


def _assert_bits_in_report_order(action, cc):
    assert list(cc.labels.rows) == sorted(tuple(sorted(s)) for s in action.support_sets())
    assert _bit_rows(cc) == [_rows(f.family) for f in _complex_faces(cc)]


def test_bit_order_is_report_order_on_golden_complexes():
    goldens = sorted((REPO / "tests" / "golden").glob("chambers_*.json"))
    assert len(goldens) == 3
    for path in goldens:
        action = load_spec(str(CORPUS / f"{path.stem[len('chambers_'):]}.json")).action
        cc = wall_chamber_decomposition(action)
        _assert_bits_in_report_order(action, cc)
        # the set bits of each face's mask are its family as reported
        result = json.loads(path.read_text())["result"]
        cells = [c for w in result["walls"] for c in w.get("cells", [w])]
        faces = cells + result["chambers"] + result.get("vertices", [])
        assert _bit_rows(cc) == [f["family"] for f in faces], path.name


def test_bit_order_is_report_order_on_chamber_workload_bases():
    spec = importlib.util.spec_from_file_location("gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(1306)
    ip = InnerProduct.identity(2)
    for base in gen.CHAMBER_BASES:
        for factors in [base, *(gen.rank2_chamber_input(rng, base) for _ in range(2))]:
            action = build_product_action(
                [TorusAction(2, [RationalVector(w) for w in f], ip) for f in factors]
            )
            _assert_bits_in_report_order(action, wall_chamber_decomposition(action))


def test_one_family_at_wall_cell_and_chamber_depth():
    texts = _MaskTexts(((0, 3, 7), (0, 4), (1, 3), (2, 10), (5,)))
    family, other = texts(0b01111), texts(0b10100)  # both hold (1, 3)
    report = {
        "walls": [{"cells": [{"family": family}, {"family": other}]}],
        "chambers": [{"family": family}, {"family": texts(0)}],
        "vertices": [{"family": other}],
    }
    rows = [[0, 3, 7], [0, 4], [1, 3], [2, 10]]
    other_rows = [[1, 3], [5]]
    plain = {
        "walls": [{"cells": [{"family": rows}, {"family": other_rows}]}],
        "chambers": [{"family": rows}, {"family": []}],
        "vertices": [{"family": other_rows}],
    }
    assert "".join(_render(report)) == _dumps(plain)


@pytest.mark.parametrize(
    "value", [1.5, [0, 0.5], {"a": float("nan")}, {1, 2}, b"x", [Fraction(1, 2)]]
)
def test_writer_refuses_values_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        _render(value)


def test_no_subcommand_renders_with_the_json_encoder(monkeypatch, tmp_path):
    # every report goes through the one string-join writer
    from gitloci.cli import _COMMANDS

    def refuse(*args, **kwargs):
        raise AssertionError("json encoder called to render a report")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json, "dump", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    commands = {argv[0] for argv in _NO_EXPANSION_ARGVS}
    assert commands == set(_COMMANDS)  # every subcommand but svg
    for command, flag, spec, *rest in _NO_EXPANSION_ARGVS:
        argv = [command, flag, str(CORPUS / spec), *rest]
        code, text = _run(argv, tmp_path)
        assert code == 0 and text.endswith("}\n"), argv


# one of the benchmark's chambers inputs: an affine image of a P2 x P2 product
_CHAMBERS_INPUT = {
    "name": "chambers0",
    "rank": 2,
    "inner_product": [[1, 0], [0, 1]],
    "factors": [
        {"weights": [[1, -2], [-2, 2], [0, 1]]},
        {"weights": [[-1, 0], [2, 1], [1, -1]]},
    ],
}


def test_chambers_finds_edge_lines_without_fraction_lines(monkeypatch, tmp_path):
    # the arrangements that `chambers` and `fan` decompose hold integers
    # only: every line's triple and every plane of the region
    from gitloci.polytope import Arrangement2D

    built = []
    init = Arrangement2D.__init__

    def recording(self, lines, region):
        init(self, lines, region)
        built.append(self)

    spec = tmp_path / "chambers0.json"
    spec.write_text(json.dumps(_CHAMBERS_INPUT))
    monkeypatch.setattr(Arrangement2D, "__init__", recording)
    for argv in (
        ["chambers", "--input", str(CORPUS / "sec7_1.json")],
        ["chambers", "--input", str(spec)],
        ["fan", "--input", str(CORPUS / "sec7_1.json")],
    ):
        built.clear()
        code, text = _run(argv, tmp_path)
        assert code == 0 and len(built) == 1, argv
        (arr,) = built
        assert arr.lines and arr.region, argv
        values = [v for ln in arr.lines for v in (ln.a, ln.b, ln.c)]
        values += [v for plane in arr.region for v in plane]
        assert all(type(v) is int for v in values), argv


def test_support_families_build_no_hull_per_support(monkeypatch, tmp_path):
    # `stability --point all` and `git_class` read every support off the
    # per-factor tables: no hull, sumset or hull test for any support
    from gitloci import polytope, stability, vgit
    from gitloci.action import TorusAction
    from gitloci.qpoly import RationalVector

    calls = {"hull_position": 0, "convex_hull_2d_int": 0, "support_weights": 0}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("hull_position", "convex_hull_2d_int"):
        for module in (polytope, stability, vgit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    monkeypatch.setattr(
        TorusAction,
        "support_weights",
        counted(TorusAction.support_weights, "support_weights"),
    )
    spec = tmp_path / "chambers0.json"
    spec.write_text(json.dumps(_CHAMBERS_INPUT))
    path = str(CORPUS / "sec7_1.json")
    for extra in ([], ["--relative-interior"]):
        code, text = _run(["stability", "--input", path, "--point", "all", *extra], tmp_path)
        assert code == 0 and len(json.loads(text)["result"]["statuses"]) == 343
    for source in (path, str(spec)):
        chi = RationalVector([Fraction(1, 3), Fraction(-2, 7)])
        assert vgit.git_class(load_spec(source).action, chi)
    assert calls == dict.fromkeys(calls, 0)
    # the counters see the single-support route
    action = load_spec(path).action
    stability.torus_status(action, next(action.iter_supports()))
    assert calls == {"hull_position": 1, "convex_hull_2d_int": 1, "support_weights": 1}


def test_extension_families_run_no_lp(monkeypatch, tmp_path):
    # the rank-3 and rank-4 extensions' families come off the same tables:
    # no hull test and no simplex program for any support
    from gitloci import linprog, polytope, stability, vgit
    from gitloci.action import build_external_extension
    from gitloci.qpoly import RationalVector

    calls = {"hull_position": 0, "solve_lp": 0}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        for module in (linprog, polytope, stability, vgit):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    code, text = _run(["external-equiv", "--input", str(CORPUS / "external_toy.json")], tmp_path)
    assert code == 0 and json.loads(text)["result"]["passed"]
    sec71 = load_spec(str(CORPUS / "sec7_1.json")).action
    ext = build_external_extension(sec71, [i % 3 for i in range(9)], 10)
    chi = RationalVector([Fraction(1, 2), Fraction(-1, 3), Fraction(9, 2)])
    assert vgit.git_class(ext, chi)
    assert calls == dict.fromkeys(calls, 0)
    # the counters see the single-hull route at rank 3
    polytope.hull_position(ext.support_weights(), chi)
    assert calls == {"hull_position": 1, "solve_lp": 1}


# p3g: three P2 factors with generic weights, 21 distinct weights and 343
# supports, whose 9 MB chambers report is too large for a golden file
_P3G_INPUT = {
    "name": "p3g",
    "rank": 2,
    "inner_product": [[1, 0], [0, 1]],
    "twist": ["0", "0"],
    "factors": [
        {"name": "f0", "weights": [[1, 0], [0, 1], [-1, -1]]},
        {"name": "f1", "weights": [[2, 0], [0, 1], [-1, -2]]},
        {"name": "f2", "weights": [[-1, 0], [0, -1], [1, 1]]},
    ],
}


def _p4_input():
    # sec7_1's three factors and a copy of its first point factor: 18
    # distinct weights and 2,401 supports
    sec71 = json.loads((CORPUS / "sec7_1.json").read_text())
    return {**_P3G_INPUT, "name": "p4", "factors": sec71["factors"] + sec71["factors"][:1]}


def _p4g_input():
    # p3g and a fourth generic factor: 45 distinct weights, 2,401 supports
    # and 95 wall lines, the largest arrangement of the pinned reports
    fourth = {"name": "f3", "weights": [[1, 1], [0, -1], [-2, 1]]}
    return {**_P3G_INPUT, "name": "p4g", "factors": [*_P3G_INPUT["factors"], fourth]}


def _report_digest(spec, tmp_path, command="chambers"):
    path = tmp_path / f"{spec['name']}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / f"{spec['name']}_{command}.json"
    assert run([command, "--input", str(path), "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_chambers_report_on_p3g_is_pinned(tmp_path):
    digest = _report_digest(_P3G_INPUT, tmp_path)
    assert digest == "1b5f4afa1cb4d799fbc712039b05b1e7198767b964f94143441f1a090ce570ab"


def test_chambers_report_on_p4_is_pinned(tmp_path):
    digest = _report_digest(_p4_input(), tmp_path)
    assert digest == "fa59437fdfabbda279c9e200c280d54c559e63df8c18ee882465891825b5bd1a"


def test_chambers_report_on_p4g_is_pinned(tmp_path):
    digest = _report_digest(_p4g_input(), tmp_path)
    assert digest == "2f8eda71eb7553b02017e387db28f58d95ef076ef2ec505ca220b60403fb69ab"


@pytest.mark.parametrize(
    "spec, pinned",
    [
        (_P3G_INPUT, "bab9245b8017ee9305351fe40ac3e43cb909b15792b260bdd9e408e8e570f5a5"),
        (_p4g_input(), "f9a38338e43ced97243847e6dc162d2fe518e18b86d31f2a3b8647d8d7fc607a"),
    ],
    ids=["p3g", "p4g"],
)
def test_strata_report_is_pinned(spec, pinned, tmp_path):
    # the minimum-norm strata of 343 and 2,401 supports, byte for byte
    assert _report_digest(spec, tmp_path, "strata") == pinned


# five specs of the sweeps benchmark at seed 1, with each one's four flows:
# between them their eliminations reach every zero-set kind, and their
# verdicts are unstable with witnesses, stable and undecided
SPECS = REPO / "tests" / "specs"
_SWEEP_FLOWS = {
    "sweep4": ("1,0", "0,1", "1,-1", "-1,2"),
    "sweep10": ("-1,2", "1,0", "2,1", "0,1"),
    "sweep15": ("1,0", "2,1", "1,-1", "1,1"),
    "sweep19": ("0,1", "1,-1", "-1,2", "1,0"),
    "sweep29": ("1,1", "1,0", "-1,2", "0,1"),
}


def _sweep_argvs():
    for name, flows in _SWEEP_FLOWS.items():
        spec = str(SPECS / f"{name}.json")
        for lam in flows:
            yield ["usweep", "--input", spec, "--point", "p", "--lambda", lam]
        yield ["hstable", "--input", spec, "--point", "p"]


def _sweep_stdout(capsys):
    printed = []
    for argv in _sweep_argvs():
        assert run(argv) == 0
        printed.append(capsys.readouterr().out)
    return "".join(printed)


def test_sweep_reports_on_the_bench_specs_are_pinned(capsys):
    digest = hashlib.sha256(_sweep_stdout(capsys).encode()).hexdigest()
    assert digest == "856b682835d2ac4bd5567f541a9977c586d6ca9798dde5ebe239457373bfd55b"


def test_sweep_eliminations_work_on_integer_lists(capsys, monkeypatch):
    # resultant, gcd_univariate and _curve_points work on integer coefficient
    # lists: no BiPoly product or substitution runs inside them.  Outside
    # them the sweeps form no product either; substitutions remain where
    # analyze_common_zeros back-substitutes a rational root of its eliminant
    # and where common_zero_avoiding restricts to a line.
    import gitloci.qpoly as qpoly

    depth = [0]
    inside = dict.fromkeys(("__mul__", "substitute"), 0)
    outside = dict(inside)
    kinds = set()

    def counted(name, method):
        def spy(self, *args):
            (inside if depth[0] else outside)[name] += 1
            return method(self, *args)

        return spy

    def kernel(fn):
        def spy(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return spy

    def kind_of(fn):
        def spy(polys):
            info = fn(polys)
            kinds.add(info.kind)
            return info

        return spy

    for name in inside:
        monkeypatch.setattr(BiPoly, name, counted(name, getattr(BiPoly, name)))
    for name in ("resultant", "gcd_univariate", "_curve_points"):
        monkeypatch.setattr(qpoly, name, kernel(getattr(qpoly, name)))
    monkeypatch.setattr(qpoly, "analyze_common_zeros", kind_of(qpoly.analyze_common_zeros))
    _sweep_stdout(capsys)
    assert kinds == {"empty", "everything", "finite", "lines", "curve", "unknown"}
    assert inside == {"__mul__": 0, "substitute": 0}
    assert outside["__mul__"] == 0 and outside["substitute"] > 0


class _Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_chambers_report_is_written_in_chunks(tmp_path, monkeypatch):
    from gitloci import cli

    rendered = []

    def recording(value):
        rendered.append(render(value))
        return rendered[-1]

    render = cli._render
    monkeypatch.setattr(cli, "_render", recording)
    monkeypatch.setattr(sys, "stdout", _Recorder())
    spec = tmp_path / "p3g.json"
    spec.write_text(json.dumps(_P3G_INPUT))
    out = tmp_path / "p3g_chambers.json"
    assert run(["chambers", "--input", str(spec)]) == 0
    assert run(["chambers", "--input", str(spec), "--output", str(out)]) == 0
    writes = sys.stdout.writes
    printed = "".join(writes).encode()
    assert out.read_bytes() == printed and len(printed) > 9 * 10**6
    # a chunk closes at the first piece that takes it to the bound
    assert len(writes) > 1
    assert all(len(w) >= cli._CHUNK for w in writes[:-1])
    assert max(map(len, writes)) <= cli._CHUNK + max(map(len, rendered[0]))
    # a small report is one write
    del writes[:]
    assert run(["chambers", "--input", str(CORPUS / "ex1_7.json")]) == 0
    assert len(writes) == 1


def test_render_error_writes_nothing(tmp_path, monkeypatch, capsys):
    from gitloci import cli

    chambers = cli._COMMANDS["chambers"]
    # a value no report holds, under a key that sorts after every other
    monkeypatch.setitem(
        cli._COMMANDS, "chambers", lambda spec, args: {**chambers(spec, args), "zz": 0.5}
    )
    spec = tmp_path / "p3g.json"
    spec.write_text(json.dumps(_P3G_INPUT))
    out = tmp_path / "p3g_chambers.json"
    for extra in ([], ["--output", str(out)]):
        with pytest.raises(TypeError):
            run(["chambers", "--input", str(spec), *extra])
        assert capsys.readouterr().out == ""
    assert not out.exists()
