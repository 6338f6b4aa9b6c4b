import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import groupkit

from groupkit.catalog import export_group
from groupkit.cli import build_parser, main
from groupkit.core import Cyclic, Dicyclic, construct, parse_recipe

from test_acceptance import COUNTEREXAMPLE_SHA256, PROPS_SHA256, REPORT_SHA256


def test_verify_max_order_1(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["verify", "--max-order", "1", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["status"] == "PASS"
    assert data["summary"]["groups"] == 1
    out = capsys.readouterr().out
    assert "status: PASS" in out


def test_verify_jobs_byte_identical(tmp_path):
    r1 = tmp_path / "r1.json"
    r8 = tmp_path / "r8.json"
    assert main(["verify", "--max-order", "12", "--jobs", "1", "--report", str(r1)]) == 0
    assert main(["verify", "--max-order", "12", "--jobs", "8", "--report", str(r8)]) == 0
    assert r1.read_bytes() == r8.read_bytes()


def test_verify_rejects_bad_config(capsys):
    assert main(["verify", "--max-order", "0"]) == 2
    assert main(["verify", "--jobs", "0"]) == 2


def test_max_order_above_the_catalog_is_refused(tmp_path, capsys):
    # the largest order the built-in catalog holds, read off the catalog
    largest = max(e.group.order for e in groupkit.builtin_catalog(512))
    assert largest == 24
    for command in ("verify", "props"):
        report = tmp_path / f"{command}.json"
        assert main([command, "--max-order", str(largest + 1), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert f"max-order {largest + 1} is above {largest}" in err, command
        assert not report.exists()
    assert main(["verify", "--max-order", "48"]) == 2
    assert "is above 24" in capsys.readouterr().err
    assert main(["props", "--max-order", "20"]) == 0


def test_catalog_command(tmp_path):
    out = tmp_path / "catalog.json"
    assert main(["catalog", "--max-order", "8", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 14
    assert all({"order", "table", "name", "recipe"} <= set(d) for d in data)


def test_decompose_trivial(tmp_path, capsys):
    path = tmp_path / "c1.json"
    export_group(construct(Cyclic(1), name="C1"), path)
    assert main(["decompose", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 1
    assert [f["order"] for f in data["factors"]] == [1]


def test_decompose_c12(tmp_path, capsys):
    path = tmp_path / "c12.json"
    export_group(construct(Cyclic(12), name="C12"), path)
    assert main(["decompose", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    factors = sorted((f["order"], f["iso_class"]) for f in data["factors"])
    assert factors == [(3, "C3"), (4, "C4")]


def test_decompose_quaternion_is_indecomposable(tmp_path, capsys):
    path = tmp_path / "q8.json"
    export_group(construct(Dicyclic(2), name="Q8"), path)
    assert main(["decompose", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [f["order"] for f in data["factors"]] == [8]
    assert data["factors"][0]["iso_class"] == "Q8"


def test_decompose_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["decompose", str(missing)]) == 2
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 1]]}))
    assert main(["decompose", str(corrupt)]) == 2
    # entries an int() cast would have accepted, and an order above the import cap
    for entry in (1.7, True, "1"):
        corrupt.write_text(json.dumps({"order": 2, "table": [[0, entry], [entry, 0]]}))
        assert main(["decompose", str(corrupt)]) == 2
    # a recipe that is not a DSL string
    for recipe in (5, None, ["C(1)"]):
        corrupt.write_text(json.dumps({"order": 1, "table": [[0]], "recipe": recipe}))
        assert main(["decompose", str(corrupt)]) == 2
    big = [[(i + j) % 513 for j in range(513)] for i in range(513)]
    corrupt.write_text(json.dumps({"order": 513, "table": big}))
    assert main(["decompose", str(corrupt)]) == 2
    assert "exceeds cap 512" in capsys.readouterr().err
    # nesting deeper than the JSON decoder and the recipe parser recurse
    deep = 200_000
    corrupt.write_text("[" * deep + "]" * deep)
    assert main(["decompose", str(corrupt)]) == 2
    nested = "P(" * 5_000 + "C(1)" + ",C(1))" * 5_000
    corrupt.write_text(json.dumps({"order": 1, "table": [[0]], "recipe": nested}))
    assert main(["decompose", str(corrupt)]) == 2
    assert capsys.readouterr().err.count("cannot load group") == 2


def test_decompose_refuses_an_order_or_name_of_the_wrong_type(tmp_path, capsys):
    # an order that is no exact int or a name that is no string: exit 2, nothing echoed
    path = tmp_path / "c1.json"
    for bad in ({"order": True}, {"order": 1.0}, {"name": {"a": [1]}}):
        path.write_text(json.dumps({"order": 1, "table": [[0]], **bad}))
        assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("cannot load group") == 3


# groups with many Remak decompositions: (recipe, sha256 of the decompose output)
DECOMPOSE_PINS = {
    "D4xC2xC2": (
        "P(P(D(4),C(2)),C(2))",
        "9fbf4a2b7ca3cbda3220efe91a3435209b13d05e8f31b2e92c99076a12668767",
    ),
    "C4xC2xC2xC2": (
        "P(P(P(C(4),C(2)),C(2)),C(2))",
        "2fee3a727ce7d2ac4e983c8c0fc054033dbfe4f9d57ad4b571564a627804c715",
    ),
    "C2xC2xC2xC2": (
        "P(P(P(C(2),C(2)),C(2)),C(2))",
        "307677ec31a19fe5a0272b336f9c29070300ea085f0fb18bb2b304724ca68f9b",
    ),
}


def test_decompose_picks_pinned_factors(tmp_path, capsys):
    for name, (dsl, digest) in DECOMPOSE_PINS.items():
        path = tmp_path / f"{name}.json"
        export_group(construct(parse_recipe(dsl), name=name), path)
        assert main(["decompose", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_counterexample_p2_exit_and_decompose_pipeline(tmp_path, capsys):
    out = tmp_path / "g16.json"
    assert main(["counterexample", "--p", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COUNTEREXAMPLE_SHA256[2]
    data = json.loads(out.read_text())
    assert data["group"]["order"] == 16
    assert all(v is True for v in data["checks"].values())
    # the bundle file feeds straight into decompose
    assert main(["decompose", str(out)]) == 0
    dec = json.loads(capsys.readouterr().out)
    assert sorted(f["order"] for f in dec["factors"]) == [2, 8]
    assert {f["iso_class"] for f in dec["factors"]} == {"C2", "D4"}


def test_counterexample_rejects_non_prime(capsys):
    assert main(["counterexample", "--p", "4"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_counterexample_huge_prime_exits_on_order_bound(capsys):
    # the order bound comes before the trial-division primality test
    assert main(["counterexample", "--p", str(2**61 - 1)]) == 2
    assert "exceeds cap 512" in capsys.readouterr().err


def test_counterexample_rejects_bad_lattice_cap(capsys):
    assert main(["counterexample", "--p", "2", "--lattice-cap", "-5"]) == 2
    assert "lattice-cap must be >= 1" in capsys.readouterr().err


def test_counterexample_p3_default_cap(tmp_path, capsys):
    out = tmp_path / "g81.json"
    assert main(["counterexample", "--p", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["checks"]["nonsplit_has_no_complement"] is None
    assert "skipped" in capsys.readouterr().err


def test_props_command(tmp_path, capsys):
    report = tmp_path / "props.json"
    assert main(["props", "--max-order", "8", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["status"] == "PASS"
    assert len(data["groups"]) == 14
    for g in data["groups"]:
        assert all(v == "pass" for v in g["properties"].values())
    assert main(["props", "--max-order", "24", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == PROPS_SHA256[24]


@pytest.mark.parametrize("command", ["verify", "props"])
def test_report_dash_writes_the_file_bytes_to_stdout(command, tmp_path, monkeypatch, capsys):
    # the summary lines move to stderr, so stdout is the report alone
    monkeypatch.chdir(tmp_path)
    assert main([command, "--max-order", "8", "--report", "report.json"]) == 0
    assert "report written to report.json" in capsys.readouterr().out
    assert main([command, "--max-order", "8", "--report", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "PASS"
    assert captured.out.encode() == (tmp_path / "report.json").read_bytes()
    assert "status: PASS" in captured.err and "report written" not in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]


def test_env_var_overrides(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "4")
    out = tmp_path / "catalog.json"
    assert main(["catalog", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 5  # orders 1..4
    # explicit flag wins over the environment
    assert main(["catalog", "--max-order", "2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 2


def test_bad_env_value_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GROUPKIT_MAX_ORDER", "three")
    assert main(["catalog"]) == 2
    assert "GROUPKIT_MAX_ORDER" in capsys.readouterr().err
    monkeypatch.delenv("GROUPKIT_MAX_ORDER")
    # a flag takes 1/true/yes or 0/false/no/empty in any case, and nothing else
    for raw, on in (("1", True), ("TRUE", True), ("yes", True),
                    ("0", False), ("False", False), ("NO", False), ("", False)):
        monkeypatch.setenv("GROUPKIT_TIMINGS", raw)
        assert build_parser().parse_args(["verify"]).timings is on, raw
    for raw in ("maybe", "on", "2", " 1"):
        monkeypatch.setenv("GROUPKIT_TIMINGS", raw)
        assert main(["catalog", "--out", str(tmp_path / "catalog.json")]) == 2, raw
        assert "GROUPKIT_TIMINGS" in capsys.readouterr().err


# runs the CLI with every import of numpy refused
_WITHOUT_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseNumpy())
try:
    import numpy
except ImportError:
    pass
else:
    sys.exit("numpy imported despite the refusal")
import groupkit
from groupkit.cli import main
if "numpy" in sys.modules:
    sys.exit("importing groupkit imported numpy")
sys.exit(main(sys.argv[1:]))
"""


def test_numpy_is_not_needed(tmp_path):
    report = tmp_path / "r.json"
    path = [str(Path(groupkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, "verify", "--max-order", "16",
         "--report", str(report)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(report.read_bytes()).hexdigest() == REPORT_SHA256[16]


def test_import_leaves_dataclasses_and_multiprocessing_unloaded():
    # compared before and after, so whatever site preloads does not count
    path = [str(Path(groupkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys; before = set(sys.modules); import groupkit; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "groupkit.harness" in loaded
    assert not loaded & {"dataclasses", "inspect", "multiprocessing"}, loaded


def test_public_api_matches_the_readme():
    # the README's "Public API" list is the contract: one line per name
    # groupkit exports, under the module that defines it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed, module = {}, None
    for line in section.splitlines():
        if line.startswith("### "):
            module = importlib.import_module(line[4:].strip("`"))
        elif line.startswith("- `"):
            name = line[3:].split("`", 1)[0]
            assert name not in listed, name
            listed[name] = module
    exported = [name for name, value in sorted(vars(groupkit).items())
                if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(listed) == exported
    for name, module in listed.items():
        value = getattr(groupkit, name)
        assert getattr(module, name) is value, (name, module.__name__)
        if hasattr(value, "__qualname__"):  # a class or function, not the Recipe union
            assert value.__module__ == module.__name__, (name, module.__name__)


def test_module_entrypoint_subprocess(tmp_path):
    report = tmp_path / "r.json"
    # the child imports the groupkit this process imported, installed or not
    path = [str(Path(groupkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-m", "groupkit", "verify", "--max-order", "6",
         "--report", str(report)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["status"] == "PASS"
