"""Exit status of tools/artifact_diff.py compare, on synthetic directories."""
import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "artifact_diff.py")
_SPEC = importlib.util.spec_from_file_location("artifact_diff_tool", _PATH)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)

ARTIFACTS = {
    "bound-su2": ("bound.json", json.dumps({"total": 0.25, "tolerances": {"total": 1e-9}})),
    "walk-so3": ("walk.csv", "# tolerances={\"float_slack\": 1e-11}\nstep,total\n1,0.5\n"),
    "fail-bad-M": ("failure.txt", "exit 2\nerror: bad M\n"),
}


def write_set(root, skip=()):
    os.makedirs(os.path.join(root, "inputs"))
    for name, (file_name, text) in ARTIFACTS.items():
        if name in skip:
            continue
        os.makedirs(os.path.join(root, name))
        with open(os.path.join(root, name, file_name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return str(root)


def test_identical_sets_exit_0(tmp_path, capsys):
    a, b = write_set(tmp_path / "a"), write_set(tmp_path / "b")
    assert artifact_diff.compare(a, b) == 0
    assert "3 of 3 artifacts byte-identical" in capsys.readouterr().out


def test_one_changed_byte_exits_1(tmp_path, capsys):
    a, b = write_set(tmp_path / "a"), write_set(tmp_path / "b")
    path = os.path.join(b, "bound-su2", "bound.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("0.25", "0.26"))
    assert artifact_diff.compare(a, b) == 1
    out = capsys.readouterr().out
    assert "bound-su2: differs" in out and "2 of 3 artifacts byte-identical" in out


@pytest.mark.parametrize("side", ["a", "b"])
def test_missing_artifact_exits_1(tmp_path, capsys, side):
    sets = {s: write_set(tmp_path / s, skip=("walk-so3",) if s == side else ())
            for s in ("a", "b")}
    assert artifact_diff.compare(sets["a"], sets["b"]) == 1
    assert f"walk-so3: missing in {side.upper()}" in capsys.readouterr().out
