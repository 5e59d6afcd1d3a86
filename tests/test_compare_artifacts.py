"""``demos/compare_artifacts.py``: two artifact directories match when every
file is byte-equal or differs only in numbers within the tolerance."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "demos" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)

BASE = '{"q": [0.5, -1.25e-3], "note": "worst slack 1.55e-15"}\n'


def _write(root, name, files):
    folder = root / name
    folder.mkdir()
    for file, text in {"exits.txt": "a_periodic: exit 0\n", **files}.items():
        (folder / file).write_text(text)
    return str(folder)


@pytest.mark.parametrize("other, tol, code", [
    (BASE, 0.0, 0),                                                 # byte-equal
    (BASE.replace("0.5", "0.5000000000001"), 1e-12, 0),             # 1e-13 apart
    (BASE.replace("0.5", "0.5000000000001"), 1e-14, 1),
    (BASE.replace("1.55e-15", "1.5500000000001e-15"), 0.0, 1),      # a number inside a string
    (BASE.replace("worst", "least"), 1.0, 1),                       # a changed word
    (BASE.replace("0.5, ", ""), 1.0, 1),                            # a number fewer
], ids=["identical", "within", "beyond", "in-string", "word", "count"])
def test_numbers_match_within_the_tolerance(tmp_path, capsys, other, tol, code):
    a = _write(tmp_path, "a", {"x.json": BASE})
    b = _write(tmp_path, "b", {"x.json": other})
    assert compare_artifacts.main([a, b, "--tol", repr(tol)]) == code
    out = capsys.readouterr().out
    assert ("x.json: largest difference" in out) == (other != BASE)


def test_file_sets_and_exit_codes_must_match(tmp_path):
    a = _write(tmp_path, "a", {"x.json": BASE})
    assert compare_artifacts.main([a, _write(tmp_path, "b", {}), "--tol", "1"]) == 1
    c = _write(tmp_path, "c", {"x.json": BASE, "exits.txt": "a_periodic: exit 2\n"})
    assert compare_artifacts.main([a, c, "--tol", "1"]) == 1


def test_the_largest_difference_is_located(tmp_path, capsys):
    # its line and the text before it, line breaks and indents shown as one space
    text = '{\n  "q": [0.5, -1.25e-3],\n  "check": {\n    "multipliers": [0.25],\n    "sigma_min":\n      0.75\n  }\n}\n'
    moved = text.replace("0.5,", "0.50001,").replace("0.75", "0.7502")
    a = _write(tmp_path, "a", {"x.json": text})
    b = _write(tmp_path, "b", {"x.json": moved})
    assert compare_artifacts.main([a, b, "--tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "x.json: largest difference 0.0002 at line 6, after '\": { \"multipliers\": [0.25], \"sigma_min\":'\n" in out
    assert compare_artifacts.main([a, b, "--tol", "1e-6"]) == 1
    assert capsys.readouterr().out.startswith(
        "x.json: largest difference 0.0002 at line 6, after '\": { \"multipliers\": [0.25], \"sigma_min\":';"
        " mismatch: 2 of 4 numbers differ by more than 1e-06\n")
    # a changed word is reported on its own line, beside the largest difference before it
    worst, where, why = compare_artifacts.compare_text(text, moved.replace("multipliers", "eigenvalues"), 1.0)
    assert worst == abs(0.5 - 0.50001) and where == "line 2, after '{ \"q\": ['"
    assert why.endswith("apart on line 4")
