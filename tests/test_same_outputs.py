"""tools/same_outputs.py: digests of the package's outputs that two runs
reproduce, with no elapsed time among what is hashed."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL_PATH = ROOT / "tools" / "same_outputs.py"

# A small subset of the sections: documents with elapsed_ms, and error texts
SUBSET = ["cli-errors", "exec-bad-states", "parse-errors", "parse-tokens"]


def _output(args, code=0):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TOOL_PATH), *args],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, timeout=300)
    assert run.returncode == code, run.stderr
    return run.stdout


def _run(sections):
    return json.loads(_output(sections))


def _keys(value):
    """Every dict key anywhere in a JSON-like value."""
    if isinstance(value, dict):
        return set(value) | {k for v in value.values() for k in _keys(v)}
    if isinstance(value, list):
        return {k for v in value for k in _keys(v)}
    return set()


def test_two_runs_give_the_same_digests():
    first = _run(SUBSET)
    assert list(first) == SUBSET
    assert all(len(digest) == 64 for digest in first.values())
    assert _run(SUBSET) == first


def test_raw_prints_the_text_the_digest_hashes():
    for section in ("cli-errors", "parse-tokens"):
        raw = _output(["--raw", section])
        assert hashlib.sha256(raw).hexdigest() == _run([section])[section]
        assert isinstance(json.loads(raw), list)


# The ball section's digest: the keys and steps of the n=3 and n=4 balls
# and the n=4 word maps
BALL_DIGEST = "371737de6205f52c04acdc44cb74630ef51dc7fef495297b9f719d370b702eec"


def test_the_ball_section_digests_the_search_tables():
    """The ball section runs, and the search's balls and word maps are those
    whose digest is pinned above: the keys and every stored step are the
    same bytes however the class keys are formed."""
    assert _run(["ball"]) == {"ball": BALL_DIGEST}
    records = runpy.run_path(str(TOOL_PATH))["SECTIONS"]["ball"]()
    assert [record[:1] for record in records] == [[3], [4], ["maps"]]


def test_no_elapsed_time_is_hashed():
    """The cli section drops elapsed_ms from documents that carry it."""
    sections = runpy.run_path(str(TOOL_PATH))["SECTIONS"]
    records = sections["cli"]()
    assert any(argv[0] == "run-figure" for argv, _, _ in records)
    assert "elapsed_ms" not in _keys(records)


def _diff(tmp_path, a, b, code):
    """The --diff report of texts a and b, which exits with `code`."""
    files = [tmp_path / "a.json", tmp_path / "b.json"]
    for file, text in zip(files, (a, b)):
        file.write_text(text, encoding="utf-8")
    return json.loads(_output(["--diff", *map(str, files)], code))


def test_diff_of_a_text_with_itself_is_empty(tmp_path):
    raw = _output(["--raw", "cli-errors"]).decode("utf-8")
    assert _diff(tmp_path, raw, raw, 0) == {"floats": 0, "largest": 0.0, "paths": []}


def test_diff_counts_moved_floats_and_names_every_other_difference(tmp_path):
    """A float moved by 1e-16 is counted, not named; a flipped bool and a
    shortened list are named by their JSON paths, and they fail the diff."""
    before = [["bell", 0, {"fidelity": 0.5, "passed": True, "fids": [1.0, 0.25, 0.75]}]]
    after = [["bell", 0, {"fidelity": 0.5 + 1e-16, "passed": False, "fids": [1.0, 0.25]}]]
    report = _diff(tmp_path, json.dumps(before), json.dumps(after), 1)
    assert report == {"floats": 1, "largest": abs(0.5 + 1e-16 - 0.5),
                      "paths": ['$[0][2]["fids"]', '$[0][2]["passed"]']}
    # floats alone do not fail it
    assert _diff(tmp_path, "[1.0, 0.25]", json.dumps([1.0, 0.25 + 1e-16]), 0)["floats"] == 1
