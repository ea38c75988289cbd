"""Whole reports, byte for byte, against outputs recorded in tests/data.

Each case runs `ffec` in-process, checks its exit status (0 unless
STATUS names another) and compares its stdout with
tests/data/<case>.jsonl after masking what may differ between runs and
machines: the `seconds` of the summary record, the Python version of the
meta record, and the directory of the curve file in its command line.

To record the outputs again (only when a report is meant to change), all
cases or the named ones:

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from ffec import cli

DATA = pathlib.Path(__file__).parent / "data"

CASES = {
    "points-p3": ["points", "--p", "3"],
    "points-p5": ["points", "--p", "5"],
    "points-p7": ["points", "--p", "7"],
    "points-p3-f2": ["points", "--p", "3", "--f", "2"],
    "points-p5-f2": ["points", "--p", "5", "--f", "2"],
    "tower-e9-f2-scan2": ["tower", "--curve", "e9-f2.curve", "--scan", "2"],
    "tower-e7-f2-d9-mu": ["tower", "--curve", "e7-f2.curve", "--d", "9", "--mu"],
    "analyze-e7-f2": ["analyze", "--curve", "e7-f2.curve"],
    "analyze-e9-f3": ["analyze", "--curve", "e9-f3.curve"],
    "analyze-first-example-f4": ["analyze", "--curve", "first-example-f4.curve"],
    "analyze-additive-f5": ["analyze", "--curve", "additive-f5.curve"],
    "analyze-degree-two-place-f5": ["analyze", "--curve", "degree-two-place-f5.curve"],
    "analyze-non-minimal-f5": ["analyze", "--curve", "non-minimal-f5.curve"],
    "tower-e7-swapped-f2-d101-cap": ["tower", "--curve", "e7-swapped-f2.curve",
                                     "--d", "101"],
}

# exit statuses other than 0: a cap ends the report in an error record
STATUS = {"tower-e7-swapped-f2-d101-cap": 1}


def _masked(record: dict) -> dict:
    if record["record"] == "summary":
        record["seconds"] = None
    elif record["record"] == "meta":
        record["command"] = [pathlib.Path(a).name if a.endswith(".curve") else a
                             for a in record["command"]]
        record["versions"]["python"] = None
    return record


def report(argv, status=0) -> str:
    """The masked stdout of `ffec argv`, with curve files read from DATA;
    the command must exit with status."""
    argv = [str(DATA / a) if a.endswith(".curve") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == status
    return "".join(
        json.dumps(_masked(json.loads(line)), sort_keys=True, separators=(",", ":")) + "\n"
        for line in out.getvalue().splitlines())


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_recording(case):
    want = (DATA / f"{case}.jsonl").read_text(encoding="utf-8")
    assert report(CASES[case], STATUS.get(case, 0)) == want


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases {unknown}; known: {sorted(CASES)}")
    for name in names:
        text = report(CASES[name], STATUS.get(name, 0))
        (DATA / f"{name}.jsonl").write_text(text, encoding="utf-8")
        print(f"recorded {name}", file=sys.stderr)
