"""Every canonical --json document of the bundled models, byte for byte.

Each bundled model goes through `group analyze`, `sepvar build`,
`sepvar connectivity --codim k` for k = 0..dim X, `cmdef` on
`differences`, `radical` and every manifest ideal, `verify` on every
candidate set with and without `--points` over the model's own field,
and `audit`; `reproduce` runs once per bundled name.  Each run's exit
code and stdout must equal the committed document in
`tests/data/golden_json.json`.

Run this module as a script to regenerate that file after a change that
is meant to alter a document:

    PYTHONPATH=src python tests/test_golden_json.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from sepinv import bundled
from sepinv.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_json.json"


def commands():
    """The argv of every golden document, in a fixed order."""
    out = []
    for name in bundled.names():
        bm = bundled.load(name)
        m = ["-m", name]
        out.append(["group", "analyze", *m])
        out.append(["sepvar", "build", *m])
        for k in range(bm.variety.dimension() + 1):
            out.append(["sepvar", "connectivity", *m, "--codim", str(k)])
        for ideal in ["differences", "radical", *sorted(bm.ideals)]:
            out.append(["cmdef", *m, "--ideal", ideal])
        for cand in sorted(bm.candidates):
            out.append(["verify", *m, "--set", cand])
            out.append(["verify", *m, "--set", cand,
                        "--points", str(bm.ring.field.order)])
        out.append(["audit", *m])
    out += [["reproduce", name] for name in bundled.names()]
    return [["--json", *argv] for argv in out]


def run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, buf.getvalue()]


def documents():
    return {" ".join(argv): run(argv) for argv in commands()}


def test_every_json_document_matches_the_golden_file(monkeypatch):
    for var in [v for v in os.environ if v.startswith("SEPINV_")]:
        monkeypatch.delenv(var)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = documents()
    assert sorted(actual) == sorted(golden)
    for key, doc in actual.items():
        assert doc == golden[key], key


if __name__ == "__main__":
    for var in [v for v in os.environ if v.startswith("SEPINV_")]:
        del os.environ[var]
    docs = documents()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(docs)} documents to {GOLDEN}", file=sys.stderr)
