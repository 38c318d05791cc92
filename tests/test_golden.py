"""The stdout contract: every benchmark pool problem that has a golden
hash in ``bench/golden.json`` prints, with ``--seed 1``, exactly the
stdout whose sha256 is that hash (hashed as ``bench/worker.py`` does).
The problem files come from ``bench/gen.problem_text``; nothing under
``bench/`` is written."""

import contextlib
import hashlib
import io
import json
import pathlib
import types

import pytest

from chowforms.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
# Executed from its source, so that no bytecode is written under bench/.
gen = types.ModuleType("gen")
exec((BENCH / "gen.py").read_text(), gen.__dict__)

GOLDEN = json.loads((BENCH / "golden.json").read_text())
FAMILIES = sorted({name.split("/")[0] for name in GOLDEN})


def test_golden_hashes_found():
    assert len(GOLDEN) > 300 and set(FAMILIES) <= set(gen.FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_stdout_matches_golden_hash(family, tmp_path):
    command = gen.FAMILIES[family][0]
    wrong = []
    for name in sorted(n for n in GOLDEN if n.split("/")[0] == family):
        path = tmp_path / name.replace("/", "-")
        path.write_text(gen.problem_text(family, int(name.split("/")[1])))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([command, str(path), "--seed", "1"])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if rc != 0 or digest != GOLDEN[name]:
            wrong.append((name, rc))
    assert wrong == []
