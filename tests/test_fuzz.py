"""Seeded fuzz of the command line: every call ends in an exit code of
the contract (0..4) and raises nothing.

Inputs are mutations of a generated k = 1 instance document (one field
at a time set to null, a bool, a negative int, a list, a dict or a
string), mutations of a 3x3 edge list, and argument lists whose option
values are replaced by `--`, `nan`, `-1`, `x` and the like.
"""

import copy
import json
import random

import pytest

from gridlinkage import build_instance, make_grid, serialize_instance, write_edge_list
from gridlinkage.cli import main
from gridlinkage.construction import S0_BOTTOM_LEFT

SEED = 6
CONTRACT = range(5)

FIELD_VALUES = (None, True, -1, [1], {"1": 1}, "x")
TOKEN_VALUES = ("-1", "0", "x", "1.5", "nan", "", "10")
OPTION_VALUES = ("--", "nan", "-1", "x", "inf", "0", "")


def field_paths(doc, prefix=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def with_field(doc, path, value):
    out = copy.deepcopy(doc)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def run(argv):
    code = main(argv)
    assert code in CONTRACT, (argv, code)


@pytest.fixture
def k1_doc():
    return json.loads(serialize_instance(build_instance(1, s0_placement=S0_BOTTOM_LEFT)))


def test_instance_document_mutations(k1_doc, tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "inst.json"
    mutations = [(p, v) for p in field_paths(k1_doc) for v in FIELD_VALUES]
    for field, value in rng.sample(mutations, 400):
        path.write_text(json.dumps(with_field(k1_doc, field, value)))
        command = rng.choice(("solve", "verify", "width", "render"))
        run([command, str(path)])
        capsys.readouterr()


def test_edge_list_mutations(tmp_path, capsys):
    lines = write_edge_list(make_grid(3, 3)[0]).splitlines()
    path = tmp_path / "grid.col"
    texts = []
    for i, line in enumerate(lines):
        tokens = line.split()
        for j in range(len(tokens)):
            for value in TOKEN_VALUES:
                edited = tokens[:j] + [value] + tokens[j + 1:]
                texts.append(lines[:i] + [" ".join(edited)] + lines[i + 1:])
        texts.append(lines[:i] + lines[i + 1:])
        texts.append(lines[:i] + [line] + lines[i:])
    for text in texts:
        path.write_text("\n".join(text) + "\n")
        run(["width", str(path), "--budget-nodes", "20000"])
        capsys.readouterr()


def test_argv_mutations(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated --out value names a file here
    inst = tmp_path / "k1.json"
    inst.write_text(serialize_instance(build_instance(1, s0_placement=S0_BOTTOM_LEFT)))
    out = str(tmp_path / "out")
    bases = [
        ["generate", "-k", "1", "--arc-rule", "pow2", "--s0", "top-right", "--out", out],
        ["solve", str(inst), "--mode", "count", "--cap", "2", "--order", "min-degree",
         "--budget-nodes", "1000", "--budget-seconds", "5", "--out", out],
        ["verify", str(inst), "--budget-nodes", "1000", "--budget-seconds", "5"],
        ["width", str(inst), "--budget-nodes", "1000", "--budget-seconds", "5"],
        ["render", str(inst), "--format", "dot", "--out", out],
    ]
    for argv in bases:
        run(argv)
        for i, token in enumerate(argv):
            if not token.startswith("-"):
                continue
            for value in OPTION_VALUES:
                run(argv[:i + 1] + [value] + argv[i + 2:])
                run(argv[:i] + [f"{token}={value}"] + argv[i + 2:])
        capsys.readouterr()
