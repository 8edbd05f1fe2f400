"""A derandomized fuzz of the command line on mutated JSON input.

Each seed is a valid input of ``groupeq solve`` (an abelian group,
Heisenberg(Z/9), Heisenberg(Q) and the table of H(Z/2)), of
``groupeq classify --system`` or of ``groupeq stream --group``.  An example
applies one to three mutations to the seed's JSON files: a subtree replaced
by a JSON atom, a stray field added to an object, or a field or list entry
deleted.  ``main`` runs in process with ``--format json``.  Whatever the
input, it must exit 0, 2 or 3, and a nonzero exit must name the error class
on stderr: malformed input is refused, never coerced into an answer or let
out as a traceback.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import SMALL

from groupeq.cli import main
from groupeq.nilpotent import TableGroup, heisenberg_mod

ATOMS = (None, 1.5, "1_0", 10**30, {})

H2_TABLE = TableGroup.from_handle(heisenberg_mod(2))

# name: (argv after "--format json", {file name: valid JSON document})
SEEDS = {
    "solve-abelian": (
        ["solve", "--group", "group.json", "--system", "system.json"],
        {
            "group.json": {
                "summands": [
                    {"kind": "cyclic", "p": 2, "e": 2},
                    {"kind": "prufer", "p": 3},
                    {"kind": "q"},
                ]
            },
            "system.json": {
                "vars": ["x", "y"],
                "equations": [
                    {"coeffs": {"x": 1, "y": 2}, "rhs": ["1", "1/3", "1/2"]},
                    {"coeffs": {"y": 1}, "rhs": ["3", "0", "-2"]},
                ],
            },
        },
    ),
    "solve-heisenberg-mod9": (
        ["solve", "--group", "group.json", "--system", "system.json"],
        {
            "group.json": {"kind": "heisenberg", "ring": {"kind": "mod", "p": 3, "e": 2}},
            "system.json": {
                "equations": [
                    {
                        "word": [
                            {"var": "x", "exp": 1},
                            {"const": ["1", "2", "0"]},
                            {"var": "y", "exp": -1},
                        ]
                    },
                    {"word": [{"var": "y", "exp": 1}, {"const": ["0", "1", "4"]}]},
                ]
            },
        },
    ),
    "solve-heisenberg-q": (
        ["solve", "--group", "group.json", "--system", "system.json"],
        {
            "group.json": {"kind": "heisenberg", "ring": {"kind": "q"}},
            "system.json": {
                "vars": ["x"],
                "equations": [{"word": [{"var": "x", "exp": 2}, {"const": ["1/2", "3", "-1/3"]}]}],
            },
        },
    ),
    "solve-table": (
        ["solve", "--group", "group.json", "--system", "system.json"],
        {
            "group.json": H2_TABLE.to_json(),
            "system.json": {
                "equations": [
                    {"word": [{"var": "x", "exp": 1}, {"const": H2_TABLE.index_of((1, 1, 0))}]}
                ]
            },
        },
    ),
    "classify-system": (
        ["classify", "--system", "system.json", "--primes", "2,3"],
        {
            "system.json": {
                "group": {"summands": [{"kind": "cyclic", "p": 3, "e": 1}]},
                "vars": ["x", "y"],
                "equations": [
                    {"coeffs": {"x": 2, "y": 1}, "rhs": ["1"]},
                    {"coeffs": {"x": 4, "y": 3}, "rhs": ["2"]},
                ],
            }
        },
    ),
    "stream-group": (
        ["stream", "--group", "group.json", "--depths", "5,12"],
        {
            "group.json": {
                "summands": [{"kind": "cyclic", "p": 2, "e": 3}, {"kind": "cyclic", "p": 3, "e": 1}]
            }
        },
    ),
}


def _paths(doc, path=()):
    """The path of every subtree of a JSON document, the root first."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*path, i))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(data, doc):
    """doc with one mutation drawn from data; doc itself is not changed."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    objects = [p for p in paths if isinstance(_at(doc, p), dict)]
    kind = data.draw(st.sampled_from(("replace", "add", "delete")))
    if kind == "add" and objects:
        _at(doc, data.draw(st.sampled_from(objects)))["stray"] = 1
    elif kind == "delete" and len(paths) > 1:
        path = data.draw(st.sampled_from(paths[1:]))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = data.draw(st.sampled_from(paths))
        atom = copy.deepcopy(data.draw(st.sampled_from(ATOMS)))
        if not path:
            return atom
        _at(doc, path[:-1])[path[-1]] = atom
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir, argv, docs):
    """main's exit code, stdout and stderr on the documents written to workdir."""
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc))
    argv = [str(workdir / a) if a in docs else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", *argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", sorted(SEEDS))
def test_seed_is_valid(seed, workdir):
    argv, docs = SEEDS[seed]
    code, out, err = _run(workdir, argv, docs)
    assert (code, err) == (0, ""), out
    json.loads(out)


@pytest.mark.parametrize("seed", sorted(SEEDS))
@SMALL
@given(data=st.data())
def test_mutated_input_is_answered_or_refused(seed, workdir, data):
    argv, docs = SEEDS[seed]
    docs = dict(docs)
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(docs)))
        docs[name] = _mutate(data, docs[name])
    code, out, err = _run(workdir, argv, docs)
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
        json.loads(out)
    else:
        assert re.match(r"[A-Z][A-Za-z]*: ", err), err
