import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupeq
from groupeq import counterexamples
from groupeq.cli import main
from groupeq.nilpotent import group_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def test_classify_unimodular_matrix(files, capsys):
    path = files("m.txt", "1 -8\n0 1\n")
    code, out, _ = run(capsys, "classify", "--matrix", path)
    assert code == 0
    assert "unimodular: True" in out


def test_classify_prime_verdicts(files, capsys):
    path = files("m.txt", "2\n")
    code, out, _ = run(capsys, "classify", "--matrix", path, "--primes", "2")
    assert code == 0
    assert "nonsingular: True" in out
    assert "2-nonsingular: False" in out


def test_classify_bad_family_truncation(files, capsys):
    from groupeq.counterexamples import gen_bad
    from groupeq.systems import abelian_system_to_json

    _, system = gen_bad([2, 3, 5], 3)
    path = files("bad.json", json.dumps(abelian_system_to_json(system)))
    code, out, _ = run(capsys, "--format", "json", "classify", "--system", path)
    assert code == 0
    report = json.loads(out)
    assert report["unimodular"] is True


@pytest.mark.parametrize(
    "text, options, where",
    [
        pytest.param("1 2\n3 oops\n", (), "line 2", id="word"),
        pytest.param("1 2\n1_0 \u0663\n", (), "line 2, column 1", id="underscore"),
        pytest.param("1 2\n3 \u0663\n", (), "line 2, column 2", id="arabic-indic-digit"),
        pytest.param("1 2\n3 4\n", ("--primes", "1_1,3"), "'1_1'", id="primes-underscore"),
        pytest.param("1 2\n3 4\n", ("--primes", "2,\u0663"), "'\u0663'", id="primes-arabic-indic-digit"),
        pytest.param("1 2\n3 4\n", ("--primes", "2,,3"), "''", id="primes-empty-item"),
        # an empty list is a malformed list, not an absent option
        pytest.param("1 2\n3 4\n", ("--primes", ""), "''", id="primes-empty"),
        pytest.param(
            "1 2\n3 4\n", ("--system", "s.json"), "exactly one of", id="matrix-and-system"
        ),
    ],
)
def test_classify_parse_error_exit_2(files, capsys, text, options, where):
    path = files("bad.txt", text)
    code, _, err = run(capsys, "classify", "--matrix", path, *options)
    assert code == 2
    assert where in err


def test_classify_without_input_exit_2(capsys):
    code, out, err = run(capsys, "classify")
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:") and "exactly one of" in err


def test_solve_over_z8(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":3}]}')
    system = files("s.json", '{"vars":["x"],"equations":[{"coeffs":{"x":3},"rhs":["1"]}]}')
    code, out, _ = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 0
    assert json.loads(out) == {"solution": {"x": ["3"]}}


def test_unverified_answer_is_refused_with_exit_4(files, capsys, monkeypatch):
    from groupeq import solve_abelian
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.errors import VerificationFailed
    from groupeq.systems import AbelianEquation, AbelianSystem

    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":3}]}')
    system = files("s.json", '{"vars":["x"],"equations":[{"coeffs":{"x":3},"rhs":["1"]}]}')
    monkeypatch.setattr(solve_abelian, "verify_solution", lambda system, assignment: False)
    A = AbelianGroupDescriptor([Summand.cyclic(2, 3)])
    with pytest.raises(VerificationFailed):
        solve_abelian.solve_bounded(AbelianSystem(A, [AbelianEquation({"x": 3}, A.element([1]))]))
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (4, "")
    assert "VerificationFailed: solver produced a non-solution" in err

    # word systems go through the same check: the abelian centre solves pass,
    # the nilpotent solver's and the table search's final checks do not
    from groupeq.nilpotent import TableGroup, WordSystem, brute_force_group_solve, heisenberg_mod
    from groupeq.systems import GroupEquation, VarPow

    def abelian_only(system, assignment):
        return not isinstance(system, WordSystem)

    monkeypatch.setattr(solve_abelian, "verify_solution", abelian_only)
    table = TableGroup.from_handle(heisenberg_mod(2))
    with pytest.raises(VerificationFailed):
        brute_force_group_solve(WordSystem(table, [GroupEquation([VarPow("x", 1)])]))
    group = files("h.json", HEISENBERG_3)
    system = files("w.json", X_TIMES_X1)
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (4, "")
    assert "VerificationFailed: solver produced a non-solution" in err


def test_wrong_smith_form_is_refused_with_exit_4(files, capsys, monkeypatch):
    # solve_divisible trusts its column reduction M*V = [L | 0]; the final
    # check must still catch a wrong L
    from groupeq import solve_abelian
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.errors import VerificationFailed
    from groupeq.systems import AbelianEquation, AbelianSystem

    exact = solve_abelian._column_hermite

    def doubled(rows):
        L, V = exact(rows)
        L = [row[:] for row in L]
        L[0][0] *= 2
        return L, V

    monkeypatch.setattr(solve_abelian, "_column_hermite", doubled)
    Q = AbelianGroupDescriptor([Summand.rational()])
    system = AbelianSystem(
        Q,
        [
            AbelianEquation({"x": 1, "y": 2}, Q.element([1])),
            AbelianEquation({"y": 1}, Q.element([3])),
        ],
    )
    with pytest.raises(VerificationFailed):
        solve_abelian.solve_divisible(system)
    group = files("g.json", '{"summands":[{"kind":"q"}]}')
    path = files(
        "s.json",
        '{"vars":["x","y"],"equations":[{"coeffs":{"x":1,"y":2},"rhs":["1"]},'
        '{"coeffs":{"y":1},"rhs":["3"]}]}',
    )
    code, out, err = run(capsys, "solve", "--group", group, "--system", path)
    assert (code, out) == (4, "")
    assert "VerificationFailed: solver produced a non-solution" in err


def test_solve_integer_line_exit_3(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"z"}]}')
    system = files("s.json", '{"vars":["x"],"equations":[{"coeffs":{"x":1},"rhs":["1"]}]}')
    code, _, err = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 3
    assert "UnsupportedGroup" in err


def test_solve_singular_exit_3(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"q"}]}')
    system = files(
        "s.json",
        '{"vars":["x","y"],"equations":['
        '{"coeffs":{"x":1,"y":1},"rhs":["1/1"]},'
        '{"coeffs":{"x":2,"y":2},"rhs":["0/1"]}]}',
    )
    code, _, err = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 3
    assert "Singular" in err


def test_solve_heisenberg_q_square_root(files, capsys):
    group = files("g.json", '{"kind":"heisenberg","ring":{"kind":"q"}}')
    system = files(
        "s.json",
        '{"vars":["x"],"equations":[{"word":['
        '{"var":"x","exp":2},{"const":["-1/1","-1/1","0/1"]}]}]}',
    )
    code, out, _ = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 0
    solution = json.loads(out)["solution"]
    assert solution["x"] == ["1/2", "1/2", "3/8"]


def test_solve_bad_json_exit_2(files, capsys):
    group = files("g.json", "{not json")
    system = files("s.json", "{}")
    code, _, err = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 2
    assert "ParseError" in err


def test_solve_missing_keys_exit_2(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":1}]}')
    system = files("s.json", '{"equations":[{"word":[{"var":"x","exp":1}]}]}')
    code, _, err = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 2


ONE_SUMMAND = '{"summands":[{"kind":%s}]}'
Z4 = ONE_SUMMAND % '"cyclic","p":2,"e":2'
X_EQUALS = '{"vars":["x"],"equations":[{"coeffs":{"x":%s},"rhs":%s}]}'
X_ONE = X_EQUALS % ("1", '["1"]')


HEISENBERG_3 = '{"kind":"heisenberg","ring":{"kind":"mod","p":3}}'
X_TIMES_C = '{"equations":[{"word":[{"var":"x","exp":%s},{"const":%s}]}]}'
X_TIMES_X1 = X_TIMES_C % ("1", '["1","0","0"]')
Z2_TABLE = '{"kind":"table","table":[[0,1],[1,0]]}'


@pytest.mark.parametrize(
    "group, system",
    [
        pytest.param(Z4, X_EQUALS % ("1", '["1","5","7"]'), id="extra-coordinates"),
        pytest.param(Z4, X_EQUALS % ("1", "[]"), id="missing-coordinate"),
        pytest.param(Z4, X_EQUALS % ("1.9", '["1"]'), id="float-coefficient"),
        pytest.param(Z4, X_EQUALS % ("true", '["1"]'), id="bool-coefficient"),
        pytest.param(Z4, X_EQUALS % ("1", '["1/2"]'), id="fraction-in-cyclic"),
        pytest.param(Z4, X_EQUALS % ("1", "[1.0]"), id="float-coordinate"),
        pytest.param(ONE_SUMMAND % '"cyclic","p":2.9,"e":1', X_ONE, id="float-prime"),
        pytest.param(ONE_SUMMAND % '"cyclic","p":"2","e":true', X_ONE, id="bool-exponent"),
        pytest.param(ONE_SUMMAND % '"q","p":3', X_ONE, id="stray-field"),
        pytest.param(ONE_SUMMAND % '"q"', X_EQUALS % ("1", '["1/0"]'), id="zero-denominator"),
        pytest.param(ONE_SUMMAND % '"q"', X_EQUALS % ("1", "[0.5]"), id="float-rational"),
        pytest.param(HEISENBERG_3, X_TIMES_C % ("2.5", '["1","0","0"]'), id="float-word-exponent"),
        pytest.param(HEISENBERG_3, X_TIMES_C % ("1", '["1","0"]'), id="short-heisenberg-element"),
        pytest.param('{"summands":5}', X_ONE, id="summands-not-array"),
        pytest.param('{"summands":[5]}', X_ONE, id="summand-not-object"),
        pytest.param("[1,2]", X_ONE, id="group-not-object"),
        pytest.param(Z4, "[1]", id="system-not-object"),
        pytest.param(Z4, '{"vars":["x"],"equations":5}', id="equations-not-array"),
        pytest.param(Z4, '{"vars":["x"],"equations":[5]}', id="equation-not-object"),
        pytest.param(Z4, '{"equations":[{"coeffs":["x"],"rhs":["1"]}]}', id="coeffs-not-object"),
        pytest.param(Z4, '{"vars":"x","equations":[]}', id="vars-string"),
        pytest.param(Z4, '{"vars":"xy","equations":[]}', id="vars-string-of-names"),
        pytest.param(Z4, '{"vars":["x",1],"equations":[]}', id="vars-not-strings"),
        pytest.param('{"kind":"heisenberg","ring":5}', X_TIMES_X1, id="ring-not-object"),
        pytest.param(
            '{"kind":"heisenberg","ring":{"kind":"q","p":5}}', X_TIMES_X1, id="q-ring-stray-field"
        ),
        pytest.param(
            '{"kind":"heisenberg","ring":{"kind":"mod","p":3,"e":2,"x":7}}',
            X_TIMES_X1,
            id="mod-ring-stray-field",
        ),
        pytest.param(HEISENBERG_3, '{"equations":[{"word":{"var":"x"}}]}', id="word-not-array"),
        pytest.param(HEISENBERG_3, '{"equations":[{"word":["x"]}]}', id="literal-not-object"),
        pytest.param(HEISENBERG_3, '{"equations":[{"word":[{"var":1,"exp":1}]}]}', id="var-int"),
        pytest.param('{"kind":"table","table":5}', '{"equations":[]}', id="table-not-array"),
        pytest.param(
            '{"kind":"table","table":[[0,1,2],[1,2,0],[2,0,7]]}',
            '{"equations":[]}',
            id="table-entry-out-of-range",
        ),
        pytest.param(Z2_TABLE, X_TIMES_C % ("1", "5"), id="table-constant-too-large"),
        pytest.param(Z2_TABLE, X_TIMES_C % ("1", "-1"), id="table-constant-negative"),
        pytest.param(
            ONE_SUMMAND % '"cyclic","p":2,"e":2000000', X_ONE, id="exponent-too-large-cyclic"
        ),
        pytest.param(
            '{"kind":"heisenberg","ring":{"kind":"mod","p":2,"e":2000000}}',
            X_TIMES_C % ("1", '["0","0","0"]'),
            id="exponent-too-large-heisenberg",
        ),
        # every JSON object holds exactly its documented fields
        pytest.param(
            ONE_SUMMAND % '"cyclic","p":2,"e":1',
            '{"group":{"summands":[{"kind":"cyclic","p":3,"e":1}]},'
            '"equations":[{"coeffs":{"x":2},"rhs":["1"]}]}',
            id="system-overrides-group",
        ),
        pytest.param(
            '{"kind":"heisenberg","ring":{"kind":"mod","p":3},'
            '"summands":[{"kind":"cyclic","p":3,"e":1}]}',
            X_ONE,
            id="heisenberg-with-summands",
        ),
        pytest.param(
            HEISENBERG_3,
            '{"equations":[{"word":[{"var":"x","exp":1,"const":["1","0","0"]}]}]}',
            id="literal-var-and-const",
        ),
        pytest.param(
            '{"kind":"heisenberg","ring":{"kind":"mod","p":3},"x":7}',
            X_TIMES_X1,
            id="heisenberg-stray-field",
        ),
        pytest.param(
            '{"kind":"table","table":[[0,1],[1,0]],"x":1}', '{"equations":[]}', id="table-stray-field"
        ),
        pytest.param(
            '{"kind":"abelian","group":%s,"x":1}' % Z4,
            X_TIMES_C % ("1", '["3"]'),
            id="abelian-handle-stray-field",
        ),
        pytest.param(
            '{"summands":[{"kind":"cyclic","p":2,"e":2}],"x":1}', X_ONE, id="group-stray-field"
        ),
        pytest.param(
            Z4,
            '{"vars":["x"],"extra":1,"equations":[{"coeffs":{"x":1},"rhs":["1"]}]}',
            id="abelian-system-stray-field",
        ),
        pytest.param(
            Z4,
            '{"equations":[{"coeffs":{"x":1},"rhs":["1"],"junk":3}]}',
            id="abelian-equation-stray-field",
        ),
        pytest.param(
            HEISENBERG_3,
            '{"extra":1,"equations":[{"word":[{"var":"x","exp":1},{"const":["1","0","0"]}]}]}',
            id="word-system-stray-field",
        ),
        pytest.param(
            HEISENBERG_3,
            '{"equations":[{"word":[{"var":"x","exp":1},{"const":["1","0","0"]}],"junk":3}]}',
            id="word-equation-stray-field",
        ),
        # parsing keeps Python's int-to-str digit limit (4300 digits)
        pytest.param(Z4, X_EQUALS % ("1" * 4301, '["1"]'), id="coefficient-over-digit-limit"),
    ],
)
def test_solve_rejects_inexact_json_exit_2(files, capsys, group, system):
    group, system = files("g.json", group), files("s.json", system)
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (2, "")
    assert "ParseError" in err


def test_solve_mixed_abelian_handle_exit_3(files, capsys):
    # a class-1 handle over Z/2 + Q has no bounded period, so it takes the
    # divisible route, which Z/2 rules out
    summands = '[{"kind":"cyclic","p":2,"e":1},{"kind":"q"}]'
    group = files("g.json", '{"kind":"abelian","group":{"summands":%s}}' % summands)
    system = files("s.json", X_TIMES_C % ("1", '["1","1/2"]'))
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (3, "")
    assert "UnsupportedGroup: solve_divisible needs every summand divisible" in err


def test_solve_over_large_prime_summand(files, capsys):
    p = 10**18 + 3
    group = files("g.json", '{"summands":[{"kind":"cyclic","p":%d,"e":1}]}' % p)
    system = files("s.json", X_EQUALS % ("3", '["1"]'))
    code, out, _ = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 0
    assert json.loads(out) == {"solution": {"x": [str(pow(3, -1, p))]}}


def test_solve_abelian_handle_group(files, capsys):
    group = files("g.json", '{"kind":"abelian","group":{"summands":[{"kind":"cyclic","p":2,"e":2}]}}')
    system = files(
        "s.json",
        '{"vars":["x"],"equations":[{"word":[{"var":"x","exp":1},{"const":["3"]}]}]}',
    )
    code, out, _ = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 0
    assert json.loads(out)["solution"]["x"] == ["1"]  # inverse of 3 in Z/4


def test_solve_table_group(files, capsys):
    import json as _json

    from groupeq.nilpotent import TableGroup, heisenberg_mod

    table = TableGroup.from_handle(heisenberg_mod(2))
    g = table.index_of((1, 1, 0))
    group = files("g.json", _json.dumps(table.to_json()))
    system = files(
        "s.json",
        _json.dumps({"vars": ["x"], "equations": [{"word": [{"var": "x", "exp": 1}, {"const": g}]}]}),
    )
    code, out, _ = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 0
    assert _json.loads(out)["solution"]["x"] == table.invert(g)


def test_demo_pbad_table(capsys):
    code, out, _ = run(capsys, "demo", "pbad", "--p", "2", "--depth", "5")
    assert code == 0
    rows = [line for line in out.splitlines() if "order_of_x1" in line]
    assert len(rows) == 4  # depths 2..5


def test_demo_bad_supports(capsys):
    code, out, _ = run(capsys, "--format", "json", "demo", "bad", "--primes", "2,3,5,7", "--depth", "4")
    assert code == 0
    reports = json.loads(out)
    assert [int(r["observed"]) for r in reports] == [1, 2, 3, 4]


def test_demo_zbad_bounds(capsys):
    code, out, _ = run(capsys, "--format", "json", "demo", "zbad", "--depth", "3", "--scan", "5000")
    assert code == 0
    reports = json.loads(out)
    assert [int(r["observed"]) for r in reports] == [3, 27, 135]


def test_stream_passes(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":2},{"kind":"cyclic","p":3,"e":2}]}')
    code, out, _ = run(capsys, "stream", "--group", group, "--seed", "5", "--depths", "10,50")
    assert code == 0
    assert out.splitlines() == ["depth 10: PASS", "depth 50: PASS"]


def test_stream_trivial_group(files, capsys):
    group = files("g.json", '{"summands":[]}')
    code, out, _ = run(capsys, "stream", "--group", group, "--seed", "1", "--depths", "5")
    assert code == 0
    assert "PASS" in out


def test_stream_json_deterministic(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":2}]}')
    args = ("--format", "json", "stream", "--group", group, "--seed", "9", "--depths", "10,25")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_demo_json_deterministic(capsys):
    args = ("--format", "json", "demo", "pbad", "--depth", "6")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("stream", "--depths", "-1"), id="stream"),
        pytest.param(("stream", "--depths", "5,-3"), id="stream-list"),
        pytest.param(("demo", "pbad", "--depth", "-2"), id="pbad"),
        pytest.param(("demo", "bad", "--depth", "-1"), id="bad"),
        pytest.param(("demo", "zbad", "--depth", "-1"), id="zbad"),
        pytest.param(("demo", "zbad", "--scan", "-1"), id="zbad-scan"),
        pytest.param(("stream", "--depths", "1_0"), id="stream-underscore"),
        pytest.param(("stream", "--depths", "5,,10"), id="stream-empty-item"),
        pytest.param(("stream", "--depths", ""), id="stream-empty"),
        pytest.param(("demo", "bad", "--primes", "", "--depth", "2"), id="bad-primes-empty"),
        pytest.param(("stream", "--seed", "\u0663"), id="stream-seed"),
        pytest.param(("demo", "pbad", "--depth", "1_0"), id="pbad-underscore"),
        pytest.param(("demo", "pbad", "--p", "\u0663"), id="pbad-p"),
        pytest.param(("demo", "bad", "--primes", "1_1,3", "--depth", "1"), id="bad-primes"),
        pytest.param(("demo", "zbad", "--scan", " 10"), id="zbad-scan-space"),
        # an option of another family is refused, not ignored
        pytest.param(("demo", "pbad", "--primes", "1_1", "--depth", "2"), id="pbad-primes"),
        pytest.param(("demo", "zbad", "--p", "4", "--depth", "1", "--scan", "10"), id="zbad-p"),
        pytest.param(("demo", "bad", "--p", "4", "--scan", "-1", "--depth", "1"), id="bad-p-scan"),
        # over Python's int-from-string digit limit: named by its length, not echoed
        pytest.param(("demo", "pbad", "--depth", "1" * 5000), id="pbad-depth-over-digit-limit"),
    ],
)
def test_negative_depth_exit_2(files, capsys, argv):
    if argv[0] == "stream":
        argv = ("stream", "--group", files("g.json", Z4)) + argv[1:]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "ParseError" in err
    assert err.startswith("ParseError:") and len(err) < 200


@pytest.mark.parametrize(
    "argv, family",
    [
        pytest.param(("demo", "pbad", "--depth", "21"), "pbad_growth", id="pbad-p2"),
        pytest.param(("demo", "pbad", "--p", "3", "--depth", "20"), "pbad_growth", id="pbad-p3"),
        pytest.param(("demo", "pbad", "--depth", "10000000000"), "pbad_growth", id="pbad-huge"),
        pytest.param(("demo", "bad", "--depth", "7"), "bad_support_check", id="bad"),
        pytest.param(("demo", "bad", "--primes", "2,3", "--depth", "3"), "bad_support_check", id="bad-primes"),
    ],
)
def test_demo_refuses_an_over_limit_depth_before_computing(capsys, monkeypatch, argv, family):
    calls = []

    def record(*args):
        calls.append(args)
        raise AssertionError(f"{family}{args} ran before the depth was checked")

    monkeypatch.setattr(counterexamples, family, record)
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (2, "", [])
    assert "ParseError" in err


@pytest.mark.parametrize("p", ["0", "4"])
def test_demo_pbad_refuses_a_non_prime_p_at_every_depth(capsys, monkeypatch, p):
    monkeypatch.setattr(counterexamples, "pbad_growth", None)  # no row may run
    for depth in ("0", "1", "3"):
        code, out, err = run(capsys, "demo", "pbad", "--p", p, "--depth", depth)
        assert (code, out) == (3, "")
        assert err.startswith("NotPrime")


@pytest.mark.parametrize("p, depth", [(2, 20), (3, 19)])
def test_demo_pbad_accepts_the_largest_depth_under_the_cap(capsys, monkeypatch, p, depth):
    calls = []
    report = counterexamples.pbad_growth(p, 2)

    def record(p, j):
        calls.append(j)
        return report

    monkeypatch.setattr(counterexamples, "pbad_growth", record)
    code, _, err = run(capsys, "demo", "pbad", "--p", str(p), "--depth", str(depth))
    assert (code, err, calls) == (0, "", list(range(2, depth + 1)))


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("demo", "pbad", "--depth", "12"), id="text"),
        pytest.param(("--format", "json", "demo", "pbad", "--depth", "12"), id="json"),
        pytest.param(("demo", "zbad", "--depth", "1", "--scan", "10"), id="short"),
    ],
)
def test_closed_stdout_stops_quietly(argv):
    src = str(Path(groupeq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "groupeq.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_demo_options_do_not_carry_over_between_calls(capsys):
    code, out, _ = run(capsys, "demo", "pbad", "--p", "3", "--depth", "2")
    assert code == 0 and out.splitlines()[1].split() == ["2", "order_of_x1", "9", "9"]
    code, out, _ = run(capsys, "demo", "pbad", "--depth", "2")
    assert code == 0 and out.splitlines()[1].split() == ["2", "order_of_x1", "4", "4"]


def test_zero_depth_is_valid(files, capsys):
    code, out, _ = run(capsys, "stream", "--group", files("g.json", Z4), "--depths", "0")
    assert (code, out) == (0, "depth 0: PASS\n")
    code, out, _ = run(capsys, "--format", "json", "demo", "pbad", "--depth", "0")
    assert (code, out) == (0, "[]\n")


# -- answers beyond Python's int-to-str digit limit ------------------------------------


@pytest.fixture
def lift_digit_limit():
    """Call to lift the int-to-str digit limit for the rest of a test, after
    checking that the CLI restored it."""
    limit = sys.get_int_max_str_digits()

    def lift():
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)

    yield lift
    sys.set_int_max_str_digits(limit)


def test_solve_writes_an_answer_of_any_length(files, capsys, lift_digit_limit):
    group = files("g.json", ONE_SUMMAND % '"cyclic","p":2,"e":20000')
    system = files("s.json", X_EQUALS % ("3", '["1"]'))
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, err) == (0, "")
    lift_digit_limit()
    (x,) = json.loads(out)["solution"]["x"]
    assert len(x) > 4300 and 3 * int(x) % 2**20000 == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_demo_pbad_writes_bounds_of_any_length(capsys, fmt, lift_digit_limit):
    code, out, err = run(capsys, "--format", fmt, "demo", "pbad", "--depth", "15")
    assert (code, err) == (0, "")
    lift_digit_limit()
    if fmt == "json":
        bounds = [r["bound"] for r in json.loads(out)]
    else:
        bounds = [line.split()[2] for line in out.splitlines() if "order_of_x1" in line]
    assert len(bounds) == 14 and len(bounds[-1]) > 4300


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_writes_divisors_of_any_length(files, capsys, fmt, lift_digit_limit):
    a, b = 10**3999 + 7, 10**3999 + 9  # 4000 digits each, coprime
    matrix = files("m.txt", f"{a} 0\n0 {b}\n")
    code, out, err = run(capsys, "--format", fmt, "classify", "--matrix", matrix)
    assert (code, err) == (0, "")
    lift_digit_limit()
    if fmt == "json":
        assert json.loads(out)["elementary_divisors"] == [1, a * b]
    else:
        assert out.splitlines()[-1] == f"elementary divisors: {[1, a * b]}"


def word_system_json(*words) -> str:
    """A word system whose literals are (var, exp) pairs or constant coordinate lists;
    exponents are written as decimal strings, so they may exceed the digit limit of
    the JSON encoder."""
    equations = [
        {
            "word": [
                {"var": lit[0], "exp": str(lit[1])} if isinstance(lit, tuple) else {"const": lit}
                for lit in word
            ]
        }
        for word in words
    ]
    return json.dumps({"equations": equations})


HEISENBERG_Z8 = '{"kind":"heisenberg","ring":{"kind":"mod","p":2,"e":3}}'
HEISENBERG_Q = '{"kind":"heisenberg","ring":{"kind":"q"}}'


def test_refusal_with_divisors_of_any_length(files, capsys, lift_digit_limit):
    n = 10**4200  # every exponent has fewer than 4,300 digits, the determinant 8,401
    group = files("g.json", HEISENBERG_Z8)
    system = files(
        "s.json", word_system_json([("x", 10 * n + 1), ("y", -n)], [("y", n), ("x", -n)])
    )
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (3, "")
    assert err.startswith("NotUnimodular: system is not unimodular (elementary divisors [1, ")
    lift_digit_limit()
    det = (10 * n + 1) * n - n * n
    assert err == f"NotUnimodular: system is not unimodular (elementary divisors {[1, det]})\n"


@pytest.mark.parametrize(
    "group, c1, c2",
    [
        pytest.param(HEISENBERG_Z8, ["3", "5", "7"], ["1", "6", "2"], id="z8"),
        pytest.param(HEISENBERG_Q, ["1/2", "-3/4", "5/6"], ["-2/3", "1/5", "7/9"], id="q"),
    ],
)
def test_solve_takes_exponents_up_to_the_input_digit_limit(
    files, capsys, lift_digit_limit, group, c1, c2
):
    # c1 x**(n+1) y**n = 1 and y c2 x = 1 is unimodular (determinant 1)
    n = 10**4200
    words = ([c1, ("x", n + 1), ("y", n)], [("y", 1), c2, ("x", 1)])
    group_path = files("g.json", group)
    system = files("s.json", word_system_json(*words))
    code, out, err = run(capsys, "solve", "--group", group_path, "--system", system)
    assert (code, err) == (0, "")
    lift_digit_limit()
    G = group_from_json(json.loads(group))
    x, y = (G.element_from_json(c) for c in map(json.loads(out)["solution"].get, "xy"))
    c1, c2 = G.element_from_json(c1), G.element_from_json(c2)
    lhs1 = G.multiply(G.multiply(c1, G.power(x, n + 1)), G.power(y, n))
    assert lhs1 == G.identity()
    assert G.multiply(G.multiply(y, c2), x) == G.identity()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("solve", "--group", "DIR", "--system", "DIR"), id="solve"),
        pytest.param(("classify", "--matrix", "DIR"), id="classify"),
        pytest.param(("stream", "--group", "DIR"), id="stream"),
    ],
)
def test_unreadable_path_exit_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(str(tmp_path) if a == "DIR" else a for a in argv))
    assert (code, out, err) == (2, "", f"cannot read {tmp_path}\n")
