import json

import pytest

from groupeq.cli import main


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


def test_classify_parse_error_exit_2(files, capsys):
    path = files("bad.txt", "1 2\n3 oops\n")
    code, _, err = run(capsys, "classify", "--matrix", path)
    assert code == 2
    assert "line 2" in err


def test_solve_over_z8(files, capsys):
    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":3}]}')
    system = files("s.json", '{"vars":["x"],"equations":[{"coeffs":{"x":3},"rhs":["1"]}]}')
    code, out, _ = run(capsys, "solve", "--group", group, "--system", system)
    assert code == 0
    assert json.loads(out) == {"solution": {"x": ["3"]}}


def test_unverified_answer_is_refused_with_exit_4(files, capsys, monkeypatch):
    from groupeq import cli, solve_abelian
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.errors import VerificationFailed
    from groupeq.systems import AbelianEquation, AbelianSystem

    group = files("g.json", '{"summands":[{"kind":"cyclic","p":2,"e":3}]}')
    system = files("s.json", '{"vars":["x"],"equations":[{"coeffs":{"x":3},"rhs":["1"]}]}')
    monkeypatch.setattr(cli, "verify_solution", lambda system, assignment: False)
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (4, "")
    assert "VerificationFailed: refusing to print unverified output" in err

    monkeypatch.setattr(solve_abelian, "verify_solution", lambda system, assignment: False)
    A = AbelianGroupDescriptor([Summand.cyclic(2, 3)])
    with pytest.raises(VerificationFailed):
        solve_abelian.solve_bounded(AbelianSystem(A, [AbelianEquation({"x": 3}, A.element([1]))]))
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (4, "")
    assert "VerificationFailed: solver produced a non-solution" in err


def test_wrong_smith_form_is_refused_with_exit_4(files, capsys, monkeypatch):
    # solve_divisible trusts U*M*V = D; the final check must still catch a wrong D
    from groupeq import solve_abelian
    from groupeq.abelian import AbelianGroupDescriptor, Summand
    from groupeq.errors import VerificationFailed
    from groupeq.systems import AbelianEquation, AbelianSystem

    exact = solve_abelian.smith_normal_form

    def doubled(M):
        U, D, V = exact(M)
        D = [row[:] for row in D]
        D[0][0] *= 2
        return U, D, V

    monkeypatch.setattr(solve_abelian, "smith_normal_form", doubled)
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
    ],
)
def test_solve_rejects_inexact_json_exit_2(files, capsys, group, system):
    group, system = files("g.json", group), files("s.json", system)
    code, out, err = run(capsys, "solve", "--group", group, "--system", system)
    assert (code, out) == (2, "")
    assert "ParseError" in err


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
