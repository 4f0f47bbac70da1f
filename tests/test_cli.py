import json

import pytest

from khovsolve.cli import main
from khovsolve.fields import GF, QQ
from khovsolve.sysfile import (
    SystemFileError,
    dump_system,
    load_system,
    parse_field,
)

FAILING_SYSTEM = json.dumps(
    {
        "field": "QQ",
        "vars": ["t1", "t2"],
        "weight": [-1, 0],
        "phi": ["t1 + t2", "t1*t2", "t1*t2^2"],
        "equations": [],
    }
)


@pytest.fixture()
def duffing_file(tmp_path):
    path = tmp_path / "duffing.json"
    assert main(["catalog", "duffing", "--out", str(path)]) == 0
    return str(path)


def test_parse_field():
    assert parse_field("QQ") == QQ
    assert parse_field("Fp:101") == GF(101)
    assert parse_field({"Fp": 101}) == GF(101)
    for bad in ("GF(4)", "Fp:10", "Fp:abc", {"Fp": 10}, {"Fp": None}):
        with pytest.raises(SystemFileError):
            parse_field(bad)


def test_system_file_round_trip():
    from khovsolve import catalog

    sys = catalog.duffing().sys
    text = dump_system(sys.par, sys)
    par2, sys2 = load_system(text)
    assert par2.A == sys.par.A
    assert [e.f for e in sys2.equations] == [e.f for e in sys.equations]


def test_poly_equation_is_written_as_coefficient_form():
    # a file equation given as "poly" loads; it is written back with the
    # coefficient form read off its expansion, which reloads to the same
    # f and the same KM rows
    from khovsolve import catalog
    from khovsolve.km import km_matrix

    sys = catalog.duffing().sys
    data = json.loads(dump_system(sys.par, sys))
    data["equations"][0] = {"degree": 1, "poly": sys.equations[0].f.to_string()}
    par, loaded = load_system(json.dumps(data))
    written = json.loads(dump_system(par, loaded))
    assert [sorted(e) for e in written["equations"]] == [["coeffs", "degree"]] * 2
    _, reloaded = load_system(json.dumps(written))
    assert [e.f for e in reloaded.equations] == [e.f for e in sys.equations]
    assert ([list(r) for r in km_matrix(reloaded, 3).entries]
            == [list(r) for r in km_matrix(loaded, 3).entries])


def test_load_system_rejects_garbage():
    with pytest.raises(SystemFileError):
        load_system("not json {")
    with pytest.raises(SystemFileError):
        load_system(json.dumps({"field": "QQ"}))
    with pytest.raises(SystemFileError):
        load_system(
            json.dumps(
                {
                    "field": "QQ",
                    "vars": ["t1"],
                    "weight": [-1, -2],
                    "phi": ["t1"],
                }
            )
        )


def test_check_command(duffing_file, capsys):
    assert main(["check", duffing_file, "--dmax", "3"]) == 0
    out = capsys.readouterr().out
    assert "verified through degree 3" in out


def test_check_command_detects_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(FAILING_SYSTEM)
    assert main(["check", str(path), "--dmax", "3"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_basis_command(duffing_file, capsys):
    assert main(["basis", duffing_file, "-d", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14


def test_hilbert_command(tmp_path, capsys):
    path = tmp_path / "gr24.json"
    assert main(["catalog", "grassmannian:2,4", "--out", str(path)]) == 0
    assert main(["hilbert", str(path), "--dmax", "7"]) == 0
    out = capsys.readouterr().out
    assert "HF: 1 6 20 50 105 196 336" in out
    assert "hreg: -3" in out
    assert "degree: 2" in out
    assert "certified: yes" in out


def test_km_command_with_csv(duffing_file, tmp_path, capsys):
    out_csv = tmp_path / "km.csv"
    assert main(["km", duffing_file, "-d", "2", "--out", str(out_csv)]) == 0
    assert "shape: 10 x 14" in capsys.readouterr().out
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 11  # header + 10 rows
    assert lines[0].startswith("i,gamma,")


def test_km_command_reduce(duffing_file, capsys):
    assert main(["km", duffing_file, "-d", "3", "--reduce"]) == 0
    assert "shape: 23 x 28 (unreduced 28 x 28)" in capsys.readouterr().out


def test_solve_command(duffing_file, tmp_path):
    out_json = tmp_path / "sols.json"
    rc = main(
        ["solve", duffing_file, "--dreg", "3", "--out", str(out_json)]
    )
    assert rc == 0
    data = json.loads(out_json.read_text())
    assert data["delta"] == 5
    assert data["dreg"] == 3
    assert len(data["solutions"]) == 5
    for sol in data["solutions"]:
        assert sol["residual"] < 1e-8
        assert len(sol["coords"]) == 5


def test_solve_command_reports_certification(duffing_file, tmp_path):
    out_json = tmp_path / "sols.json"
    assert main(["solve", duffing_file, "--out", str(out_json)]) == 0
    data = json.loads(out_json.read_text())
    assert data["certified"] is True
    assert data["uncertified"] == []


def test_solve_command_marks_a_large_residual(duffing_file, tmp_path, monkeypatch):
    from khovsolve import solver

    monkeypatch.setattr(solver, "residuals", lambda sys, coords: (1e-3,) * len(coords))
    out_json = tmp_path / "sols.json"
    with pytest.warns(UserWarning, match="largest residual"):
        assert main(["solve", duffing_file, "--out", str(out_json)]) == 0
    data = json.loads(out_json.read_text())
    assert data["certified"] is False
    assert data["uncertified"] == ["largest residual 1.000e-03 exceeds 1.0e-08"]


def test_solve_command_deterministic(duffing_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(
            ["solve", duffing_file, "--dreg", "3", "--seed", "4",
             "--out", str(out)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_command_stdin(duffing_file, capsys, monkeypatch):
    import io

    text = open(duffing_file).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["solve", "-", "--dreg", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta"] == 5


def test_main_calls_share_no_options(duffing_file, tmp_path, monkeypatch):
    # the parser is built once per process; each call parses its own argv
    from khovsolve import cli, solver

    seen = []
    real = solver.solve

    def spy(system, **options):
        seen.append(options)
        return real(system, **options)

    monkeypatch.setattr(solver, "solve", spy)
    out = str(tmp_path / "sols.json")
    assert main(["solve", duffing_file, "--adaptive", "--normalize", "first",
                 "--out", out]) == 0
    assert main(["solve", duffing_file, "--out", out]) == 0
    assert seen == [
        {"dreg": None, "seed": 0, "adaptive": True, "normalize": "first"},
        {"dreg": None, "seed": 0, "adaptive": False, "normalize": "raw"},
    ]
    assert cli.build_parser() is cli.build_parser()


def test_exit_code_input_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    assert main(["check", str(tmp_path)]) == 1  # a directory
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe")
    assert main(["solve", str(undecodable), "--dreg", "3"]) == 1
    assert "codec can't decode" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["solve", str(bad), "--dreg", "3"]) == 1
    assert main(["catalog", "unknown-instance"]) == 1
    # a modulus that is not a prime integer is an input error
    square = ["schubert", "--k", "2", "--m", "4", "--conditions", "2,4;2,4;2,4;2,4"]
    assert main(square + ["--field", "Fp:10"]) == 1
    assert main(square + ["--field", "Fp:abc"]) == 1
    assert main(["catalog", "duffing", "--field", "Fp:10"]) == 1
    assert "modulus" in capsys.readouterr().err
    # Schubert data the catalog rejects, and unparsable conditions
    bad_index = ["schubert", "--k", "2", "--m", "4", "--conditions", "2,5;2,5;2,5;2,5"]
    assert main(bad_index) == 1
    assert "invalid Schubert indices (2, 5)" in capsys.readouterr().err
    not_int = ["schubert", "--k", "2", "--m", "4", "--conditions", "a,b;2,4;2,4;2,4"]
    assert main(not_int) == 1
    assert "bad --conditions 'a,b'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", ["grassmannian:x", "grassmannian:2", "grassmannian:2,4,5", "grassmannian:"]
)
def test_exit_code_malformed_grassmannian(spec, capsys):
    assert main(["catalog", spec]) == 1
    err = capsys.readouterr().err
    assert repr(spec) in err and "grassmannian:k,m" in err


@pytest.mark.parametrize(
    "phi, message",
    [
        (["t1", "t1 + t2", "t2"], "share the leading exponent"),
        (["t1", "0", "t2"], "zero polynomial"),
    ],
    ids=["duplicate-leading-exponent", "zero-generator"],
)
def test_exit_code_bad_generators(tmp_path, capsys, phi, message):
    path = tmp_path / "bad_phi.json"
    path.write_text(json.dumps(
        {"field": "QQ", "vars": ["t1", "t2"], "weight": [-1, 0], "phi": phi}
    ))
    with pytest.raises(SystemFileError, match=message):
        load_system(path.read_text())
    assert main(["check", str(path)]) == 1
    assert message in capsys.readouterr().err


def _malformed_duffing(change):
    from khovsolve import catalog

    sys = catalog.duffing().sys
    data = json.loads(dump_system(sys.par, sys))
    change(data["equations"][1])
    return json.dumps(data)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda eq: eq["coeffs"][0].update(alpha=[0, 1, 0, 0]),
         "coefficient exponent [0, 1, 0, 0] is not a degree-1 monomial"),
        (lambda eq: eq["coeffs"][0].update(alpha=[0, 1, 0, 1, 0]),
         "coefficient exponent [0, 1, 0, 1, 0] is not a degree-1 monomial"),
        (lambda eq: eq.update(degree="x"), "invalid literal for int()"),
        (lambda eq: eq.update(degree=0), "degree must be a positive integer, got 0"),
        (lambda eq: eq["coeffs"][0].update(c="1/0"), "Fraction(1, 0)"),
    ],
    ids=["alpha-length", "alpha-degree", "degree-not-integer", "degree-zero",
         "zero-denominator"],
)
def test_exit_code_malformed_equation(tmp_path, capsys, change, message):
    # a malformed equation spec is an input error naming the equation
    text = _malformed_duffing(change)
    with pytest.raises(SystemFileError, match="equation 1: "):
        load_system(text)
    path = tmp_path / "bad_eq.json"
    path.write_text(text)
    assert main(["solve", str(path), "--dreg", "3"]) == 1
    err = capsys.readouterr().err
    assert "equation 1: " in err and message in err


def _duffing_data():
    from khovsolve import catalog

    sys = catalog.duffing().sys
    return json.loads(dump_system(sys.par, sys))


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(weight=[0, -1.7]), "weight must be an integer, got -1.7"),
    (lambda d: d.update(weight=[False, -1]), "weight must be an integer, got False"),
    (lambda d: d.update(weight=[0, "x"]), "system file: invalid literal for int()"),
    (lambda d: d["equations"][0].update(degree=1.9),
     "equation 0: degree must be an integer, got 1.9"),
    (lambda d: d["equations"][0].update(degree=True),
     "equation 0: degree must be an integer, got True"),
    (lambda d: d["equations"][1]["coeffs"][0]["alpha"].__setitem__(1, 0.5),
     "equation 1: alpha must be an integer, got 0.5"),
], ids=["weight-float", "weight-bool", "weight-string", "degree-float", "degree-bool",
        "exponent-float"])
def test_non_integer_values_are_input_errors(tmp_path, capsys, change, message):
    # int() would truncate them: a weight of -1.7 to -1, a degree of 1.9
    # to 1, an exponent of 0.5 to 0, and the solve would go on
    data = _duffing_data()
    change(data)
    with pytest.raises(SystemFileError) as err:
        load_system(json.dumps(data))
    assert message in str(err.value)
    path = tmp_path / "non_integer.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path), "--dreg", "3"]) == 1
    assert message in capsys.readouterr().err


def test_integral_values_load_as_ints():
    # integral floats are the integers they spell, as in the file written
    data = _duffing_data()
    par, sys = load_system(json.dumps(data))
    data["weight"] = [float(w) for w in data["weight"]]
    data["equations"][0]["degree"] = 1.0
    par2, sys2 = load_system(json.dumps(data))
    assert par2.ord.omega == par.ord.omega
    assert all(type(w) is int for w in par2.ord.omega)
    assert [e.degree for e in sys2.equations] == [e.degree for e in sys.equations]
    assert [e.coeff_form for e in sys2.equations] == [e.coeff_form for e in sys.equations]


@pytest.mark.parametrize("argv", [
    ["solve", "{file}", "--dreg", "3", "--adaptive"],
    ["schubert", "--k", "3", "--m", "6", "--conditions", "2,4,6;2,4,6;2,4,6",
     "--field", "Fp:9716633", "--adaptive", "--dreg", "2"],
], ids=["solve", "schubert"])
def test_dreg_and_adaptive_exclude_each_other(argv, duffing_file, capsys):
    # --adaptive would be ignored beside --dreg: a usage error, before any work
    assert main([a.format(file=duffing_file) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "not allowed with argument" in err


def test_file_equation_outside_its_graded_piece_is_a_math_error(tmp_path, capsys):
    # load_system turns a malformed form into an input error, but not this
    path = tmp_path / "outside.json"
    path.write_text(_malformed_duffing(lambda eq: eq.update(poly="t1^7")))
    assert main(["solve", str(path), "--dreg", "3"]) == 2
    assert "equation 1 is not in the degree-1 graded piece" in capsys.readouterr().err


def test_exit_code_math_error(tmp_path, capsys):
    # no equations: nothing to solve
    path = tmp_path / "noeq.json"
    path.write_text(FAILING_SYSTEM)
    assert main(["solve", str(path), "--dreg", "2"]) == 2


def test_vanishing_first_coordinate_is_a_math_error(tmp_path, capsys):
    # t1 = 0, t2 = 2 on the chart (t1, 1, t2): the one solution has first
    # coordinate 0, so --normalize first cannot divide by it
    def eq(*terms):
        return {"degree": 1, "coeffs": [{"alpha": a, "c": c} for a, c in terms]}

    path = tmp_path / "zero_first.json"
    path.write_text(json.dumps({
        "field": "QQ", "vars": ["t1", "t2"], "weight": [0, -1], "phi": ["t1", "1", "t2"],
        "equations": [eq(([1, 0, 0], "1")), eq(([0, 1, 0], "-2"), ([0, 0, 1], "1"))],
    }))
    assert main(["solve", str(path), "--dreg", "2"]) == 0
    assert main(["solve", str(path), "--dreg", "2", "--normalize", "first"]) == 2
    assert "vanishing first coordinate" in capsys.readouterr().err


def test_rank_deficient_nh_suggests_larger_dreg(duffing_file, capsys):
    # dreg 2 is below the regularity set of Duffing (the default is 3)
    assert main(["solve", duffing_file, "--dreg", "2"]) == 2
    err = capsys.readouterr().err
    assert "N_h has rank 3 < 5" in err
    assert "regularity" in err and "larger --dreg" in err


def test_exit_code_unsupported_field(tmp_path):
    path = tmp_path / "fp.json"
    assert main(
        ["catalog", "duffing", "--field", "Fp:101", "--out", str(path)]
    ) == 0
    assert main(["solve", str(path), "--dreg", "3"]) == 3


def test_schubert_command_over_fp(tmp_path):
    out = tmp_path / "schubert.json"
    rc = main(
        [
            "schubert", "--k", "3", "--m", "6",
            "--conditions", "2,4,6;2,4,6;2,4,6",
            "--field", "Fp:9716633", "--dreg", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["delta"] == 2
    assert data["dreg"] == 2


def test_schubert_adaptive_overrides_the_table_degree(tmp_path):
    # (2,4,6)^3 is in the Gr(3,6) table at dreg 2; --adaptive without
    # --dreg runs the search, which stops at dreg 3
    out = tmp_path / "schubert.json"
    rc = main(
        [
            "schubert", "--k", "3", "--m", "6",
            "--conditions", "2,4,6;2,4,6;2,4,6",
            "--field", "Fp:9716633", "--adaptive",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert json.loads(out.read_text()) == {"delta": 2, "dreg": 3, "field": "Fp:9716633"}


@pytest.mark.parametrize("dreg", ["1"])
def test_schubert_dreg_without_room_for_the_shift(dreg, capsys):
    # the same SolverError, exit 2, over QQ (inside solve) and over F_p;
    # a dreg below 1 is an input error (test_out_of_range_options_are_input_errors)
    errors = []
    for field in ("QQ", "Fp:101"):
        rc = main([
            "schubert", "--k", "2", "--m", "4",
            "--conditions", "2,4;2,4;2,4;2,4", "--field", field, "--dreg", dreg,
        ])
        assert rc == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"error: dreg = {dreg} leaves no room for the degree shift; need at least 2\n"
    )


def test_schubert_command_needs_matching_osculating_count(capsys):
    rc = main(
        [
            "schubert", "--k", "2", "--m", "5",
            "--conditions", "3,5;3,5",
            "--osculating", "1",
        ]
    )
    assert rc == 1


def test_schubert_over_fp_takes_the_default_dreg(tmp_path):
    # s = n: the regularity bound gives dreg over F_p as over QQ, and so
    # does the adaptive search
    out = tmp_path / "gr24.json"
    args = ["schubert", "--k", "2", "--m", "4",
            "--conditions", "2,4;2,4;2,4;2,4", "--field", "Fp:101", "--out", str(out)]
    assert main(args) == 0
    assert json.loads(out.read_text()) == {"delta": 2, "dreg": 2, "field": "Fp:101"}
    assert main(args + ["--adaptive"]) == 0
    assert json.loads(out.read_text()) == {"delta": 2, "dreg": 3, "field": "Fp:101"}


@pytest.mark.parametrize("field", ["QQ", "Fp:101"])
def test_schubert_without_a_degree_is_a_math_error(field, capsys):
    # s = 5 > n = 4 and no --dreg: the solver's error, as from `solve`
    rc = main(["schubert", "--k", "2", "--m", "4",
               "--conditions", "1,4;2,4;2,4", "--field", field])
    assert rc == 2
    assert "regularity bound needs s = n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["km", "{file}"],
    ["solve", "{file}", "--dreg", "x"],
    ["transmogrify", "{file}"],
], ids=["missing-degree", "non-integer-dreg", "unknown-subcommand"])
def test_usage_errors_are_input_errors(argv, duffing_file, capsys):
    assert main([a.format(file=duffing_file) for a in argv]) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["km", "{file}", "-d", "-1"], "must be at least 0, got -1"),
    (["basis", "{file}", "-d", "-2"], "must be at least 0, got -2"),
    (["check", "{file}", "--dmax", "0"], "must be at least 1, got 0"),
    (["hilbert", "{file}", "--dmax", "1"], "--dmax must be at least n + 2 = 4"),
    (["solve", "{file}", "--dreg", "-1"], "must be at least 1, got -1"),
    (["solve", "{file}", "--dreg", "0"], "must be at least 1, got 0"),
    (["schubert", "--k", "3", "--m", "6", "--conditions", "2,4,6;2,4,6;2,4,6",
      "--dreg", "-3"], "must be at least 1, got -3"),
    (["schubert", "--k", "2", "--m", "4", "--conditions", "2,4;2,4;2,4;2,4",
      "--field", "Fp:101", "--dreg", "0"], "must be at least 1, got 0"),
], ids=["km-degree", "basis-degree", "check-dmax", "hilbert-dmax", "solve-dreg-negative",
        "solve-dreg-zero", "schubert-dreg-negative", "schubert-dreg-zero"])
def test_out_of_range_options_are_input_errors(argv, message, duffing_file, capsys):
    assert main([a.format(file=duffing_file) for a in argv]) == 1
    assert message in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["solve", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out
