"""CLI surface tests: verbs, exit codes, deterministic JSON."""

import concurrent.futures
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from idealkit import cli, instances, invariants, monomial


INSTANCE_FILE = {
    "rings": {
        "P2": {"kind": "poly", "vars": 2},
        "P3": {"kind": "poly", "vars": 3},
        "H479": {"kind": "semigroup", "gens": [4, 7, 9]},
    },
    "ideals": {
        "msq": {"ring": "P2", "form": "monomial",
                "data": [[2, 0], [1, 1], [0, 2]]},
        "param": {"ring": "P2", "form": "monomial", "data": [[2, 0], [0, 2]]},
        "J7": {"ring": "P3", "form": "monomial",
               "data": [[7, 0, 0], [0, 7, 0], [0, 0, 7]]},
        "I7": {"ring": "P3", "form": "extend",
               "data": {"base": "J7", "extra": [[2, 2, 2]]}},
        "Isg": {"ring": "H479", "form": "exponents", "data": [11, 14]},
        "Qsg": {"ring": "H479", "form": "exponents", "data": [11]},
    },
}


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(INSTANCE_FILE))
    return str(path)


def test_coeffs_poly(instance_path, capsys):
    rc = cli.main(["coeffs", "--file", instance_path, "--ideal", "msq",
                   "--fiber"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e"] == [4, 1, 0]
    assert payload["f"] == [2, -1]


def test_coeffs_semigroup(instance_path, capsys):
    rc = cli.main(["coeffs", "--file", instance_path, "--ideal", "Isg"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e"] == [11, 3]


def test_coeffs_normal(instance_path, capsys):
    rc = cli.main(["coeffs", "--file", instance_path, "--ideal", "param",
                   "--normal"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normal"]["e"][0] == payload["e"][0]


def test_coeffs_payload_pinned(instance_path, capsys):
    # lam(R/m^(2n)) = 2n^2 + n, fitted from n = 1 over the first horizon
    rc = cli.main(["coeffs", "--file", instance_path, "--ideal", "msq",
                   "--fiber", "--normal"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "e": [4, 1, 0],
        "f": [2, -1],
        "normal": {"e": [4, 1, 0], "f": [2, -1]},
        "postulation": 1,
        "sequence": {"start_n": 1,
                     "values": [3, 10, 21, 36, 55, 78, 105, 136, 171, 210]},
    }


def test_check_thm_2_2(instance_path, capsys):
    rc = cli.main(["check", "--file", instance_path, "--theorem", "thm_2_2",
                   "--bind", "J=J7,I=I7"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["reports"][0]
    assert report["status"] == "verified"
    assert (report["lhs"], report["rhs"]) == (49, 125)


@pytest.mark.parametrize("theorem", ["thm_2_3", "thm_e1hs", "prop_f0"])
def test_check_enlargement_binds_j_and_i(instance_path, capsys, theorem):
    ctx = invariants.poly_context(2)
    J = monomial.minimalize(2, [(2, 0), (0, 2)])
    I = monomial.minimalize(2, [(2, 0), (1, 1), (0, 2)])
    rc = cli.main(["check", "--file", instance_path, "--theorem", theorem,
                   "--bind", "J=param,I=msq"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report == json.loads(json.dumps(cli.CHECKERS[theorem][0](ctx, J, I).as_dict()))
    assert report["status"] == "verified"


def test_check_lemma_3_2_binds_q_and_i(instance_path, capsys):
    rc = cli.main(["check", "--file", instance_path, "--theorem", "lemma_3_2",
                   "--bind", "Q=Qsg,I=Isg"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["status"] == "verified"
    assert (report["lhs"], report["rhs"]) == (2, 11)


def test_check_generator_binding_is_input_error(instance_path, capsys):
    rc = cli.main(["check", "--file", instance_path, "--theorem", "thm_2_3",
                   "--bind", "J=param,h=1:1"])
    assert rc == 2
    assert "needs binding I=" in capsys.readouterr().err


def test_check_missing_binding(instance_path, capsys):
    rc = cli.main(["check", "--file", instance_path, "--theorem", "thm_2_2",
                   "--bind", "J=J7"])
    assert rc == 2


def test_check_unknown_theorem(instance_path):
    rc = cli.main(["check", "--file", instance_path, "--theorem", "bogus",
                   "--bind", "I=msq"])
    assert rc == 2


def test_check_unknown_ideal(instance_path):
    rc = cli.main(["check", "--file", instance_path, "--theorem", "thm_2_2",
                   "--bind", "J=J7,I=missing"])
    assert rc == 2


def test_minreduce_semigroup(instance_path, capsys):
    rc = cli.main(["minreduce", "--file", instance_path, "--ideal", "Isg"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduction_number"] == 2
    assert payload["is_minimal"] is True


def test_minreduce_poly(instance_path, capsys):
    rc = cli.main(["minreduce", "--file", instance_path, "--ideal", "msq",
                   "--samples", "4", "--seed", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduction_number"] == 1


def test_sweep_small(instance_path, capsys):
    rc = cli.main(["sweep", "--family", "semigroup_small", "--count", "3",
                   "--seed", "5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 5
    assert all(slot["violated"] == 0 for slot in payload["aggregate"].values())


def test_sweep_count_zero(capsys):
    rc = cli.main(["sweep", "--family", "semigroup_small", "--count", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] == []
    assert payload["aggregate"] == {}


def test_sweep_worker_pool_matches_serial():
    for family, count, seed in (("semigroup_small", 6, 13), ("random_monomial_d2", 4, 11)):
        serial = instances.sweep(family, count=count, seed=seed, jobs=1)
        assert instances.sweep(family, count=count, seed=seed, jobs=2) == serial


@pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--jobs", "0")])
def test_sweep_rejects_negative_count_and_no_jobs(capsys, flag, value):
    assert cli.main(["sweep", "--family", "example_2_4", flag, value]) == 2
    assert "input error:" in capsys.readouterr().err


def test_sweep_pool_no_larger_than_the_sweep(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = instances.sweep("example_2_4", count=2, jobs=1)
    assert instances.sweep("example_2_4", count=2, jobs=500) == serial
    assert sizes == [2]


def test_sweep_unknown_family():
    assert cli.main(["sweep", "--family", "nope"]) == 2


def test_output_byte_identical(instance_path, capsys):
    args = ["check", "--file", instance_path, "--theorem", "thm_3_1",
            "--bind", "I=msq", "--seed", "4"]
    cli.main(args)
    out1 = capsys.readouterr().out
    cli.main(args)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_json_to_file(instance_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["coeffs", "--file", instance_path, "--ideal", "msq",
                   "--json", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["e"] == [4, 1, 0]


def test_missing_file_is_input_error(capsys):
    rc = cli.main(["coeffs", "--file", "/nonexistent.json", "--ideal", "x"])
    assert rc == 2


def test_minreduce_monomial_own_reduction(instance_path, capsys):
    rc = cli.main(["minreduce", "--file", instance_path, "--ideal", "param"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q_descriptor"] == [[0, 2], [2, 0]]
    assert payload["reduction_number"] == 0


def test_minreduce_output_independent_of_redundant_generators(tmp_path, capsys):
    outputs = []
    for data in ([[2, 0], [0, 2]], [[2, 0], [0, 2]] + [[2, k] for k in range(1, 64)]):
        path = tmp_path / f"param{len(data)}.json"
        path.write_text(json.dumps({**INSTANCE_FILE, "ideals": {
            "param": {"ring": "P2", "form": "monomial", "data": data}}}))
        assert cli.main(["minreduce", "--file", str(path), "--ideal", "param"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[1])["q_descriptor"] == [[0, 2], [2, 0]]


def test_fiber_fit_needing_a_longer_horizon(tmp_path, capsys):
    # nu(I^n) = 2, 3, 4, 5, 6, 7, 7, ...: polynomial from n = 6, its partial
    # sums from n = 5 only
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({
        "rings": {"H": {"kind": "semigroup", "gens": [7, 9, 16, 18, 26]}},
        "ideals": {"I": {"ring": "H", "form": "exponents", "data": [16, 18]}}}))
    assert cli.main(["coeffs", "--file", str(path), "--ideal", "I", "--fiber"]) == 0
    assert json.loads(capsys.readouterr().out)["f"] == [7]
    assert cli.main(["check", "--file", str(path), "--theorem", "thm_2_2",
                     "--bind", "J=I,I=I"]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert (report["status"], report["witness"]["f0_J"]) == ("verified", 7)


HUGE = {"ring": "P2", "form": "monomial", "data": [[1000000000, 0], [0, 1]]}
Q_X3_Y = {"ring": "P2", "form": "polynomials",
          "data": [[{"exp": [3, 0], "coef": 1}], [{"exp": [0, 1], "coef": 1}]]}
PARAM_POLY = {"ring": "P2", "form": "polynomials",
              "data": [[{"exp": [2, 0], "coef": 1}], [{"exp": [0, 2], "coef": 1}]]}


@pytest.mark.parametrize("extra, argv, code", [
    ({"ideals": {"Jnp": {"ring": "P2", "form": "monomial",
                         "data": [[3, 0], [1, 1]]}}},
     ["check", "--theorem", "thm_2_2", "--bind", "J=Jnp,I=msq"], 2),
    ({"rings": {"H46": {"kind": "semigroup", "gens": [4, 6]}}},
     ["coeffs", "--ideal", "msq"], 2),
    ({"ideals": {"mpoly": {"ring": "P2", "form": "polynomials",
                           "data": [[{"exp": [1, 0], "coef": 1}],
                                    [{"exp": [0, 1], "coef": 1}]]}}},
     ["coeffs", "--ideal", "mpoly", "--normal"], 2),
    ({}, ["minreduce", "--ideal", "msq", "--samples", "0"], 3),
    ({}, ["minreduce", "--ideal", "msq", "--samples", "-1"], 2),
    ({}, ["minreduce", "--ideal", "Isg", "--samples", "-1"], 2),
    # (0, y^2): homogeneous and not zero-dimensional, so not m-primary
    ({"ideals": {"gz": {"ring": "P2", "form": "polynomials",
                        "data": [[{"exp": [0, 0], "coef": 0}],
                                 [{"exp": [0, 2], "coef": 1}]]}}},
     ["coeffs", "--ideal", "gz"], 2),
    # (x^2 - x, xy - y) is (x, y) at the origin but vanishes on x = 1
    ({"ideals": {"gl": {"ring": "P2", "form": "polynomials",
                        "data": [[{"exp": [2, 0], "coef": 1},
                                  {"exp": [1, 0], "coef": -1}],
                                 [{"exp": [1, 1], "coef": 1},
                                  {"exp": [0, 1], "coef": -1}]]}}},
     ["coeffs", "--ideal", "gl"], 3),
    # Q = (x^3, y) is not contained in I = (x^2, xy, y^2), though both
    # have local colength 3
    ({"ideals": {"Qp": Q_X3_Y}},
     ["check", "--theorem", "rossi", "--bind", "Q=Qp,I=msq"], 2),
    # J = m^2 is not contained in I = (x^2, y^2)
    ({}, ["check", "--theorem", "thm_e1hs", "--bind", "J=msq,I=param"], 2),
    ({}, ["check", "--theorem", "prop_f0", "--bind", "J=msq,I=param"], 2),
    ({"ideals": {"Qp": Q_X3_Y, "Ip": {
        "ring": "P2", "form": "polynomials",
        "data": [[{"exp": v, "coef": 1}] for v in ([2, 0], [1, 1], [0, 2])]}}},
     ["check", "--theorem", "rossi", "--bind", "Q=Qp,I=Ip"], 2),
    # x^1000000000 gives a staircase box of 10^9 + 1 cells, over the cap
    ({"ideals": {"huge": HUGE}}, ["coeffs", "--ideal", "huge"], 3),
    ({"ideals": {"huge": HUGE}}, ["minreduce", "--ideal", "huge"], 3),
    # a polynomial ideal and a monomial ideal in one check
    ({"ideals": {"Pp": PARAM_POLY}},
     ["check", "--theorem", "thm_2_2", "--bind", "J=Pp,I=msq"], 2),
    ({"ideals": {"Pp": PARAM_POLY}},
     ["check", "--theorem", "thm_2_2", "--bind", "J=msq,I=Pp"], 2),
    # a monomial Q cannot take its colon by a polynomial I
    ({"ideals": {"Pp": PARAM_POLY}},
     ["check", "--theorem", "cor_e1para", "--bind", "Q=param,I=Pp"], 2),
    ({"ideals": {"Pp": PARAM_POLY}},
     ["check", "--theorem", "cor_sally", "--bind", "Q=param,I=Pp"], 2),
    # the unit ideal, in every form, is not an m-primary ideal
    ({"ideals": {"u": {"ring": "P2", "form": "monomial", "data": [[0, 0]]}}},
     ["coeffs", "--ideal", "u"], 2),
    ({"ideals": {"u": {"ring": "H479", "form": "exponents", "data": [0, 11]}}},
     ["coeffs", "--ideal", "u"], 2),
    ({"ideals": {"u": {"ring": "P2", "form": "polynomials",
                       "data": [[{"exp": [0, 0], "coef": 3}, {"exp": [1, 0], "coef": 1}],
                                [{"exp": [0, 2], "coef": 1}]]}}},
     ["coeffs", "--ideal", "u"], 2),
    ({"ideals": {"u": {"ring": "P2", "form": "extend",
                       "data": {"base": "msq", "extra": [[0, 0]]}}}},
     ["check", "--theorem", "thm_3_1", "--bind", "I=u"], 2),
    ({"ideals": {"u": {"ring": "H479", "form": "extend",
                       "data": {"base": "Isg", "extra": [0]}}}},
     ["check", "--theorem", "thm_3_1", "--bind", "I=u"], 2),
    ({"ideals": {"u": {"ring": "P2", "form": "extend",
                       "data": {"base": "Pp", "extra": [[0, 0]]}}, "Pp": PARAM_POLY}},
     ["coeffs", "--ideal", "u"], 2),
], ids=["not_m_primary", "not_coprime", "normal_needs_monomial",
        "no_reduction_found", "negative_samples_poly", "negative_samples_semigroup",
        "gfp_homogeneous_not_m_primary",
        "gfp_not_zero_dimensional", "gfp_q_not_in_monomial_i",
        "e1hs_j_not_in_i", "f0_j_not_in_i",
        "gfp_q_not_in_gfp_i", "over_cap_coeffs", "over_cap_minreduce",
        "mixed_gfp_j_monomial_i", "mixed_monomial_j_gfp_i",
        "mixed_monomial_q_gfp_i_e1para", "mixed_monomial_q_gfp_i_sally", "unit_monomial",
        "unit_exponents", "unit_polynomials", "unit_extend_monomial",
        "unit_extend_exponents", "unit_extend_polynomials"])
def test_errors_map_to_exit_codes(tmp_path, capsys, extra, argv, code):
    data = {key: {**INSTANCE_FILE[key], **extra.get(key, {})}
            for key in INSTANCE_FILE}
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(data))
    rc = cli.main(argv[:1] + ["--file", str(path)] + argv[1:])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("input error:" if code == 2 else "limit error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("theorem", ["thm_e1hs", "prop_f0"])
def test_enlargement_names_a_j_outside_i(instance_path, capsys, theorem):
    rc = cli.main(["check", "--file", instance_path, "--theorem", theorem,
                   "--bind", "J=msq,I=param"])
    assert rc == 2
    assert capsys.readouterr().err == "input error: J is not contained in I\n"


@pytest.mark.parametrize("theorem", ["cor_e1para", "cor_sally", "rossi"])
@pytest.mark.parametrize("q, i", [("param", "param"), ("param", "msq"), ("msq", "msq")])
@pytest.mark.parametrize("forms", ["Q", "I", "QI"])
def test_mixed_forms_agree_with_the_monomial_run_or_exit_2(tmp_path, capsys, theorem,
                                                           q, i, forms):
    # the named ideals again in polynomials form, as monic terms of the same monomials
    ideals = INSTANCE_FILE["ideals"]
    path = tmp_path / "instances.json"
    path.write_text(json.dumps({**INSTANCE_FILE, "ideals": {**ideals, **{
        "P" + name: {"ring": "P2", "form": "polynomials",
                     "data": [[{"exp": u, "coef": 1}] for u in ideals[name]["data"]]}
        for name in (q, i)}}}))

    def run(qname, iname):
        rc = cli.main(["check", "--file", str(path), "--theorem", theorem,
                       "--bind", f"Q={qname},I={iname}"])
        out, err = capsys.readouterr()
        if rc == 2:
            assert err.startswith("input error:") and err.count("\n") == 1
            return None
        assert rc in (0, 1)
        return [(r["status"], r["lhs"], r["rhs"]) for r in json.loads(out)["reports"]]

    want = run(q, i)
    got = run("P" * ("Q" in forms) + q, "P" * ("I" in forms) + i)
    assert got is None or got == want


def test_heights_over_the_cap_exit_3(tmp_path, capsys):
    # (x, y^(2^30 + 1)) is built, but the height 2^31 + 2 of its square is over the cap
    data = {**INSTANCE_FILE, "ideals": {"big": {
        "ring": "P2", "form": "monomial", "data": [[1, 0], [0, 2 ** 30 + 1]]}}}
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(data))
    assert cli.main(["coeffs", "--file", str(path), "--ideal", "big"]) == 3
    assert capsys.readouterr().err == "limit error: staircase heights are over the cap\n"


@pytest.mark.parametrize("ideal", ["Isg", "mpoly"])
def test_normalization_skips_ideals_outside_the_monomial_engine(tmp_path, capsys, ideal):
    data = {**INSTANCE_FILE, "ideals": {**INSTANCE_FILE["ideals"], "mpoly": {
        "ring": "P2", "form": "polynomials",
        "data": [[{"exp": [2, 0], "coef": 1}], [{"exp": [0, 2], "coef": 1}]]}}}
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(data))
    rc = cli.main(["check", "--file", str(path), "--theorem", "normalization",
                   "--bind", f"I={ideal}"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["status"] == "skipped"
    assert report["hypotheses"] == [["monomial_engine", False]]


@pytest.mark.parametrize("payload, argv", [
    ({"rings": {"P2": {"kind": "poly", "vars": 2}},
      "ideals": {"A": {"ring": "P2", "form": "exponents", "data": [2, 3]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"H34": {"kind": "semigroup", "gens": [3, 4]}},
      "ideals": {"A": {"ring": "H34", "form": "monomial", "data": [[3], [4]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"H34": {"kind": "semigroup", "gens": [3, 4]}},
      "ideals": {"A": {"ring": "H34", "form": "polynomials",
                       "data": [[{"exp": [3], "coef": 1}]]}}},
     ["coeffs", "--ideal", "A"]),
    ([{"kind": "poly", "vars": 2}], ["coeffs", "--ideal", "A"]),
    ({"rings": {"P": 5}}, ["check", "--theorem", "cor_after_3_3"]),
    ({"rings": [], "ideals": {}}, ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2}}, "ideals": {"A": [[2, 0]]}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2}},
      "ideals": {"A": {"ring": "P2", "form": "monomial",
                       "data": [[-1, 3], [2, 0], [0, 2]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2}},
      "ideals": {"A": {"ring": "P2", "form": "polynomials",
                       "data": [[{"exp": [2], "coef": 1}],
                                [{"exp": [0, 2], "coef": 1}]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2}},
      "ideals": {"A": {"ring": "P2", "form": "extend",
                       "data": {"base": "A", "extra": [[1, 1]]}}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P1": {"kind": "poly", "vars": 1},
                "H34": {"kind": "semigroup", "gens": [3, 4]}},
      "ideals": {"M": {"ring": "P1", "form": "monomial", "data": [[3]]},
                 "E": {"ring": "H34", "form": "exponents", "data": [6, 8]}}},
     ["check", "--theorem", "thm_2_2", "--bind", "J=M,I=E"]),
    # a number that is not a JSON integer is refused, never truncated
    ({"rings": {"H479": {"kind": "semigroup", "gens": [4, 7, 9]}},
      "ideals": {"A": {"ring": "H479", "form": "exponents", "data": [12.9, 14, 17]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2.9}},
      "ideals": {"A": {"ring": "P2", "form": "monomial", "data": [[2, 0], [0, 2]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"H": {"kind": "semigroup", "gens": [4.5, 7, 9]}},
      "ideals": {"A": {"ring": "H", "form": "exponents", "data": [14]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2, "char": 32003.5}},
      "ideals": {"A": {"ring": "P2", "form": "monomial", "data": [[2, 0], [0, 2]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": 2}},
      "ideals": {"A": {"ring": "P2", "form": "polynomials",
                       "data": [[{"exp": [2, 0], "coef": 1.7}],
                                [{"exp": [0, 2], "coef": 1}]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P1": {"kind": "poly", "vars": True}},
      "ideals": {"A": {"ring": "P1", "form": "monomial", "data": [[2]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"P2": {"kind": "poly", "vars": "2"}},
      "ideals": {"A": {"ring": "P2", "form": "monomial", "data": [[2, 0], [0, 2]]}}},
     ["coeffs", "--ideal", "A"]),
    ({"rings": {"H34": {"kind": "semigroup", "gens": [3, 4]}},
      "ideals": {"B": {"ring": "H34", "form": "exponents", "data": [6]},
                 "A": {"ring": "H34", "form": "extend",
                       "data": {"base": "B", "extra": [8.5]}}}},
     ["coeffs", "--ideal", "A"]),
], ids=["exponents_on_poly", "monomial_on_semigroup",
        "polynomials_on_semigroup", "top_level_array", "ring_not_object",
        "rings_not_object", "ideal_not_object", "negative_exponent",
        "short_exponent", "extends_itself", "bindings_in_two_rings",
        "float_semigroup_exponent", "float_vars", "float_semigroup_generator",
        "float_char", "float_coefficient", "bool_vars", "string_vars",
        "float_extend_exponent"])
def test_malformed_instance_file_is_input_error(tmp_path, capsys, payload, argv):
    path = tmp_path / "instances.json"
    path.write_text(json.dumps(payload))
    rc = cli.main(argv[:1] + ["--file", str(path)] + argv[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


# ------------------------------------------------------------ fuzzing

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from("ABPS"),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from("ABPS"), inner, max_size=2),
    max_leaves=6)


def _paths(obj, path=()):
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(value, path + (key,))


@st.composite
def instance_files(draw):
    """A small two-ring instance file, then at most one node swapped for junk.

    Forms are usually drawn with the data and ring kind they need, but the
    ring is the wrong kind one time in four.
    """
    d = draw(st.integers(1, 2))
    vec = st.lists(st.integers(0, 4), min_size=d, max_size=d)
    elements = st.lists(st.integers(1, 9), min_size=1, max_size=3)
    data = {
        "monomial": st.lists(vec, min_size=1, max_size=3),
        "exponents": elements,
        "polynomials": st.lists(st.lists(st.fixed_dictionaries(
            {"exp": vec, "coef": st.integers(1, 3)}), min_size=1, max_size=2),
            min_size=1, max_size=2),
        "extend": st.fixed_dictionaries({"base": st.sampled_from("ABC"),
                                         "extra": st.lists(vec, max_size=2)
                                         | elements}),
    }
    ideals = {}
    for name in "AB":
        form = draw(st.sampled_from(sorted(data)))
        ring = "S" if form == "exponents" else "P"
        if draw(st.integers(0, 3)) == 0:
            ring = "P" if ring == "S" else "S"
        ideals[name] = {"ring": ring, "form": form, "data": draw(data[form])}
    payload = {"rings": {"P": {"kind": "poly", "vars": d},
                         "S": {"kind": "semigroup",
                               "gens": draw(st.sampled_from([[2, 3], [3, 4], [1], [2, 4]]))}},
               "ideals": ideals}
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            return draw(junk)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(junk)
    return payload


bindings = st.dictionaries(
    st.sampled_from(["J", "I", "Q", "h", "x", "extra"]),
    st.sampled_from(["A", "B", "C", "3", "1:1"]), max_size=3)
verbs = st.one_of(
    st.tuples(st.sampled_from("ABC"),
              st.sampled_from([[], ["--fiber"], ["--normal"]])).map(
        lambda t: ["coeffs", "--ideal", t[0], *t[1]]),
    st.tuples(st.sampled_from("ABC"), st.integers(0, 2)).map(
        lambda t: ["minreduce", "--ideal", t[0], "--samples", str(t[1])]),
    st.tuples(st.sampled_from(sorted(cli.CHECKERS)), bindings).map(
        lambda t: ["check", "--theorem", t[0], "--bind",
                   ",".join(f"{k}={v}" for k, v in t[1].items())]))


@settings(max_examples=300, deadline=None)
@given(payload=instance_files(), argv=verbs)
def test_fuzz_cli_exit_codes(payload, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instances.json")
        out = os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        rc = cli.main(argv[:1] + ["--file", path, "--json", out] + argv[1:])
        assert rc in (0, 1, 2, 3)
        if rc == 1:
            with open(out) as fh:
                reports = json.load(fh)["reports"]
            assert any(r["status"] == "violated" for r in reports)
