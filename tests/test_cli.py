import json
import math
import pathlib
import subprocess
import sys
import warnings

import pytest

from fjohn import cli, isotropy

CLI = [sys.executable, "-m", "fjohn.cli"]
INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def two_level_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "two_level.json"
    res = run("fixture", "two-level-cross", "--n", "1", "--s", "1.0", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def cross_instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "cross.json"
    res = run("fixture", "cross", "--n", "1", "--s", "1.0", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


class TestFixtureCommand:
    def test_two_level_weights(self, two_level_instance):
        inst = json.loads(two_level_instance.read_text())
        weights = sorted(set(round(w, 9) for w in inst["contacts"]["weights"]))
        assert weights == [0.25, 0.75]
        assert inst["version"] == 1
        assert len(inst["h"]["pieces"]) == 4

    def test_bad_params_exit_code(self):
        res = run("fixture", "two-level-cross", "--n", "1", "--s", "1.0",
                  "--rho1-sq", "0.8", "--rho2-sq", "0.4")
        assert res.returncode == 1
        assert res.stderr.strip()

    def test_stdout_json_when_no_out(self):
        res = run("fixture", "cross", "--n", "2", "--s", "2.0")
        assert res.returncode == 0
        inst = json.loads(res.stdout)
        assert inst["n"] == 2

    @pytest.mark.parametrize("argv", [
        ["cross", "--n", "0"], ["cross", "--n", "-1"], ["two-level-cross", "--n", "0"],
        ["tangent", "--n", "1", "--points", "a"],
        ["tangent", "--n", "2", "--points", "0.5"],
        ["tangent", "--n", "1", "--points", "0.5;0.1,0.2"],
        ["tangent", "--n", "1", "--points", "nan"],
        ["tangent", "--n", "1", "--points", "0.5", "--domain-radius", "0"],
        ["tangent", "--n", "1", "--points", "0.5", "--domain-radius", "-3"],
        ["tangent", "--n", "1", "--points", "1.2"],
        ["tangent", "--n", "2", "--points", "0.5,0.5;0.6,0.8"],
        ["tangent", "--n", "1", "--points", "0.5;0.5;-0.5"],
        ["tangent", "--n", "1"],
    ], ids=["cross-n0", "cross-n-1", "two-level-n0", "points-not-numbers",
            "points-wrong-dimension", "points-ragged", "points-nan", "domain-radius-0",
            "domain-radius-negative", "points-outside-ball", "points-on-sphere",
            "points-repeated", "points-missing"])
    def test_bad_input_is_an_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert cli.main(["fixture", *argv, "--s", "1.0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")
        assert not out.exists()


class TestVerifyCommand:
    def test_verify_ok(self, two_level_instance):
        res = run("verify", "--instance", str(two_level_instance))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["command"] == "verify"
        assert payload["result"]["ok"] is True

    @pytest.mark.parametrize("name", ["cross", "two-level-cross"])
    @pytest.mark.parametrize("n,s", [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)])
    def test_fixture_file_verifies(self, name, n, s, tmp_path, capsys):
        # written by `fixture`, read back by `verify`: both crosses hold all four conditions
        path = tmp_path / "inst.json"
        assert cli.main(["fixture", name, "--n", str(n), "--s", str(s), "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "--instance", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["ok"] is True

    def test_verify_fails_on_broken_weights(self, two_level_instance, tmp_path):
        inst = json.loads(two_level_instance.read_text())
        inst["contacts"]["weights"][0] *= 1.2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        res = run("verify", "--instance", str(bad))
        assert res.returncode == 2

    def test_negative_weights_fail(self, tmp_path, capsys):
        # weights moved along the null direction of conditions (b)-(d) keep every
        # residual at rounding, but two are negative: not John's c_i > 0
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        null = [-1.0, 1.0, math.sqrt(0.5), -math.sqrt(0.5)]
        inst["contacts"]["weights"] = [c + 5.0 * v / math.sqrt(3.0)
                                       for c, v in zip(inst["contacts"]["weights"], null)]
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(inst))
        assert cli.main(["verify", "--instance", str(path)]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert all(result["pass"].values()) and max(
            result[f"residual_{k}"] for k in "abcd") <= 1e-14
        assert result["weights_positive"] is False and result["ok"] is False

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        res = run("verify", "--instance", str(bad))
        assert res.returncode == 1


NAN, INF = float("nan"), float("inf")  # json writes and reads them as NaN and Infinity
G_KNOTS = {"xs": [-1.0, 1.0], "ys": [1.0, 0.0]}
# f = 0.2 left of -1: fails f3_zero_left, which ConvolutionProfile assumes
F_NONZERO_LEFT = {"f": {"xs": [-1.0, 0.5], "ys": [0.2, 1.5]}, "g": G_KNOTS}


class TestUsageErrors:
    """argparse's usage errors exit 1, an input problem, with the usage on stderr."""

    @pytest.mark.parametrize("argv, message", [
        (["verify"], "the following arguments are required: --instance"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["fixture", "cross", "--n", "x", "--s", "1"], "argument --n: invalid int value: 'x'"),
    ], ids=["missing-instance", "unknown-command", "n-not-an-int"])
    def test_exit_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: fjohn") and message in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fixture", "--help"])
        assert exc.value.code == 0
        assert "--points=-0.5" in "".join(capsys.readouterr().out.split())  # however it wraps


def _repeat_contact_point(inst):
    inst["contacts"]["points"][1] = list(inst["contacts"]["points"][0])  # weights keep their count


def _calibrate(inst, weight):
    inst["nu"] = "calibrated"
    inst["contacts"]["weights"][0] = weight


class TestMalformedInput:
    @pytest.mark.parametrize("command,mutate,message", [
        ("minimize-i1", lambda i: i["h"]["pieces"][0].pop("a"),
         "malformed h.pieces (KeyError: 'a')"),
        ("minimize-i1", lambda i: i.update(profile={"f": {"ys": [0.0, 2.0]}, "g": G_KNOTS}),
         "malformed profile (KeyError: 'xs')"),
        ("minimize-i1", lambda i: i.update(
            profile={"f": {"xs": [1.0, -1.0], "ys": [2.0, 0.0]}, "g": G_KNOTS}),
         "malformed profile (ValueError: breaks must be strictly increasing)"),
        ("minimize-i1", lambda i: i.update(
            nu={"atoms": [{"x": p, "m": -1.0} for p in i["contacts"]["points"]]}),
         "malformed nu.atoms (ValueError: masses must be positive and finite)"),
        ("verify", lambda i: i["h"].update(domain_radius="abc"),
         "h.domain_radius must be null or have a finite square, got 'abc'"),
        ("verify", lambda i: i["contacts"].update(
            points=[p + [0.0] for p in i["contacts"]["points"]]),
         "contacts.points must be a list of points in R^1"),
        ("verify", lambda i: i["contacts"].update(weights=i["contacts"]["weights"][:1]),
         "contacts.weights must hold one finite number per point (4)"),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis="abc"),
         "malformed quadrature (ValueError: x_nodes_per_axis must be an integer of at least 25, "
         "got 'abc')"),
        ("verify", lambda i: i.update(s=-1.0),
         "s must be a positive number, got -1.0"),
        ("minimize-i1", lambda i: i.update(s=0),
         "s must be a positive number, got 0"),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=0),
         "malformed quadrature (ValueError: x_nodes_per_axis must be an integer of at least 25, "
         "got 0)"),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=-5),
         "malformed quadrature (ValueError: x_nodes_per_axis must be an integer of at least 25, "
         "got -5)"),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=8),
         "malformed quadrature (ValueError: x_nodes_per_axis must be an integer of at least 25, "
         "got 8)"),
        ("sweep-r", lambda i: i.update(profile=F_NONZERO_LEFT),
         "profile pair fails f2_convex, f3_zero_left, f4_strictly_increasing"),
        ("contacts", lambda i: i["h"]["pieces"][0].update(a=[NAN]),
         "h.pieces must hold finite numbers"),
        ("verify", lambda i: i["h"]["pieces"][1].update(b=INF),
         "h.pieces must hold finite numbers"),
        ("minimize-i1", lambda i: i["contacts"]["points"][0].__setitem__(0, NAN),
         "malformed contacts (ValueError: points must be finite: point 0 is [nan])"),
        ("coercivity", lambda i: i["contacts"]["points"][0].__setitem__(0, NAN),
         "malformed contacts (ValueError: points must be finite: point 0 is [nan])"),
        ("verify", lambda i: i["contacts"]["points"][0].__setitem__(0, NAN),
         "malformed contacts (ValueError: points must be finite: point 0 is [nan])"),
        ("verify", lambda i: i["contacts"]["weights"].__setitem__(0, NAN),
         "contacts.weights must hold one finite number per point (4)"),
        ("minimize-i1", lambda i: i.update(
            nu={"atoms": [{"x": p, "m": NAN} for p in i["contacts"]["points"]]}),
         "malformed nu.atoms (ValueError: masses must be positive and finite)"),
        ("coercivity", lambda i: i.update(
            nu={"atoms": [{"x": p, "m": INF} for p in i["contacts"]["points"]]}),
         "malformed nu.atoms (ValueError: masses must be positive and finite)"),
        ("coercivity", lambda i: i.update(
            nu={"atoms": [{"x": [NAN], "m": 1.0}] + [{"x": p, "m": 1.0}
                                                    for p in i["contacts"]["points"]]}),
         "malformed nu.atoms (ValueError: points must be finite: atom 0 is [nan])"),
        ("sweep-r", lambda i: i.update(r_schedule=["abc"]),
         "r_schedule must be a nonempty list of numbers in (1/2, 1), got ['abc']"),
        ("sweep-r", lambda i: i.update(r_schedule=0.9),
         "r_schedule must be a nonempty list of numbers in (1/2, 1), got 0.9"),
        ("sweep-r", lambda i: i.update(r_schedule=True),
         "r_schedule must be a nonempty list of numbers in (1/2, 1), got True"),
        ("sweep-r", lambda i: i.update(r_schedule=[NAN]),
         "r_schedule must be a nonempty list of numbers in (1/2, 1), got [nan]"),
        ("sweep-r", lambda i: i.update(r_schedule=[1.5]),
         "r_schedule must be a nonempty list of numbers in (1/2, 1), got [1.5]"),
        ("sweep-r", lambda i: i.update(r_schedule=[]),
         "r_schedule must be a nonempty list of numbers in (1/2, 1), got []"),
        ("sweep-r", lambda i: i.update(quadrature=[1, 2]),
         "quadrature must be an object, got [1, 2]"),
        ("verify", lambda i: i.update(h=[1]),
         "h must be an object, got [1]"),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=960.7),
         "malformed quadrature (ValueError: x_nodes_per_axis must be an integer of at least 25, "
         "got 960.7)"),
        ("minimize-i1", lambda i: i.update(contacts=[1, 2]),
         "contacts must be an object, got [1, 2]"),
        ("coercivity", lambda i: i.update(n=True),
         "n must be an integer of at least 1, got True"),
        ("minimize-i1", lambda i: i.update(n=1.0),
         "n must be an integer of at least 1, got 1.0"),
        ("contacts", lambda i: i["h"].update(domain_radius=1e308),
         "h.domain_radius must be null or have a finite square, got 1e+308"),
        ("contacts", lambda i: i["h"]["pieces"][0].update(a=[1e308]),
         "h.pieces[0].a is too large: 4|a|^2 is not finite"),
        ("minimize-i1", lambda i: [piece.update(b=[]) for piece in i["h"]["pieces"]],
         "each piece's b must be a number"),
        ("verify", lambda i: i.update(s=10**400),
         "integer 100000000000... (401 digits) is beyond the float range"),
        ("minimize-i1", _repeat_contact_point,
         "malformed contacts (ValueError: atoms 0 and 1 coincide)"),
        ("coercivity", _repeat_contact_point,
         "malformed contacts (ValueError: atoms 0 and 1 coincide)"),
        ("sweep-r", _repeat_contact_point,
         "malformed contacts (ValueError: atoms 0 and 1 coincide)"),
        ("minimize-i1", lambda i: _calibrate(i, 0.0),
         "malformed contacts (ValueError: masses must be positive and finite)"),
        ("coercivity", lambda i: _calibrate(i, -0.25),
         "malformed contacts (ValueError: masses must be positive and finite)"),
        ("minimize-i1", lambda i: i["h"].update(pieces=[]),
         "h.pieces is empty"),
        ("coercivity", lambda i: [i.update(nu="calibrated"), i["contacts"].pop("weights")],
         "calibrated nu needs construction weights in contacts.weights"),
    ], ids=["piece-without-a", "profile-without-xs", "knots-not-increasing",
            "negative-nu-mass", "domain-radius-not-a-number",
            "contact-points-wrong-dimension", "contact-weights-wrong-length",
            "x-nodes-not-a-number", "negative-s", "zero-s", "x-nodes-zero",
            "x-nodes-negative", "x-nodes-below-four-panels", "f-nonzero-at-minus-one",
            "nan-piece-slope", "infinite-piece-intercept", "nan-contact-point-minimize",
            "nan-contact-point-coercivity", "nan-contact-point-verify", "nan-contact-weight",
            "nan-nu-mass", "infinite-nu-mass", "nan-nu-point", "r-schedule-string-entry",
            "r-schedule-not-a-list", "r-schedule-boolean", "r-schedule-nan-entry",
            "r-schedule-entry-above-one", "r-schedule-empty",
            "quadrature-not-an-object", "h-not-an-object", "x-nodes-fraction",
            "contacts-not-an-object", "n-boolean", "n-fraction", "domain-radius-square-overflows",
            "slope-square-overflows",
            "every-b-an-empty-list", "integer-beyond-float-range",
            "repeated-contact-minimize", "repeated-contact-coercivity", "repeated-contact-sweep",
            "calibrated-zero-weight", "calibrated-negative-weight", "h-pieces-empty",
            "calibrated-without-weights"])
    def test_input_error_without_traceback(self, two_level_instance, tmp_path, capsys,
                                           command, mutate, message):
        # in process: an exception escaping `main` fails the test, as a traceback would; the
        # whole message pins the guard that fired, so a mutation that trips an earlier one
        # fails
        inst = json.loads(two_level_instance.read_text())
        mutate(inst)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        assert cli.main([command, "--instance", str(bad)]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("mutate,why", [
        (_repeat_contact_point, "ValueError: atoms 0 and 1 coincide"),
        (lambda i: _calibrate(i, 0.0), "ValueError: masses must be positive and finite"),
    ], ids=["repeated-contact", "calibrated-zero-weight"])
    def test_measure_on_contacts_names_the_fault(self, two_level_instance, tmp_path, capsys,
                                                 mutate, why):
        inst = json.loads(two_level_instance.read_text())
        mutate(inst)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        assert cli.main(["coercivity", "--instance", str(bad)]) == 1
        assert capsys.readouterr().err == f"input error: malformed contacts ({why})\n"

    @pytest.mark.parametrize("text", ["5", "null", '"abc"', "[1]"],
                             ids=["number", "null", "string", "list"])
    def test_top_level_value_not_an_object(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli.main(["verify", "--instance", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: instance must be a JSON object")

    @pytest.mark.parametrize("command", ["minimize-i1", "sweep-r"])
    def test_invalid_profile_names_failed_properties(self, two_level_instance, tmp_path,
                                                      capsys, command):
        inst = json.loads(two_level_instance.read_text())
        inst["profile"] = F_NONZERO_LEFT
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        assert cli.main([command, "--instance", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        named = captured.err.split("input error: profile pair fails", 1)[1].strip().split(", ")
        assert "f3_zero_left" in named
        # profiles-check still reports the pair instead of refusing it
        assert cli.main(["profiles-check", "--instance", str(bad)]) == 2
        props = json.loads(capsys.readouterr().out)["result"]["profile_properties"]
        assert sorted(named) == sorted(k for k, ok in props.items() if not ok)


class TestExplicitAtoms:
    """`nu.atoms` gives the measure itself, in place of one built on the contacts."""

    @pytest.mark.parametrize("command", ["minimize-i1", "coercivity"])
    def test_unit_atoms_at_the_contacts_are_the_counting_measure(self, tmp_path, capsys,
                                                                 command):
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        atoms = {"atoms": [{"x": p, "m": 1.0} for p in inst["contacts"]["points"]]}
        results = []
        for nu in ("counting", atoms):
            path = tmp_path / "inst.json"
            path.write_text(json.dumps({**inst, "nu": nu}))
            assert cli.main([command, "--instance", str(path)]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert results[0] == results[1]

    def test_atoms_in_another_dimension_are_an_input_error(self, tmp_path, capsys):
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        inst["nu"] = {"atoms": [{"x": p + [0.0], "m": 1.0} for p in inst["contacts"]["points"]]}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        assert cli.main(["coercivity", "--instance", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: nu atom dimension does not match n\n"


def test_profile_failing_beyond_the_grid(two_level_instance, tmp_path):
    # f falls after 3.5, outside the [-3, 3] a sampled check would look at
    inst = json.loads(two_level_instance.read_text())
    inst["profile"] = {"f": {"xs": [-1.0, 3.5, 4.0], "ys": [0.0, 1.0, 0.5]}, "g": G_KNOTS}
    bad = tmp_path / "falling.json"
    bad.write_text(json.dumps(inst))
    check = run("profiles-check", "--instance", str(bad))
    assert check.returncode == 2
    result = json.loads(check.stdout)["result"]
    assert result["all_ok"] is False
    assert [k for k, ok in result["profile_properties"].items() if not ok] == [
        "f2_convex", "f4_strictly_increasing"]
    res = run("minimize-i1", "--instance", str(bad))
    assert res.returncode == 1 and res.stdout == ""
    assert "input error: profile pair fails f2_convex, f4_strictly_increasing" in res.stderr


def test_pair_unfit_for_the_band_is_an_input_error(tmp_path, capsys):
    # the canonical f, and a g that falls to -4e-9 at its top kink 5000: every
    # `validate_profiles` check passes, but the band kernel needs g = 0 at that kink
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    inst["profile"] = {"f": {"xs": [-1.0], "ys": [0.0], "right_slope": 1.0},
                       "g": {"xs": [-1.0, 1.0, 5000.0], "ys": [1.0, 0.0, -4e-9]}}
    bad = tmp_path / "unfit.json"
    bad.write_text(json.dumps(inst))
    assert cli.main(["profiles-check", "--instance", str(bad)]) == 0
    capsys.readouterr()
    assert cli.main(["sweep-r", "--instance", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: profile unfit for the band functionals (")


def test_empty_nu_atoms_is_no_atom(tmp_path, capsys):
    # np.atleast_2d would make the empty list one atom in R^0; the message names the fault
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    inst["nu"] = {"atoms": []}
    bad = tmp_path / "no_atom.json"
    bad.write_text(json.dumps(inst))
    assert cli.main(["coercivity", "--instance", str(bad)]) == 1
    assert capsys.readouterr().err == ("input error: malformed nu.atoms "
                                       "(ValueError: a measure needs at least one atom)\n")


# the custom pair of the CI sweep step: f kinks at -0.3 and 0.4, g at -0.2
CUSTOM_PAIR = {"f": {"xs": [-1.0, -0.3, 0.4], "ys": [0.0, 0.35, 1.1], "right_slope": 2.0},
               "g": {"xs": [-1.0, -0.2, 1.0], "ys": [1.0, 0.7, 0.0]}}


@pytest.mark.parametrize("knot", [NAN, INF, 1e308], ids=["nan", "infinity", "huge"])
def test_non_finite_profile_knot_is_a_clean_input_error(tmp_path, capsys, knot):
    # a numpy warning would reach stderr before "input error:"; as an error it escapes `main`
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    inst["profile"] = json.loads(json.dumps(CUSTOM_PAIR))
    inst["profile"]["f"]["xs"][2] = knot
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["minimize-i1", "--instance", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")


def _huge_contact_point(inst):
    inst["contacts"]["points"][3][1] = 1e308


def _huge_nu_atom(inst):
    inst["nu"] = {"atoms": [{"x": p, "m": 1.0} for p in inst["contacts"]["points"]]}
    inst["nu"]["atoms"][0]["x"] = [1e308, 0.0]


@pytest.mark.parametrize("command,mutate", [
    ("verify", _huge_contact_point), ("minimize-i1", _huge_contact_point),
    ("coercivity", _huge_contact_point), ("minimize-i1", _huge_nu_atom),
    ("coercivity", _huge_nu_atom),
], ids=["contact-verify", "contact-minimize", "contact-coercivity", "nu-minimize",
        "nu-coercivity"])
def test_point_whose_square_overflows_is_a_clean_input_error(tmp_path, capsys, command, mutate):
    # |x|^2 of the point is not finite: rejected before h or a distance overflows on it
    inst = json.loads((INSTANCES / "cross_n2_s2.json").read_text())
    mutate(inst)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--instance", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error:")
    assert "is too large: 4|x|^2 is not finite" in captured.err


def _far_contact_point(inst):
    inst["contacts"]["points"][3] = [0.0, -40.0]


def _large_contact_point(inst):
    inst["contacts"]["points"][3][1] = 1e150  # 4|x|^2 finite, |x|^4 not


@pytest.mark.parametrize("mutate", [_far_contact_point, _large_contact_point],
                         ids=["far", "large"])
def test_contact_off_the_unit_ball_fails_verify(tmp_path, capsys, mutate):
    # a contact needs |x| < 1: h is tiny far out, but the gap there is inf, not h^(1/s);
    # residuals that overflow are inf and fail, with no numpy warning
    inst = json.loads((INSTANCES / "cross_n2_s2.json").read_text())
    mutate(inst)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--instance", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    assert result["residual_a"] == "inf" and result["pass"]["a"] is False
    assert result["ok"] is False
    if mutate is _large_contact_point:
        assert result["residual_b"] == "inf" and result["pass"]["b"] is False


@pytest.mark.parametrize("mutate", [_far_contact_point, _large_contact_point],
                         ids=["far", "large"])
def test_contact_off_the_unit_ball_is_not_an_atom(tmp_path, capsys, mutate):
    inst = json.loads((INSTANCES / "cross_n2_s2.json").read_text())
    mutate(inst)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(inst))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["minimize-i1", "--instance", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("math failure: atom 3 at [")
    assert "has hemisphere gap inf, outside +-1.0e-08" in captured.err


def test_tangent_point_whose_square_overflows_is_a_clean_input_error(tmp_path, capsys):
    out = tmp_path / "inst.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["fixture", "tangent", "--n", "2", "--s", "1.0",
                         "--points", "0.1,0.2;0.3,1e308", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "input error: malformed --points (ValueError: atom 1 is too large: 4|x|^2 is not finite)")
    assert not out.exists()


@pytest.mark.parametrize("command", ["contacts", "minimize-i1", "coercivity", "sweep-r"])
def test_no_contact_is_a_math_failure(tmp_path, capsys, command):
    # every b lowered by 0.1 lifts h off the hemisphere everywhere: not in John position
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    for piece in inst["h"]["pieces"]:
        piece["b"] -= 0.1
    del inst["contacts"]
    bad = tmp_path / "lifted.json"
    bad.write_text(json.dumps(inst))
    assert cli.main([command, "--instance", str(bad)]) == cli.EXIT_MATH
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "math failure: h**(1/s) touches the hemisphere nowhere")


@pytest.mark.parametrize("command", ["minimize-i1", "coercivity", "sweep-r"])
def test_atom_off_the_hemisphere_is_named_in_full(tmp_path, capsys, command):
    # a domain radius of 0.7 zeroes h at the outer atoms: the gap is negative, so the message
    # bounds its absolute value, and names the atom by index with every digit of its point
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    inst["h"]["domain_radius"] = 0.7
    bad = tmp_path / "clipped.json"
    bad.write_text(json.dumps(inst))
    assert cli.main([command, "--instance", str(bad)]) == cli.EXIT_MATH
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "math failure: atom 2 at [0.8944271909999159] has hemisphere gap -4.472e-01, "
        "outside +-1.0e-08\n")


class TestGridCap:
    """A grid above `rfamily.MAX_WALK_ARRAY` is refused before anything is allocated."""

    @pytest.mark.parametrize("n, nodes", [(1, 4194305), (2, 4194305), (3, 2049)])
    def test_build_quad_refuses_it(self, n, nodes):
        with pytest.raises(cli.InputError, match="band-walk array"):
            cli.build_quad({"n": n, "quadrature": {"x_nodes_per_axis": nodes}})
        assert cli.build_quad({"n": n, "quadrature": {"x_nodes_per_axis": nodes - 1}})

    @pytest.mark.parametrize("name, nodes", [("two_level_n1_s1", 4194305),
                                             ("cross_n2_s2", 4194305)])
    def test_sweep_r_exits_before_the_band(self, tmp_path, capsys, monkeypatch, name, nodes):
        from fjohn import rfamily

        def evaluated(*args, **kwargs):
            raise AssertionError("a band was evaluated on the oversized grid")

        monkeypatch.setattr(rfamily._Band, "blocks", evaluated)
        monkeypatch.setattr(rfamily._Band, "line", evaluated)
        inst = json.loads((INSTANCES / f"{name}.json").read_text())
        inst["quadrature"]["x_nodes_per_axis"] = nodes
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(inst))
        assert cli.main(["sweep-r", "--instance", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")


def test_cli_import_leaves_scipy_out():
    res = subprocess.run([sys.executable, "-c",
                          "import importlib.util, sys, fjohn.cli; "
                          "assert 'scipy' not in sys.modules; "
                          "assert importlib.util.find_spec('fjohn.oracle') is None"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def fjohn_modules_after(*argv):
    """The fjohn modules a fresh interpreter holds after `fjohn.cli.main(argv)` exits 0;
    after a bare `import fjohn` when argv is empty."""
    code = ("import contextlib, io, json, sys\n"
            "import fjohn\n"
            "if sys.argv[1:]:\n"
            "    import fjohn.cli\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert fjohn.cli.main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fjohn'))))")
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout))


class TestModulesLoaded:
    """A cold command imports only the modules its own code path calls."""

    INSTANCE = str(INSTANCES / "two_level_n1_s1.json")

    @pytest.mark.parametrize("command", ["verify", "contacts"])
    def test_certificates_load_neither_functional(self, command):
        loaded = fjohn_modules_after(command, "--instance", self.INSTANCE)
        assert "fjohn.contact" in loaded
        assert not loaded & {"fjohn.isotropy", "fjohn.profiles", "fjohn.rfamily",
                             "fjohn.blockmat"}

    @pytest.mark.parametrize("command", ["coercivity", "minimize-i1"])
    def test_contact_functional_leaves_band_family_out(self, command):
        loaded = fjohn_modules_after(command, "--instance", self.INSTANCE)
        assert "fjohn.isotropy" in loaded and "fjohn.rfamily" not in loaded

    def test_sweep_r_loads_band_family(self):
        assert "fjohn.rfamily" in fjohn_modules_after("sweep-r", "--instance", self.INSTANCE)

    def test_bare_package_import_loads_no_submodule(self):
        assert fjohn_modules_after() == {"fjohn"}


class TestAcceptedAndIgnored:
    """Schema version 1 keeps `--grid`, `seed`, `tolerances` and `quadrature.tol`,
    `t_nodes` and `domain_radius`."""

    def test_grid_flag_leaves_contacts_report_unchanged(self):
        inst = str(INSTANCES / "cross_n2_s2.json")
        outs = [run("contacts", "--instance", inst, *extra)
                for extra in ([], ["--grid", "41"], ["--grid", "3"])]
        assert [res.returncode for res in outs] == [0, 0, 0]
        assert outs[0].stdout == outs[1].stdout == outs[2].stdout
        assert json.loads(outs[0].stdout)["result"]["continuum"] is False

    # the command each former tolerance steered; `contacts` for every other key
    STEERED = {"minimize_tol": "minimize-i1", "decomposition_tol": "verify"}

    @pytest.mark.parametrize("section,key,value", [
        ("tolerances", "grid_per_axis", 3), ("quadrature", "tol", 1e-2),
        ("quadrature", "t_nodes", 0), ("quadrature", "t_nodes", -2), ("quadrature", "t_nodes", 2),
        ("quadrature", "domain_radius", 0.5), ("tolerances", "gap_tol", 1e-6),
        ("tolerances", "minimize_tol", 1e-3), ("tolerances", "decomposition_tol", 1.0)])
    def test_instance_keys_change_nothing(self, two_level_instance, tmp_path, capsys,
                                          section, key, value):
        inst = json.loads(two_level_instance.read_text())
        changed = json.loads(two_level_instance.read_text())
        changed.setdefault(section, {})[key] = value
        assert cli.build_quad(changed) == cli.build_quad(inst)
        results = []
        for i, body in enumerate((inst, changed)):
            path = tmp_path / f"inst{i}.json"
            path.write_text(json.dumps(body))
            assert cli.main([self.STEERED.get(key, "contacts"), "--instance", str(path)]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert results[0] == results[1]

    def test_every_listed_contact_is_an_atom(self, tmp_path, capsys):
        # piece 0 lowered by 1e-7 leaves a gap of 7.7e-8 at its tangency point, within a
        # gap_tol of 1e-6 but off the contact set the functional accepts
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        del inst["contacts"]
        inst["h"]["pieces"][0]["b"] -= 1e-7
        inst["tolerances"]["gap_tol"] = 1e-6
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(inst))
        assert cli.main(["contacts", "--instance", str(path)]) == 0
        points = json.loads(capsys.readouterr().out)["result"]["points"]
        assert len(points) == 3
        isotropy._Atoms(cli.build_h(inst), inst["s"], isotropy.counting_measure(points))

    def test_seed_leaves_coercivity_report_unchanged(self, tmp_path, capsys):
        # the triangle (sqrt 0.4) and square (sqrt 0.8) of the CI n = 2 sweep, turned by 0.3;
        # when the seed steered the samples, seed 7 drew a direction below every labelled one
        polar = ([(math.sqrt(0.4), 0.3 + 2 * math.pi * j / 3) for j in range(3)]
                 + [(math.sqrt(0.8), 0.3 + math.pi / 4 + math.pi * j / 2) for j in range(4)])
        points = ";".join(f"{r * math.cos(t)!r},{r * math.sin(t)!r}" for r, t in polar)
        path = tmp_path / "tangent_n2.json"
        assert cli.main(["fixture", "tangent", "--n", "2", "--s", "1", "--points", points,
                         "--out", str(path)]) == 0
        inst = json.loads(path.read_text())
        results = []
        for seed in (0, 7):
            path.write_text(json.dumps({**inst, "seed": seed}))
            capsys.readouterr()
            assert cli.main(["coercivity", "--instance", str(path)]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert results[0] == results[1]


class TestCoercivityCommand:
    def test_two_level_passes(self, two_level_instance):
        res = run("coercivity", "--instance", str(two_level_instance))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["result"]["ok"] is True
        assert payload["result"]["margin"] >= 0.05

    def test_cross_fails_naming_direction(self, cross_instance):
        res = run("coercivity", "--instance", str(cross_instance))
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload["result"]["ok"] is False
        labels = [f["label"] for f in payload["result"]["failures"]]
        assert any("identity-flat" in lbl for lbl in labels)
        assert "identity-flat" in res.stderr

    def test_single_contact_lists_the_named_flat_directions(self, capsys):
        # one contact at 0.5: the samples that fail only lower the margin, the failures
        # are the named directions along which no atom's argument grows
        path = INSTANCES / "tangent_n1_s1.json"
        assert cli.main(["coercivity", "--instance", str(path)]) == cli.EXIT_MATH
        captured = capsys.readouterr()
        result = json.loads(captured.out)["result"]
        assert result["ok"] is False
        assert [f["label"] for f in result["failures"]] == ["identity-flat(+)", "shift(-e0)"]
        assert result["margin"] == -0.8164946225086687 and result["n_checked"] == 2 + 2 + 1000
        assert captured.err == "coercivity failed on direction identity-flat(+)\n"


class TestTwoLevelCrossN2:
    """At n = 2 every atom of the two-level cross is on an axis: flat along M_12."""

    @pytest.fixture(scope="class")
    def cross_n2_instance(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("inst") / "two_level_n2.json"
        res = run("fixture", "two-level-cross", "--n", "2", "--s", "1.0", "--out", str(path))
        assert res.returncode == 0, res.stderr
        return path

    @pytest.mark.parametrize("command", ["minimize-i1", "sweep-r"])
    def test_minimizers_exit_2(self, cross_n2_instance, command):
        res = run(command, "--instance", str(cross_n2_instance))
        assert res.returncode == 2 and res.stdout == ""
        assert "not coercive" in res.stderr

    def test_coercivity_exits_2_on_the_certificate(self, cross_n2_instance):
        res = run("coercivity", "--instance", str(cross_n2_instance))
        assert res.returncode == 2
        result = json.loads(res.stdout)["result"]
        assert result["ok"] is False
        assert [f["label"] for f in result["failures"]] == ["certificate"]
        assert "certificate" in res.stderr


class TestMinimizeCommand:
    def test_report_schema_and_isotropy(self, two_level_instance):
        res = run("minimize-i1", "--instance", str(two_level_instance))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert set(payload) == {"version", "command", "instance_hash", "result"}
        r = payload["result"]
        assert r["converged"] is True
        assert r["isotropy"]["residual_iso"] <= 1e-8
        assert r["isotropy"]["lambda"] > 0

    def test_calibrated_minimum_at_the_origin(self, tmp_path, capsys):
        # calibrated masses put the minimizer at the origin with multiplier F'(0) = 1
        path = tmp_path / "calibrated.json"
        assert cli.main(["fixture", "two-level-cross", "--n", "1", "--s", "1.0",
                         "--nu", "calibrated", "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["minimize-i1", "--instance", str(path)]) == 0
        r = json.loads(capsys.readouterr().out)["result"]
        m = r["minimizer"]
        entries = [v for row in m["diag"] for v in row] + [m["corner"], *m["shift"]]
        assert max(abs(v) for v in entries) <= 1e-12
        assert abs(r["lambda"] - 1.0) <= 1e-12

    def test_contacts_command(self, two_level_instance):
        res = run("contacts", "--instance", str(two_level_instance))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert len(payload["result"]["points"]) == 4


class TestNotConverged:
    @pytest.mark.parametrize("command", ["minimize-i1", "sweep-r"])
    def test_exit_3_reports_the_solver_record(self, command, monkeypatch, capsys):
        # two Newton steps leave the contact functional's gradient at 2.956e-02
        monkeypatch.setattr(isotropy, "NEWTON_MAX_ITER", 2)
        code = cli.main([command, "--instance", str(INSTANCES / "two_level_n1_s1.json")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NOT_CONVERGED and captured.out == ""
        message, record = captured.err.splitlines()
        assert message == "not converged: projected gradient 2.956e-02 above tol 1.0e-10"
        assert record.startswith("solver record: ")
        record = json.loads(record[len("solver record: "):])
        assert record["reason"] == "max_iter" and record["iterations"] == 2
        assert record["evaluations"] >= 3
        assert f"{record['grad_norm']:.3e}" == "2.956e-02"


class TestDeterminism:
    def test_byte_identical_reports(self, two_level_instance):
        outs = [run("minimize-i1", "--instance", str(two_level_instance)).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]
        outs = [run("coercivity", "--instance", str(two_level_instance)).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]


class TestProfilesCheck:
    def test_canonical(self):
        res = run("profiles-check")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["result"]["all_ok"] is True
        assert payload["result"]["F_prime_at_zero"] == pytest.approx(1.0)


    def test_custom_pair_end_to_end(self, tmp_path):
        # the steep pair of test_profiles as an xs/ys profile: f's slope triples
        # at 0.5, g has a kink at 0
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        inst["profile"] = {"f": {"xs": [-1.0, 0.5], "ys": [0.0, 1.5], "right_slope": 3.0},
                           "g": {"xs": [-1.0, 0.0, 1.0], "ys": [1.0, 0.7, 0.0]}}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(inst))
        res = run("profiles-check", "--instance", str(path))
        assert res.returncode == 0, res.stderr
        check = json.loads(res.stdout)["result"]
        assert check["all_ok"] is True
        assert check["F_nonnegative"] and check["F_nondecreasing"] and check["F_convex"]
        res = run("minimize-i1", "--instance", str(path))
        assert res.returncode == 0, res.stderr
        r = json.loads(res.stdout)["result"]
        assert r["converged"] is True and r["lambda_gap"] <= 1e-8
        assert r["isotropy"]["residual_iso"] <= 1e-8
        assert r["evaluations"] >= r["iterations"] > 1
        assert r["stop_reason"] == "projected gradient within tol"


class TestSweepCommand:
    def test_short_sweep_with_csv(self, two_level_instance, tmp_path):
        inst = json.loads(two_level_instance.read_text())
        inst["r_schedule"] = [0.8, 0.9]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(inst))
        csv_path = tmp_path / "sweep.csv"
        res = run("sweep-r", "--instance", str(short), "--out", str(csv_path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert len(payload["result"]["entries"]) == 2
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header[:4] == ["r", "dist_to_identity", "normalized_s_trace",
                              "secant_to_M0"]
        assert len(csv_path.read_text().splitlines()) == 3
