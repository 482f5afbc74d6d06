import functools
import json
import pathlib
import subprocess
import sys

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
    ], ids=["cross-n0", "cross-n-1", "two-level-n0", "points-not-numbers",
            "points-wrong-dimension", "points-ragged", "points-nan", "domain-radius-0",
            "domain-radius-negative", "points-outside-ball", "points-on-sphere"])
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

    def test_verify_fails_on_broken_weights(self, two_level_instance, tmp_path):
        inst = json.loads(two_level_instance.read_text())
        inst["contacts"]["weights"][0] *= 1.2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        res = run("verify", "--instance", str(bad))
        assert res.returncode == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        res = run("verify", "--instance", str(bad))
        assert res.returncode == 1


G_KNOTS = {"xs": [-1.0, 1.0], "ys": [1.0, 0.0]}
# f = 0.2 left of -1: fails f3_zero_left, which ConvolutionProfile assumes
F_NONZERO_LEFT = {"f": {"xs": [-1.0, 0.5], "ys": [0.2, 1.5]}, "g": G_KNOTS}


class TestMalformedInput:
    @pytest.mark.parametrize("command,mutate,extra", [
        ("minimize-i1", lambda i: i["h"]["pieces"][0].pop("a"), []),
        ("minimize-i1", lambda i: i.update(profile={"f": {"ys": [0.0, 2.0]}, "g": G_KNOTS}), []),
        ("minimize-i1", lambda i: i.update(
            profile={"f": {"xs": [1.0, -1.0], "ys": [2.0, 0.0]}, "g": G_KNOTS}), []),
        ("minimize-i1", lambda i: i.update(
            nu={"atoms": [{"x": p, "m": -1.0} for p in i["contacts"]["points"]]}), []),
        ("coercivity", lambda i: None, ["--dirs", "-1"]),
        ("verify", lambda i: i["h"].update(domain_radius="abc"), []),
        ("verify", lambda i: i["contacts"].update(
            points=[p + [0.0] for p in i["contacts"]["points"]]), []),
        ("verify", lambda i: i["contacts"].update(weights=i["contacts"]["weights"][:1]), []),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis="abc"), []),
        ("verify", lambda i: i.update(s=-1.0), []),
        ("minimize-i1", lambda i: i.update(s=0), []),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=0), []),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=-5), []),
        ("sweep-r", lambda i: i["quadrature"].update(x_nodes_per_axis=8), []),
        ("sweep-r", lambda i: i.update(profile=F_NONZERO_LEFT), []),
    ], ids=["piece-without-a", "profile-without-xs", "knots-not-increasing",
            "negative-nu-mass", "negative-dirs", "domain-radius-not-a-number",
            "contact-points-wrong-dimension", "contact-weights-wrong-length",
            "x-nodes-not-a-number", "negative-s", "zero-s", "x-nodes-zero",
            "x-nodes-negative", "x-nodes-below-four-panels", "f-nonzero-at-minus-one"])
    def test_input_error_without_traceback(self, two_level_instance, tmp_path, command,
                                           mutate, extra):
        inst = json.loads(two_level_instance.read_text())
        mutate(inst)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        res = run(command, "--instance", str(bad), *extra)
        assert res.returncode == 1
        assert "input error" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["minimize-i1", "sweep-r"])
    def test_invalid_profile_names_failed_properties(self, two_level_instance, tmp_path,
                                                      command):
        inst = json.loads(two_level_instance.read_text())
        inst["profile"] = F_NONZERO_LEFT
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(inst))
        res = run(command, "--instance", str(bad))
        assert res.returncode == 1
        assert res.stdout == "" and "Traceback" not in res.stderr
        named = res.stderr.split("input error: profile pair fails", 1)[1].strip().split(", ")
        assert "f3_zero_left" in named
        # profiles-check still reports the pair instead of refusing it
        check = run("profiles-check", "--instance", str(bad))
        assert check.returncode == 2
        props = json.loads(check.stdout)["result"]["profile_properties"]
        assert sorted(named) == sorted(k for k, ok in props.items() if not ok)


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


def test_cli_import_leaves_scipy_out():
    res = subprocess.run([sys.executable, "-c",
                          "import importlib.util, sys, fjohn.cli; "
                          "assert 'scipy' not in sys.modules; "
                          "assert importlib.util.find_spec('fjohn.oracle') is None"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


class TestAcceptedAndIgnored:
    """Schema version 1 keeps `--grid`, `tolerances.grid_per_axis` and `quadrature.tol`,
    `t_nodes` and `domain_radius`."""

    def test_grid_flag_leaves_contacts_report_unchanged(self):
        inst = str(INSTANCES / "cross_n2_s2.json")
        outs = [run("contacts", "--instance", inst, *extra)
                for extra in ([], ["--grid", "41"], ["--grid", "3"])]
        assert [res.returncode for res in outs] == [0, 0, 0]
        assert outs[0].stdout == outs[1].stdout == outs[2].stdout
        assert json.loads(outs[0].stdout)["result"]["continuum"] is False

    @pytest.mark.parametrize("section,key,value", [
        ("tolerances", "grid_per_axis", 3), ("quadrature", "tol", 1e-2),
        ("quadrature", "t_nodes", 0), ("quadrature", "t_nodes", -2), ("quadrature", "t_nodes", 2),
        ("quadrature", "domain_radius", 0.5)])
    def test_instance_keys_change_nothing(self, two_level_instance, tmp_path, capsys,
                                          section, key, value):
        inst = json.loads(two_level_instance.read_text())
        changed = json.loads(two_level_instance.read_text())
        changed[section][key] = value
        assert cli.build_quad(changed) == cli.build_quad(inst)
        results = []
        for i, body in enumerate((inst, changed)):
            path = tmp_path / f"inst{i}.json"
            path.write_text(json.dumps(body))
            assert cli.main(["contacts", "--instance", str(path)]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert results[0] == results[1]


class TestCoercivityCommand:
    def test_two_level_passes(self, two_level_instance):
        res = run("coercivity", "--instance", str(two_level_instance), "--dirs", "200")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["result"]["ok"] is True
        assert payload["result"]["margin"] >= 0.05

    def test_cross_fails_naming_direction(self, cross_instance):
        res = run("coercivity", "--instance", str(cross_instance), "--dirs", "100")
        assert res.returncode == 2
        payload = json.loads(res.stdout)
        assert payload["result"]["ok"] is False
        labels = [f["label"] for f in payload["result"]["failures"]]
        assert any("identity-flat" in lbl for lbl in labels)
        assert "identity-flat" in res.stderr


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

    def test_contacts_command(self, two_level_instance):
        res = run("contacts", "--instance", str(two_level_instance))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert len(payload["result"]["points"]) == 4


class TestNotConverged:
    @pytest.mark.parametrize("command", ["minimize-i1", "sweep-r"])
    def test_exit_3_reports_the_solver_record(self, command, monkeypatch, capsys):
        # two Newton steps leave the contact functional's gradient at 2.965e-01
        capped = functools.partial(isotropy.minimize_functional, max_iter=2)
        monkeypatch.setattr(isotropy, "minimize_functional", capped)
        code = cli.main([command, "--instance", str(INSTANCES / "two_level_n1_s1.json")])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NOT_CONVERGED and captured.out == ""
        message, record = captured.err.splitlines()
        assert message == "not converged: projected gradient 2.965e-01 above tol 1.0e-10"
        assert record.startswith("solver record: ")
        record = json.loads(record[len("solver record: "):])
        assert record["reason"] == "max_iter" and record["iterations"] == 2
        assert record["evaluations"] >= 3
        assert f"{record['grad_norm']:.3e}" == "2.965e-01"


class TestDeterminism:
    def test_byte_identical_reports(self, two_level_instance):
        outs = [run("minimize-i1", "--instance", str(two_level_instance)).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]
        outs = [run("coercivity", "--instance", str(two_level_instance),
                    "--dirs", "300").stdout for _ in range(2)]
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
