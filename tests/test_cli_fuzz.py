"""A seeded fuzz of the CLI over the leaves of the shipped instances.

A case replaces one leaf of a shipped instance (a number, string, boolean or
null, or an empty list or object) by one of VALUES, or deletes it, and runs
the instance commands through `cli.main` in process.  Every run must exit
with 0-3 and no exception may escape `main`.  Exit 0 prints one JSON report.
A nonzero exit prints its prefix on stderr and nothing on stdout, except the
verdicts of `verify` and `coercivity`: exit 2 with one report whose `ok` is
false.

The leaf x value pairs are sampled under a fixed seed to keep the run short.
`sweep-r` runs at n = 1 only, on a one-r schedule.  One more instance swaps
the canonical profile pair of `two_level_n1_s1` for a custom one, and its
cases mutate the leaves of that pair only.  No case sets a node count
above the default: `build_quad` takes any integer count of at least 25, and a
large one would allocate gigabytes.
"""

import copy
import functools
import json
import operator
import pathlib
import random
import re

import pytest

from fjohn import cli

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"
DELETE = object()
VALUES = [None, True, "abc", [], {}, [1], -1, 0, 0.5, 2, 1e308, float("nan"), float("inf"),
          -1e-300, [[0.1]], [0.1, 0.2], 10**400, DELETE]
COMMANDS = ["verify", "contacts", "coercivity", "minimize-i1"]
PAIRS_PER_INSTANCE = 80
SWEEP_PAIRS = 40
PREFIX = {1: "input error: ", 2: "math failure: ", 3: "not converged: "}
# f kinks at -0.3 and 0.4, g at -0.2
CUSTOM_PAIR = {"f": {"xs": [-1, -0.3, 0.4], "ys": [0, 0.35, 1.1], "right_slope": 2.0},
               "g": {"xs": [-1, -0.2, 1], "ys": [1, 0.7, 0]}}
CUSTOM_PAIRS = 40


def leaves(node, path=()):
    """The paths to the leaves of a JSON value: scalars and empty containers."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from leaves(child, path + (key,))
    else:
        yield path


def mutated(inst: dict, path: tuple, value) -> dict:
    inst = copy.deepcopy(inst)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, inst)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return inst


def node_count_allowed(path: tuple, value) -> bool:
    return not (path[-1] == "x_nodes_per_axis" and type(value) is int and value > 960)


def problem(command: str, code, out: str, err: str) -> str | None:
    """What breaks the CLI's exit contract in one run, or None."""
    if code == 0:
        lines = out.splitlines()
        if len(lines) != 1:
            return f"exit 0 with {len(lines)} stdout lines"
        json.loads(lines[0])
        return None
    if code == 2 and out and command in ("verify", "coercivity"):
        return None if json.loads(out)["result"]["ok"] is False else "exit 2 on an ok report"
    if code not in PREFIX:
        return f"exit {code!r}"
    if out or not err.startswith(PREFIX[code]):
        return f"exit {code} without its prefix: {err[:200]!r}, stdout {out[:80]!r}"
    return None


def run_cases(inst: dict, pairs, commands, tmp_path, capsys) -> list:
    path = tmp_path / "case.json"
    found = []
    for leaf, value in pairs:
        path.write_text(json.dumps(mutated(inst, leaf, value)))
        for command in commands:
            try:
                code = cli.main([command, "--instance", str(path)])
            except Exception as exc:  # the finding itself: record it with its case
                code = exc
            out, err = capsys.readouterr()
            why = (f"{type(code).__name__}: {code}" if isinstance(code, Exception)
                   else problem(command, code, out, err))
            if why:
                shown = "delete" if value is DELETE else repr(value)[:40]
                found.append(f"{command} {'.'.join(map(str, leaf))} = {shown}: {why}")
    return found


def sample(inst: dict, k: int, seed: str, under: tuple = ()) -> list:
    """k leaf x value pairs of the subtree at path `under` (the whole instance by default)."""
    node = functools.reduce(operator.getitem, under, inst)
    pairs = [(leaf, value) for leaf in leaves(node, under) for value in VALUES
             if node_count_allowed(leaf, value)]
    return random.Random(seed).sample(pairs, min(k, len(pairs)))


@pytest.mark.parametrize("name", ["two_level_n1_s1", "tangent_n1_s1", "cross_n2_s2"])
def test_instance_commands_keep_the_exit_contract(name, tmp_path, capsys):
    inst = json.loads((INSTANCES / f"{name}.json").read_text())
    assert run_cases(inst, sample(inst, PAIRS_PER_INSTANCE, name), COMMANDS,
                     tmp_path, capsys) == []


@pytest.mark.parametrize("name", ["two_level_n1_s1", "tangent_n1_s1"])
def test_sweep_keeps_the_exit_contract(name, tmp_path, capsys):
    inst = json.loads((INSTANCES / f"{name}.json").read_text())
    assert inst["n"] == 1
    inst["r_schedule"] = [0.9]
    assert run_cases(inst, sample(inst, SWEEP_PAIRS, f"sweep-{name}"), ["sweep-r"],
                     tmp_path, capsys) == []


def test_custom_profile_pair_keeps_the_exit_contract(tmp_path, capsys):
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    inst["profile"] = copy.deepcopy(CUSTOM_PAIR)
    inst["r_schedule"] = [0.9]
    pairs = sample(inst, CUSTOM_PAIRS, "custom", under=("profile",))
    assert run_cases(inst, pairs, COMMANDS + ["sweep-r"], tmp_path, capsys) == []


# One misspelled key at each level an instance reader reads, by its full path.  The
# levels under nu and profile are read when nu lists atoms and the pair is custom.
MISSPELLED = ["r_shedule", "h.domain_raduis", "h.pieces[1].bb", "contacts.weight",
              "quadrature.x_nodes_per_axes", "nu.atom", "nu.atoms[0].mass", "profile.gg",
              "profile.f.right_slop", "profile.g.xss"]


@pytest.mark.parametrize("path", MISSPELLED)
def test_misspelled_key_is_named_by_its_path(path, tmp_path, capsys):
    *level, key = [int(part) if part.isdigit() else part
                   for part in re.findall(r"[^.[\]]+", path)]
    inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
    inst["r_schedule"] = [0.9]
    if level and level[0] in ("nu", "profile"):
        inst["nu"] = {"atoms": [{"x": x, "m": 1.0} for x in inst["contacts"]["points"]]}
        inst["profile"] = copy.deepcopy(CUSTOM_PAIR)
    functools.reduce(operator.getitem, level, inst)[key] = 1
    case = tmp_path / "case.json"
    case.write_text(json.dumps(inst))
    assert cli.main(["sweep-r", "--instance", str(case)]) == 1
    assert capsys.readouterr() == ("", f"input error: unknown key {path!r}\n")


def test_the_contract_check_rejects_a_bare_failure():
    assert problem("verify", 0, '{"result": {}}\n', "") is None
    assert problem("verify", 2, '{"result": {"ok": false}}\n', "") is None
    assert problem("contacts", 2, "", "math failure: h is not in John position\n") is None
    assert problem("minimize-i1", 1, "", "Traceback (most recent call last):\n") is not None
    assert problem("minimize-i1", 2, '{"result": {"ok": false}}\n', "") is not None
    assert problem("contacts", 0, "", "") is not None
