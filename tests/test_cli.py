import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mdiscord import MeasParams, OptimizerConfig, discord, random_state
from mdiscord import cli, oracle, states
from mdiscord.measure import params_to_json
from mdiscord.qstate import to_json

FAST = ["--grid-points", "4", "--refine-starts", "2"]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestDiscordCommand:
    def test_ghz_value(self, tmp_path):
        out = tmp_path / "ghz.json"
        code = cli.main(["discord", "--family", "ghz", "--level", "3",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert_allclose(payload["value"], 1.0, atol=1e-4)
        assert set(payload["decomposition"]) == {
            "Delta_AB_C", "Delta_AC_B", "Delta_BC_PiA", "Delta_ABC"
        }

    def test_decomposition_keys_in_sweep_column_order(self, capsys):
        code, text = run(capsys, ["discord", "--family", "werner_w", "--mu", "0.7",
                                  "--level", "3"] + FAST)
        assert code == 0
        assert list(json.loads(text)["decomposition"]) == list(cli.SWEEP_COLUMNS[2:])

    def test_product_is_zero(self, capsys):
        code, text = run(capsys, ["discord", "--family", "product"] + FAST)
        assert code == 0
        assert json.loads(text)["value"] < 1e-6

    def test_explicit_state_matches_library(self, tmp_path, capsys):
        state = random_state((2, 2), 2, 77)
        state_file = tmp_path / "state.json"
        state_file.write_text(to_json(state))
        code, text = run(
            capsys,
            ["discord", "--state", str(state_file), "--order", "0,1"] + FAST,
        )
        assert code == 0
        payload = json.loads(text)
        direct = discord(
            state, measured_order=(0, 1),
            config=OptimizerConfig(grid_points_per_angle=4, refine_starts=2),
        )
        assert payload["value"] == direct.value
        assert payload["diagnostics"] == direct.diagnostics

    def test_family_and_state_are_exclusive(self, capsys):
        code, _ = run(capsys, ["discord", "--family", "ghz", "--state", "x.json"])
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _ = run(capsys, ["discord", "--family", "nope"])
        assert code == 2

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "state": {"family": "werner_ghz", "mu": 0.5},
            "level": 3,
            "optimizer": {"grid_points_per_angle": 4, "refine_starts": 2},
        }))
        code, text = run(capsys, ["discord", "--config", str(config)])
        assert code == 0
        assert json.loads(text)["value"] > 0.1


class TestSweepCommand:
    def test_werner_ghz_structure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--family", "werner_ghz", "--points", "3",
                         "--out", str(out)] + FAST)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mu,D,Delta_AB_C,Delta_AC_B,Delta_BC_PiA,Delta_ABC"
        assert len(lines) == 4
        for line in lines[1:]:
            mu, d, *deltas = [float(cell) for cell in line.split(",")]
            assert_allclose(sum(deltas), d, atol=1e-6)
        first = [float(c) for c in lines[1].split(",")]
        last = [float(c) for c in lines[3].split(",")]
        assert first[0] == 0.0 and first[1] < 1e-6
        assert last[0] == 1.0 and abs(last[1] - 1.0) < 1e-3

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--family", "bell_mixture", "--points", "3"] + FAST
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_requires_mu_family(self, capsys):
        code, _ = run(capsys, ["sweep", "--family", "ghz", "--points", "3"])
        assert code == 2

    def test_config_grid(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "state": {"family": "werner_ghz"},
            "sweep": {"start": 0.5, "stop": 1.0, "points": 2},
            "optimizer": {"grid_points_per_angle": 4, "refine_starts": 2},
        }))
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.5, 1.0]


class TestFluxCommand:
    def test_with_explicit_params(self, tmp_path):
        params_file = tmp_path / "params.json"
        params_file.write_text(params_to_json(MeasParams(((0.0, 0.0),) * 3)))
        out = tmp_path / "flux.csv"
        code = cli.main(["flux", "--family", "ghz", "--params", str(params_file),
                         "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        columns = dict(zip(header.split(","), [float(x) for x in row.split(",")]))
        assert len(columns) == 45
        assert_allclose(columns["d_A_BC_m1"], 1.0, atol=1e-9)
        assert_allclose(columns["Delta_ABC_m1"], -1.0, atol=1e-9)
        assert columns["Delta_ABC_pre"] == 0.0

    def test_optimizes_when_params_missing(self, tmp_path):
        out = tmp_path / "flux.csv"
        code = cli.main(["flux", "--family", "cc_example", "--out", str(out)] + FAST)
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        columns = dict(zip(header.split(","), [float(x) for x in row.split(",")]))
        # every discord contribution vanishes at the optimum of a zero
        # discord state (local dS_* entropy shifts need not)
        for name, value in columns.items():
            if name.startswith(("d_", "Delta_")):
                assert abs(value) < 1e-6, (name, value)


class TestVerifyCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = cli.main(["verify", "--samples", "15", "--seed", "0",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "check,samples,max_violation,tolerance,pass"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["verify", "--samples", "10", "--seed", "3",
                         "--out", str(a)]) == 0
        assert cli.main(["verify", "--samples", "10", "--seed", "3",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_injected_bias_fails_with_exit_one(self, tmp_path, monkeypatch):
        # a biased branch-entropy routine breaks the decomposition identities
        true_fn = oracle._weighted_entropies

        def biased(branches):
            return true_fn(branches) + 0.01

        monkeypatch.setattr(oracle, "_weighted_entropies", biased)
        out = tmp_path / "verify.csv"
        code = cli.main(["verify", "--samples", "5", "--out", str(out)])
        assert code == 1
        rows = out.read_text().strip().splitlines()[1:]
        failed = {row.split(",")[0] for row in rows if row.endswith(",0")}
        assert "conditional_discord_decomposition" in failed

    def test_output_matches_the_pinned_file(self, tmp_path):
        # the file holds this command's output at an earlier commit, the
        # rounding-level digits of every violation included, so a change to
        # how the checks sum or stack their samples shows here
        out = tmp_path / "verify.csv"
        code = cli.main(["verify", "--samples", "100", "--seed", "0", "--out", str(out)])
        assert code == 0
        pinned = Path(__file__).parent / "data" / "verify_seed0_samples100.csv"
        assert out.read_bytes() == pinned.read_bytes()


class TestParserErrors:
    def test_bad_order_string(self, capsys):
        code, _ = run(capsys, ["discord", "--family", "ghz", "--order", "0,x"])
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _ = run(capsys, ["discord", "--family", "ghz",
                               "--config", "/nonexistent.json"])
        assert code == 2

    def test_bad_sweep_grid(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "state": {"family": "werner_ghz"}, "sweep": {"start": 0.9, "stop": 0.1},
        }))
        code, _ = run(capsys, ["sweep", "--config", str(config)])
        assert code == 2


WERNER_GHZ = {"family": "werner_ghz"}
PAIR = json.loads(to_json(random_state((2, 2), 2, 77)))
FOUR_QUBITS = json.loads(to_json(random_state((2, 2, 2, 2), 3, 5)))

# (argv, a fragment of the error line that shows which check fired); a dict
# or a list in argv stands for a JSON file holding it
REJECTED = [
    (["discord", "--family", "werner_ghz", "--mu", "0.5", "--level", "7"],
     "level must lie"),
    (["discord", "--family", "werner_ghz", "--mu", "0.5", "--order", "0,0"],
     "measurement order"),
    # 80 points per angle: a largest level-3 table of (2 * 80**2) ** 2 values
    (["discord", "--family", "werner_ghz", "--mu", "0.5", "--grid-points", "80"],
     "too large"),
    (["verify", "--samples", "0"], "samples must be a positive integer"),
    (["sweep", "--config", {"state": WERNER_GHZ, "sweep": {"points": 3.0}}],
     "sweep.points must be an integer"),
    (["sweep", "--config", {"state": WERNER_GHZ, "sweep": {"points": "3"}}],
     "sweep.points must be an integer"),
    (["verify", "--config", {"samples": True}], "samples must be an integer"),
    (["discord", "--config", [1, 2]], ".json must be a JSON object"),
    (["flux", "--config", [1, 2]], ".json must be a JSON object"),
    (["verify", "--config", [1, 2]], ".json must be a JSON object"),
    (["sweep", "--config", {"state": WERNER_GHZ, "sweep": {"start": None, "points": 2}}],
     "sweep.start must be a number"),
    (["sweep", "--config", {"state": WERNER_GHZ, "sweep": {"stop": True, "points": 2}}],
     "sweep.stop must be a number"),
    (["verify", "--config", {"seed": "x", "samples": 1}], "seed must be an integer"),
    (["verify", "--config", {"seed": True, "samples": 1}], "seed must be an integer"),
    (["discord", "--config", {"state": {"family": "werner_ghz", "mu": "0.5"}}],
     "state.mu must be a number"),
    (["discord", "--config", {"state": {"family": "werner_ghz", "mu": True}}],
     "state.mu must be a number"),
    (["discord", "--family", "werner_ghz", "--mu", "0.5", "--seed", "1"],
     "unrecognized arguments: --seed"),
    (["discord", "--family", "ghz", "--config", {"optimizer": [1, 2]}],
     "optimizer block must be a JSON object"),
    (["flux", "--config", {"state": "ghz"}], "state block must be a JSON object"),
    (["sweep", "--config", {"state": WERNER_GHZ, "sweep": [1]}],
     "sweep block must be a JSON object"),
    (["discord", "--family", "ghz", "--config", {"order": 5}],
     "order must be a list of integers"),
    (["flux", "--family", "ghz", "--config", {"order": 5}],
     "order must be a list of integers"),
    (["discord", "--family", "ghz", "--config", {"order": "01"}],
     "order must be a list of integers"),
    (["flux", "--family", "ghz", "--config", {"order": "01"}],
     "order must be a list of integers"),
    (["discord", "--family", "ghz", "--config", {"level": "2"}],
     "level must be an integer"),
    (["verify", "--samples", "1", "--config", {"out": 5}], "out must be a string"),
    (["discord", "--config", {"state": {"state": 5}}], "state.state must be a string"),
    (["flux", "--family", "ghz", "--config", {"params": 5}], "params must be a string"),
    (["discord", "--family", "ghz", "--config",
      {"optimizer": {"grid_points_per_angle": 3.5}}],
     "grid_points_per_angle must be an integer"),
    (["discord", "--family", "ghz", "--config",
      {"optimizer": {"simplex_max_iters": "5"}}],
     "no config key 'optimizer.simplex_max_iters'"),
    (["discord", "--family", "ghz", "--config", {"optimizer": {"simplex_tol": "x"}}],
     "no config key 'optimizer.simplex_tol'"),
    (["discord", "--family", "ghz", "--config", {"levle": 2}], "no config key 'levle'"),
    (["discord", "--config", {"state": {"family": "ghz", "muu": 0.1}}],
     "no config key 'state.muu'"),
    (["sweep", "--config", {"family": "werner_ghz"}], "did you mean state.family"),
    (["discord", "--config", {"family": "ghz"}], "did you mean state.family"),
    (["flux", "--config", {"family": "ghz"}], "did you mean state.family"),
    (["discord", "--family", "ghz", "--config", {"optimizer.refine_starts": 2}],
     "go inside the block"),
    (["verify", "--samples", "1", "--grid-points", "3"],
     "unrecognized arguments: --grid-points"),
    (["flux", "--family", "ghz", "--params", {"nodes": 5}], "params JSON must be"),
    (["flux", "--family", "ghz", "--params", {"nodes": [5]}], "params JSON must be"),
    (["flux", "--family", "ghz", "--params", [1]], "params JSON must be"),
    (["discord", "--state", {"dims": 5, "matrix": []}], "dims must be a list"),
    (["discord", "--state", {"dims": [2, 2], "matrix": 5}], "matrix must be a list"),
    (["discord", "--state", {"dims": [2, 2], "matrix": [[1, 2]]}],
     "matrix must be a list"),
    (["discord", "--state", []], "with 'dims' and 'matrix'"),
    (["discord", "--family", "ghz", "--level", "3", "--simplex-iters", "-1"],
     "unrecognized arguments: --simplex-iters"),
    (["discord", "--family", "ghz", "--config", {"optimizer": {"simplex_tol": -1}}],
     "no config key 'optimizer.simplex_tol'"),
    (["discord", "--family", "ghz", "--config",
      {"optimizer": {"simplex_tol": float("nan")}}],
     "no config key 'optimizer.simplex_tol'"),
    (["flux", "--family", "ghz", "--order", "0,0"], "measurement order"),
    (["flux", "--family", "ghz", "--order", "5"], "measurement order"),
    (["verify", "--seed", "-1"], "seed must be a non-negative integer"),
    (["discord", "--family", "werner_ghz"], "'werner_ghz' is mu-parameterized and needs mu"),
    (["discord", "--family", "ghz", "--mu", "0.5"], "'ghz' takes no mu"),
    (["discord", "--state", PAIR, "--mu", "0.5"], "explicit --state takes no mu"),
    (["flux", "--state", PAIR, "--mu", "0.9"], "explicit --state takes no mu"),
    (["discord", "--config", {"state": {"state": "pair.json", "mu": 0.5}}],
     "explicit --state takes no mu"),
    (["flux", "--config", {"state": {"state": "pair.json", "mu": 0.9}}],
     "explicit --state takes no mu"),
    # an output file that cannot be written is refused before any work
    (["discord", "--family", "ghz", "--out", "/nonexistent/dir/x.json"], "not a file in an existing directory"),
    (["discord", "--family", "ghz", "--out", "."], "not a file in an existing directory"),
    (["sweep", "--family", "werner_ghz", "--out", "/nonexistent/dir/x.csv"],
     "not a file in an existing directory"),
    (["sweep", "--family", "werner_ghz", "--out", "."], "not a file in an existing directory"),
    (["flux", "--family", "ghz", "--out", "/nonexistent/dir/x.csv"], "not a file in an existing directory"),
    (["flux", "--family", "ghz", "--out", "."], "not a file in an existing directory"),
    (["verify", "--samples", "2", "--out", "/nonexistent/dir/x.csv"], "not a file in an existing directory"),
    (["verify", "--samples", "2", "--out", "."], "not a file in an existing directory"),
    # JSON Infinity and NaN are refused by name, before validation
    (["discord", "--state", {"dims": [2], "matrix": [[[float("inf"), 0], [0, 0]],
                                                       [[0, 0], [0.5, 0]]]}],
     "matrix entry [0][0] must be finite"),
    (["flux", "--state", {"dims": [2, 2], "matrix": [
        [[0.25, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [0.25, 0], [0, float("nan")], [0, 0]],
        [[0, 0], [0, 0], [0.25, 0], [0, 0]], [[0, 0], [0, 0], [0, 0], [0.25, 0]]]}],
     "matrix entry [1][2] must be finite"),
    # an angle beyond every float is refused before it is converted
    (["flux", "--family", "ghz", "--params",
      {"nodes": [{"path": [], "theta": 10 ** 400, "phi": 0.0}]}],
     "theta of node [] must be finite"),
    (["discord", "--state", {"dims": [2], "matrix": [[[0.5, 0], [0, 0]],
                                                       [[0, 0], [0.5, 0]]]}],
     "discord needs at least two subsystems, the state has 1"),
    (["flux", "--state", {"dims": [4], "matrix": [
        [[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]}],
     "discord needs at least two subsystems, the state has 1"),
    # a level-4 grid whose point count has more digits than an integer may
    # print: refused before any power of the points is formed
    (["discord", "--state", FOUR_QUBITS, "--grid-points", str(10 ** 400)],
     "points per angle needs more than 100000000 branch terms"),
    # a node given twice: the later angles would silently win
    (["flux", "--family", "ghz", "--params",
      {"nodes": [{"path": [], "theta": 0.3, "phi": 0.0},
                 {"path": [], "theta": 1.0, "phi": 0.0}]}],
     "node path [] is given twice"),
]


@pytest.mark.parametrize("argv, fragment", REJECTED,
                         ids=[f"argv{i}" for i in range(len(REJECTED))])
def test_rejected_input_exits_two_with_one_line(capsys, tmp_path, argv, fragment):
    json_file = tmp_path / "input.json"
    is_file = [isinstance(arg, (dict, list)) for arg in argv]
    for arg, file in zip(argv, is_file):
        if file:
            json_file.write_text(json.dumps(arg))
    code = cli.main([str(json_file) if file else arg for arg, file in zip(argv, is_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "error: " in err and "Traceback" not in err
    assert fragment in err


@pytest.mark.parametrize("argv, pinned", [
    (["sweep", "--family", "werner_w", "--points", "5"], "sweep_werner_w_points5.csv"),
    (["flux", "--family", "werner_ghz", "--mu", "0.5"], "flux_werner_ghz_mu0.5.csv"),
], ids=["sweep", "flux"])
def test_fields_match_the_pinned_output(capsys, argv, pinned):
    # the files hold this command's output at an earlier commit; fields
    # are compared as numbers, because the last digits of near-zero
    # entries depend on the BLAS
    code, text = run(capsys, argv)
    assert code == 0
    rows = list(csv.reader(text.splitlines()))
    expected = list(csv.reader((Path(__file__).parent / "data" / pinned).read_text()
                               .splitlines()))
    assert rows[0] == expected[0]
    assert len(rows) == len(expected)
    for row, want in zip(rows[1:], expected[1:]):
        assert_allclose([float(v) for v in row], [float(v) for v in want],
                        rtol=0, atol=1e-9)


@pytest.mark.parametrize("argv, pinned", [
    (["discord", "--family", "werner_ghz", "--mu", "0.7"], "discord_werner_ghz_mu0.7.json"),
    (["discord", "--family", "werner_w", "--mu", "0.4", "--order", "2,0"],
     "discord_werner_w_mu0.4_order2_0.json"),
], ids=["werner_ghz", "werner_w-order"])
def test_discord_output_matches_the_pinned_file(capsys, argv, pinned):
    # the files hold this command's output at an earlier commit; values
    # are compared as numbers, and evaluation counts not at all, because
    # the last digits and the iterations they take depend on the BLAS
    code, text = run(capsys, argv)
    assert code == 0
    result = json.loads(text)
    expected = json.loads((Path(__file__).parent / "data" / pinned).read_text())
    assert result.keys() == expected.keys()
    assert result["diagnostics"].keys() == expected["diagnostics"].keys()
    assert result["decomposition"].keys() == expected["decomposition"].keys()
    assert [node.keys() for node in result["params"]["nodes"]] == [
        node.keys() for node in expected["params"]["nodes"]]
    assert abs(result["value"] - expected["value"]) <= 1e-9
    for term, value in expected["decomposition"].items():
        assert abs(result["decomposition"][term] - value) <= 1e-9
    assert result["diagnostics"]["converged"] is expected["diagnostics"]["converged"]


def test_module_entry_point(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "mdiscord.cli", "verify", "--samples", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "check,samples,max_violation,tolerance,pass"


# Each integer and number flag with a cheap command around it, the values at
# its bounds, and the values beyond them.  Level 3 refuses a grid above 70
# points per angle before it allocates anything, so 71 and up are safe; the
# upper ends of --points and --samples are left out because they only cost time.
BOUNDED_FLAGS = {
    "--grid-points": (["discord", "--family", "werner_ghz", "--mu", "0.5",
                       "--refine-starts", "1"],
                      st.one_of(st.sampled_from([2, 3]), st.integers(max_value=1),
                                st.integers(min_value=71))),
    "--refine-starts": (["discord", "--family", "werner_w", "--mu", "0.5",
                         "--grid-points", "2"],
                        st.one_of(st.sampled_from([1, 4]), st.integers(max_value=0),
                                  st.integers(min_value=5))),
    "--points": (["sweep", "--family", "bell_mixture", "--grid-points", "2",
                  "--refine-starts", "1"],
                 st.one_of(st.sampled_from([2, 3]), st.integers(max_value=1))),
    "--samples": (["verify"], st.one_of(st.just(1), st.integers(max_value=0))),
    "--level": (["discord", "--family", "ghz", "--grid-points", "2",
                 "--refine-starts", "1"],
                st.one_of(st.sampled_from([2, 3]), st.integers(max_value=1),
                          st.integers(min_value=4))),
    "--mu": (["flux", "--family", "classical_quantum_mix", "--grid-points", "3",
              "--refine-starts", "1"],
             st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(allow_nan=True, allow_infinity=True))),
}


# every bound and the first value beyond it, whatever the draws reach
BOUND_EDGES = [("--grid-points", 1), ("--grid-points", 2), ("--grid-points", 71),
               ("--refine-starts", 0), ("--refine-starts", 1), ("--points", 1),
               ("--points", 2), ("--samples", 0), ("--samples", 1), ("--level", 1),
               ("--level", 2), ("--level", 3), ("--level", 4), ("--mu", -5e-324),
               ("--mu", 0.0), ("--mu", 1.0), ("--mu", 1.0000000000000002)]


def _with_edges(test):
    for edge in BOUND_EDGES:
        test = example(edge)(test)
    return test


@_with_edges
@example(("--grid-points", 10 ** 400))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(BOUNDED_FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.one_of(
        BOUNDED_FLAGS[flag][1], st.sampled_from(["nan", "inf", "-inf"])))))
def test_bounded_flags_exit_zero_or_two_in_one_line(flag_value):
    flag, value = flag_value
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(BOUNDED_FLAGS[flag][0] + [flag, str(value)])
    assert code in (0, 2), (flag, value, code)
    assert len(err.getvalue().splitlines()) <= 1, (flag, value, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # a refusal may echo the value, but formats no number built from it
    assert len(err.getvalue()) <= len(str(value)) + 200, (flag, len(err.getvalue()))
    if code == 0:
        assert out.getvalue() and not err.getvalue()


# The file fuzzer draws config, state and params files.  A config draws its
# keys from cli.SETTINGS for the subcommand, each with its own values at and
# beyond its bounds or one of HOSTILE: non-finite numbers, 400-digit integers
# and every wrong JSON type.  A key whose valid values only cost time upward
# (sweep points, samples) never draws a large one, and a grid either is cheap
# (2 or 3 points per angle) or lies beyond the size cap at every level.
BIG = 10 ** 400
HOSTILE = [float("nan"), float("inf"), float("-inf"), -BIG, None, True, "2", [2], {"2": 2}]
# paths inside the run's directory: the state and params files (absent
# unless drawn), a new file, a missing directory and the directory itself
PATH_NAMES = st.sampled_from(["state.json", "params.json", "out.csv", "no-dir/x.json", "."])


def _values(*own, big=True):
    return st.one_of(*own, st.sampled_from(HOSTILE + [BIG] * big))


CONFIG_VALUES = {
    "out": _values(PATH_NAMES),
    "level": _values(st.integers(-1, 5)),
    "order": _values(st.lists(st.integers(-1, 3), max_size=4)),
    "params": _values(PATH_NAMES),
    "samples": _values(st.integers(max_value=1), big=False),
    "seed": _values(st.integers(min_value=-2)),
    "state.family": _values(st.sampled_from(states.FAMILIES + ("nope",))),
    "state.mu": _values(st.sampled_from([0.0, 1.0, -5e-324, 1.0000000000000002]),
                        st.floats()),
    "state.state": _values(PATH_NAMES),
    "sweep.points": _values(st.integers(max_value=3), big=False),
    "sweep.start": _values(st.sampled_from([0.0, 1.0]), st.floats()),
    "sweep.stop": _values(st.sampled_from([0.0, 1.0]), st.floats()),
    "optimizer.grid_points_per_angle": _values(st.integers(max_value=3),
                                               st.integers(min_value=10 ** 4)),
    "optimizer.refine_starts": _values(st.integers(max_value=1)),
}
# a cheap value for each costly setting a config leaves unset
CHEAP = {"optimizer.grid_points_per_angle": "2", "optimizer.refine_starts": "1",
         "sweep.points": "2", "samples": "1"}
PATH_KEYS = ("out", "params", "state.state")
DROP = object()  # removes the value it replaces


def _places(payload, place=()):
    """The key paths of every value inside a JSON payload, its root first."""
    yield place
    items = payload.items() if isinstance(payload, dict) else (
        enumerate(payload) if isinstance(payload, list) else ())
    for key, value in items:
        yield from _places(value, place + (key,))


def _replaced(payload, place, value):
    if not place:
        return value
    out = dict(payload) if isinstance(payload, dict) else list(payload)
    key, rest = place[0], place[1:]
    if value is DROP and not rest:
        del out[key]
    else:
        out[key] = _replaced(payload[key], rest, value)
    return out


@st.composite
def _corrupted(draw, payload):
    """``payload``, or a copy with one value inside it dropped or replaced by
    a hostile or small one."""
    if draw(st.booleans()):
        return payload
    place = draw(st.sampled_from(list(_places(payload))))
    value = draw(st.sampled_from(HOSTILE + [BIG, 0, 1, 2, 3] + [DROP] * bool(place)))
    return _replaced(payload, place, value)


@st.composite
def state_files(draw):
    dims = draw(st.sampled_from([(2,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2)]))
    rank = draw(st.integers(1, int(np.prod(dims))))
    state = random_state(dims, rank, draw(st.integers(0, 9)))
    return draw(_corrupted(json.loads(to_json(state))))


@st.composite
def params_files(draw):
    nodes = 2 ** draw(st.integers(1, 3)) - 1
    angles = np.random.default_rng(draw(st.integers(0, 9))).uniform(0.0, 7.0, 2 * nodes)
    return draw(_corrupted(json.loads(params_to_json(MeasParams.from_flat(angles)))))


def _holder(config, key):
    """The object of a nested config that would hold ``key``, if it is one,
    and the key's name inside it."""
    block, _, inner = key.rpartition(".")
    holder = config.get(block) if block and isinstance(config, dict) else config
    return (holder if isinstance(holder, dict) else {}), inner


@st.composite
def config_files(draw, command):
    """A config file: the subcommand's keys from cli.SETTINGS and a stray
    one, in their blocks, perhaps with a block replaced by a hostile value;
    a hostile value in place of the whole object; or a missing file or a
    directory as its path."""
    keys = [key for key, row in cli.SETTINGS.items() if command in row[2]]
    optional = {key: CONFIG_VALUES[key] for key in keys}
    optional["nope"] = st.just(1)
    flat = draw(st.fixed_dictionaries({}, optional=optional))
    config = {}
    for key, value in flat.items():
        block, _, inner = key.rpartition(".")
        (config.setdefault(block, {}) if block else config)[inner] = value
    if config and draw(st.booleans()):
        config[draw(st.sampled_from(sorted(config)))] = draw(st.sampled_from(HOSTILE))
    return draw(st.sampled_from([config] * 8 + [None] + HOSTILE
                                + [Path("missing.json"), Path(".")]))


STATE_FLAGS = {
    "discord": [[], ["--state", "state.json"], ["--family", "werner_ghz", "--mu", "0.5"]],
    "flux": [[], ["--state", "state.json"], ["--family", "ghz"],
             ["--params", "params.json"], ["--state", "state.json", "--params", "params.json"],
             ["--family", "ghz", "--params", "params.json"]],
    "sweep": [[], ["--family", "werner_w"]],
    "verify": [[]],
}


@st.composite
def file_runs(draw):
    command = draw(st.sampled_from(sorted(STATE_FLAGS)))
    argv = [command] + draw(st.sampled_from(STATE_FLAGS[command]))
    return (argv, draw(config_files(command)), draw(st.none() | state_files()),
            draw(st.none() | params_files()))


@example((["flux", "--family", "ghz", "--params", "params.json"], None, None,
          {"nodes": [{"path": [], "theta": BIG, "phi": 0.0}]}))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(file_runs())
def test_files_exit_zero_or_two_in_one_line(run_files):
    argv, config, state, params = run_files
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for payload, file in ((state, "state.json"), (params, "params.json")):
            if payload is not None:
                (directory / file).write_text(json.dumps(payload))
        argv = [str(directory / arg) if arg.endswith(".json") else arg for arg in argv]
        if isinstance(config, Path):
            argv += ["--config", str(directory / config)]
        elif config is not None:
            config = json.loads(json.dumps(config))  # a copy to resolve paths in
            for key in PATH_KEYS:
                holder, inner = _holder(config, key)
                if isinstance(holder.get(inner), str):
                    holder[inner] = str(directory / holder[inner])
            (directory / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(directory / "config.json")]
        # a config's value of a costly setting is in force; else a cheap flag
        for key, value in CHEAP.items():
            holder, inner = _holder(config, key)
            if argv[0] in cli.SETTINGS[key][2] and inner not in holder:
                argv += [cli.SETTINGS[key][3], value]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 2), (argv, config, code, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not err.getvalue()
