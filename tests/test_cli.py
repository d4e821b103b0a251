import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sideinfo as si
from sideinfo import sufficiency
from sideinfo.cli import cli_dispatch

from conftest import package_env

LN2 = math.log(2)


@pytest.fixture
def witness_file(tmp_path, witness_joint):
    path = tmp_path / "witness.json"
    si.write_model(witness_joint, path)
    return str(path)


@pytest.fixture
def copy_model_file(tmp_path):
    row = np.array([0.5, 0.0, 0.0, 0.5])
    m = si.MarkovJointProcess(2, 2, row.copy(), np.tile(row, (4, 1)))
    path = tmp_path / "copy.json"
    si.write_model(m, path)
    return str(path)


def run(capsys, argv):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, (json.loads(out) if out else None)


class TestBenefitCommand:
    def test_log_benefit(self, capsys, witness_file):
        code, rep = run_json(capsys, ["benefit", "--joint", witness_file, "--builtin", "log"])
        assert code == 0
        assert rep["results"]["c_value"] == pytest.approx(LN2, abs=1e-9)
        assert rep["results"]["decomposition_residual"] <= 1e-9

    def test_zero_one_benefit(self, capsys, witness_file):
        code, rep = run_json(capsys, ["benefit", "--joint", witness_file, "--builtin", "zero-one"])
        assert code == 0
        assert rep["results"]["c_value"] == pytest.approx(0.25, abs=1e-12)
        assert rep["results"]["per_y_minimizers"] == {"1": 3, "2": 1}

    def test_conditional_benefit(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        j3 = si.Joint(rng.dirichlet(np.ones(12)).reshape(2, 2, 3))
        path = tmp_path / "j3.json"
        si.write_model(j3, path)
        code, rep = run_json(
            capsys, ["benefit", "--joint", str(path), "--builtin", "log", "--cond-w"]
        )
        assert code == 0
        assert rep["results"]["c_value"] == pytest.approx(
            si.conditional_mutual_information(j3), abs=1e-9
        )

    def test_matrix_loss_file(self, capsys, tmp_path, witness_file):
        loss_path = tmp_path / "loss.json"
        si.write_model(si.ActionMatrixLoss(matrix=1.0 - np.eye(3)), loss_path)
        code, rep = run_json(
            capsys, ["benefit", "--joint", witness_file, "--loss", str(loss_path)]
        )
        assert code == 0
        assert rep["results"]["c_value"] == pytest.approx(0.25, abs=1e-12)

    def test_scale_flag(self, capsys, witness_file, tmp_path):
        code, rep = run_json(
            capsys,
            ["benefit", "--joint", witness_file, "--builtin", "zero-one", "--scale", "4"],
        )
        assert code == 0
        assert rep["results"]["c_value"] == pytest.approx(1.0, abs=1e-12)
        assert rep["args"]["scale"] == 4.0
        # every reported number is scaled, the residual by |scale|, with and without --cond-w
        j = si.validate_joint([[0.1, 0.2, 0.05], [0.15, 0.1, 0.4]])
        j3 = si.Joint(np.random.default_rng(0).dirichlet(np.ones(12)).reshape(2, 2, 3))
        si.write_model(j, tmp_path / "j.json")
        si.write_model(j3, tmp_path / "j3.json")
        base = si.benefit(si.builtin_loss("log", 2), j)
        assert base.decomposition_residual > 0.0
        _, rep = run_json(capsys, ["benefit", "--joint", str(tmp_path / "j.json"), "--builtin", "log", "--scale", "-2"])
        assert rep["results"]["c_value"] == -2.0 * base.c_value
        assert rep["results"]["risk_no_side"] == -2.0 * base.risk_no_side
        assert rep["results"]["risk_with_side"] == -2.0 * base.risk_with_side
        assert rep["results"]["decomposition_residual"] == 2.0 * base.decomposition_residual
        cond = si.conditional_benefit(si.builtin_loss("log", 2), j3)
        argv = ["benefit", "--joint", str(tmp_path / "j3.json"), "--builtin", "log", "--cond-w", "--scale", "-2"]
        assert run_json(capsys, argv)[1]["results"]["c_value"] == -2.0 * cond

    def test_negative_exponent_scale(self, capsys, witness_file):
        code, rep = run_json(
            capsys,
            ["benefit", "--joint", witness_file, "--builtin", "zero-one", "--scale", "-2.5e-1"],
        )
        assert code == 0
        assert rep["results"]["c_value"] == pytest.approx(-0.0625, abs=1e-12)
        assert rep["args"]["scale"] == -0.25


class TestAuditCommand:
    def test_zero_one_exit_two(self, capsys, witness_file):
        code, rep = run_json(capsys, ["audit-dpa", "--joint", witness_file, "--builtin", "zero-one"])
        assert code == 2
        w = rep["witnesses"][0]
        assert w["c_before"] == pytest.approx(0.25, abs=1e-12)
        assert w["c_after"] == pytest.approx(0.5, abs=1e-12)

    def test_log_exit_zero(self, capsys, witness_file):
        code, rep = run_json(capsys, ["audit-dpa", "--joint", witness_file, "--builtin", "log"])
        assert code == 0
        assert rep["witnesses"] == []

    def test_matrix_loss_scores_merged_class_on_its_label(self, capsys, tmp_path):
        # weighted zero-one, W(x, a) = (x + 1) [x != a]: after the {x1, x2} merge the class of x3 is T(X) = 2,
        # so C after is 0.2 * 2, not 0.2 * 3 as it would be with that class left on x3
        si.write_model(si.ActionMatrixLoss((1.0 - np.eye(3)) * np.arange(1.0, 4.0)[:, None]), tmp_path / "w.json")
        si.write_model(si.validate_joint([[0.0, 0.4], [0.0, 0.4], [0.2, 0.0]]), tmp_path / "j.json")
        argv = ["audit-dpa", "--joint", str(tmp_path / "j.json"), "--loss", str(tmp_path / "w.json")]
        _, rep = run_json(capsys, argv)
        assert rep["results"]["c_before"] == 0.6
        assert rep["results"]["equality_deviations"] == [{"transform": [1, 1, 2], "c_after": 0.4}]


class TestFindViolationCommand:
    def test_witness_reported_exit_zero(self, capsys):
        code, rep = run_json(
            capsys,
            ["find-violation", "--builtin", "zero-one", "--n", "3", "--budget", "1000", "--seed", "0"],
        )
        assert code == 0
        assert rep["results"]["witness"]["kind"] == "dpa_violation"

    def test_none_reported_exit_zero(self, capsys):
        code, rep = run_json(
            capsys,
            ["find-violation", "--builtin", "log", "--n", "3", "--budget", "300", "--seed", "0"],
        )
        assert code == 0
        assert rep["results"]["witness"] is None

    def test_failed_reverification_exit_seventy(self, capsys, monkeypatch):
        monkeypatch.setattr(sufficiency, "verify_witness", lambda *a, **k: False)
        code, rep = run_json(
            capsys,
            ["find-violation", "--builtin", "zero-one", "--n", "3", "--budget", "1000", "--seed", "0"],
        )
        assert (code, rep) == (70, None)


class TestScoringRuleCommand:
    def test_neg_entropy_is_log_loss(self, capsys):
        code, rep = run_json(
            capsys, ["scoring-rule", "--g", "neg-entropy", "--eval", "1", "0.5,0.5"]
        )
        assert code == 0
        assert rep["results"]["value"] == pytest.approx(LN2, abs=1e-9)

    def test_g_file_from_loss(self, capsys, tmp_path):
        loss_path = tmp_path / "loss.json"
        si.write_model(si.builtin_loss("brier", 2), loss_path)
        code, rep = run_json(
            capsys, ["scoring-rule", "--g-file", str(loss_path), "--eval", "1", "0.25,0.75"]
        )
        assert code == 0
        # normalized Brier envelope reproduces Brier itself up to its vertex values
        expected = si.savage_from_G(si.g_normalized(si.builtin_loss("brier", 2)), n=2).eval_fn(
            0, np.array([0.25, 0.75])
        )
        assert rep["results"]["value"] == pytest.approx(expected, abs=1e-12)


class TestDirectedInfoCommand:
    def test_copy_process_conservation(self, capsys, copy_model_file):
        code, rep = run_json(
            capsys,
            ["directed-info", "--model", copy_model_file, "--horizon", "3", "--conservation"],
        )
        assert code == 0
        res = rep["results"]
        assert res["forward"] == pytest.approx(3 * LN2, abs=1e-9)
        assert res["reverse_delayed"] == pytest.approx(0.0, abs=1e-12)
        assert res["total_mi"] == pytest.approx(3 * LN2, abs=1e-9)
        assert round(res["forward"], 6) == 2.079442

    def test_horizon_twelve_conservation(self, capsys, copy_model_file):
        code, rep = run_json(
            capsys,
            ["directed-info", "--model", copy_model_file, "--horizon", "12", "--conservation"],
        )
        assert code == 0
        res = rep["results"]
        assert res["forward"] == pytest.approx(12 * LN2, abs=1e-9)
        assert max(res["conservation_residual"], res["conservation_residual_refined"]) <= 1e-9

    def test_horizon_past_bound_exit_sixty_five(self, capsys, copy_model_file):
        # 2**22 * 4 forward-array entries exceed the default bound of 10**7
        code = cli_dispatch(
            ["directed-info", "--model", copy_model_file, "--horizon", "22", "--conservation"]
        )
        err = capsys.readouterr().err
        assert code == 65
        assert "enumeration bound 10000000" in err

    def test_nan_initial_exit_sixty_five(self, capsys, copy_model_file):
        with open(copy_model_file) as fh:
            doc = json.load(fh)
        doc["initial"][0] = "nan"
        with open(copy_model_file, "w") as fh:
            json.dump(doc, fh)
        code, _ = run(capsys, ["directed-info", "--model", copy_model_file, "--horizon", "3", "--conservation"])
        assert code == 65

    def test_exit_three_on_conservation_failure(self, capsys, copy_model_file):
        # an absurd tolerance forces the residual check to fail deliberately
        code, rep = run_json(
            capsys,
            [
                "directed-info",
                "--model",
                copy_model_file,
                "--horizon",
                "3",
                "--conservation",
                "--tol",
                "-1.0",
            ],
        )
        assert code == 3

    def test_negative_exponent_tol_is_a_value(self, capsys, copy_model_file):
        base = ["directed-info", "--model", copy_model_file, "--horizon", "3", "--conservation"]
        spaced = run(capsys, base + ["--tol", "-1e-9"])
        assert spaced == run(capsys, base + ["--tol=-1e-9"])
        assert spaced[0] == 3
        assert cli_dispatch(base + ["--tol", "-inf"]) == 64
        assert "must be finite" in capsys.readouterr().err


class TestGewekeCommand:
    def test_closed_form(self, capsys, tmp_path):
        v = si.VarModel(coeffs=np.array([[[0.0, 1.0], [0.0, 0.0]]]), sigma=np.eye(2))
        path = tmp_path / "var.json"
        si.write_model(v, path)
        code, rep = run_json(capsys, ["geweke", "--var", str(path)])
        assert code == 0
        assert rep["results"]["f"] == pytest.approx(LN2, abs=1e-6)


class TestEstimateCommand:
    def test_writes_joint_model(self, capsys, tmp_path):
        csv = tmp_path / "samples.csv"
        csv.write_text("x,y\n1,1\n1,1\n2,2\n2,2\n")
        out = tmp_path / "joint.json"
        code, rep = run_json(
            capsys,
            ["estimate", "--csv", str(csv), "--nx", "2", "--ny", "2", "--out", str(out)],
        )
        assert code == 0
        assert rep["results"]["samples"] == 4
        j = si.parse_model(out).payload
        assert np.allclose(j.table, [[0.5, 0.0], [0.0, 0.5]])


class TestScalarCommands:
    def test_mi(self, capsys, witness_file):
        code, rep = run_json(capsys, ["mi", "--joint", witness_file])
        assert code == 0
        assert rep["results"]["value"] == pytest.approx(LN2, abs=1e-12)

    def test_entropy(self, capsys, tmp_path):
        path = tmp_path / "dist.json"
        si.write_model(si.validate_dist([0.25, 0.25, 0.5]), path)
        code, rep = run_json(capsys, ["entropy", "--dist", str(path)])
        assert code == 0
        assert rep["results"]["value"] == pytest.approx(1.5 * LN2, abs=1e-12)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert cli_dispatch(["benefit", "--joint"]) == 64
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 64
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags",
        [
            ["find-violation", "--builtin", "log", "--n", "3", "--tol", "nan"],
            ["find-violation", "--builtin", "log", "--n", "3", "--tol", "inf"],
            ["find-violation", "--builtin", "log", "--n", "3", "--tol", "-1"],
            ["find-violation", "--builtin", "log", "--n", "3", "--budget", "-5"],
            ["audit-dpa", "--joint", "{joint}", "--builtin", "log", "--tol", "nan"],
            ["audit-dpa", "--joint", "{joint}", "--builtin", "log", "--tol=-1e-9"],
            ["directed-info", "--model", "{model}", "--horizon", "3", "--tol", "nan"],
            ["directed-info", "--model", "{model}", "--horizon", "3", "--tol=-inf"],
            ["benefit", "--joint", "{joint}", "--builtin", "log", "--scale", "inf"],
            ["benefit", "--joint", "{joint}", "--builtin", "log", "--scale", "nan"],
        ],
    )
    def test_number_out_of_range_exit_sixty_four(self, capsys, flags, witness_file, copy_model_file):
        argv = [f.format(joint=witness_file, model=copy_model_file) for f in flags]
        assert run(capsys, argv) == (64, "")

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["scoring-rule", "--g", "neg-entropy", "--eval", "a", "0.5,0.5"], 65),
            (["scoring-rule", "--g", "neg-entropy", "--eval", "1", "0.5,abc"], 65),
            (["scoring-rule", "--g", "neg-entropy", "--eval", "1", "0.5,,0.5"], 65),
            (["estimate", "--csv", "s.csv", "--nx", "-1", "--ny", "2", "--out", "j.json"], 64),
            (["estimate", "--csv", "s.csv", "--nx", "2", "--ny", "0", "--out", "j.json"], 64),
            (["benefit", "--joint", "{joint}", "--builtin", "log", "--scale", "-2.5e-1"], 0),
            (["directed-info", "--model", "{model}", "--horizon", "3", "--conservation",
              "--tol", "-1e-9"], 3),
            (["directed-info", "--model", "{model}", "--horizon", "3", "--tol", "-inf"], 64),
            (["find-violation", "--builtin", "log", "--n", "3", "--budget", "5", "--seed", "-3"], 64),
            (["directed-info", "--model", "{model}", "--horizon", "0"], 64),
            (["directed-info", "--model", "{model}", "--horizon", "-3"], 64),
            (["find-violation", "--builtin", "log", "--n", "1"], 64),
            # the enumeration bound depends on the model, so it is a data error
            (["directed-info", "--model", "{model}", "--horizon", "40"], 65),
            # an empty name is an unknown name, not a missing one
            (["benefit", "--joint", "{joint}", "--builtin", ""], 65),
            (["scoring-rule", "--g", "", "--eval", "1", "0.5,0.5"], 65),
            # a gap in a transform file's 1-based labels
            (["mi", "--joint", "{gap_map}"], 65),
        ],
    )
    def test_exit_code_contract(self, tmp_path, flags, expected, witness_file, copy_model_file):
        # a child process, so an uncaught exception shows as exit 1 with a traceback
        gap_map = tmp_path / "gap_map.json"
        gap_map.write_text('{"kind": "transform", "map": [1, 3]}')
        argv = [f.format(joint=witness_file, model=copy_model_file, gap_map=gap_map) for f in flags]
        out = subprocess.run(
            [sys.executable, "-m", "sideinfo.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path, env=package_env(),
        )
        assert out.returncode in (0, 2, 3, 64, 65, 70)
        assert "Traceback" not in out.stderr
        assert out.returncode == expected

    def test_malformed_seed_env_exit_sixty_four(self, capsys, monkeypatch, witness_file):
        monkeypatch.setenv("SIDEINFO_SEED", "abc")
        assert cli_dispatch(["benefit", "--joint", witness_file, "--builtin", "log"]) == 64
        assert "--seed" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        code = cli_dispatch(["mi", "--joint", str(tmp_path / "nope.json")])
        assert code == 65
        capsys.readouterr()

    def test_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "joint", "rows": 2, "cols": 2, "p": [["0.6","0.6"],["0.1","0.1"]]}')
        assert cli_dispatch(["mi", "--joint", str(path)]) == 65
        capsys.readouterr()

    def test_wrong_kind(self, capsys, tmp_path, witness_joint):
        path = tmp_path / "joint.json"
        si.write_model(witness_joint, path)
        assert cli_dispatch(["entropy", "--dist", str(path)]) == 65
        capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_across_runs(self, capsys, witness_file):
        _, out1 = run(capsys, ["audit-dpa", "--joint", witness_file, "--builtin", "brier"])
        _, out2 = run(capsys, ["audit-dpa", "--joint", witness_file, "--builtin", "brier"])
        assert out1 == out2

    def test_byte_identical_across_worker_counts(self, capsys, witness_file):
        base = ["audit-dpa", "--joint", witness_file, "--builtin", "zero-one"]
        _, out1 = run(capsys, base + ["--workers", "1"])
        _, out4 = run(capsys, base + ["--workers", "4"])
        assert out1 == out4

    def test_find_violation_workers(self, capsys):
        base = ["find-violation", "--builtin", "zero-one", "--n", "3", "--budget", "500", "--seed", "3"]
        _, out1 = run(capsys, base + ["--workers", "1"])
        _, out4 = run(capsys, base + ["--workers", "4"])
        assert out1 == out4

    def test_seed_env_var(self, capsys, monkeypatch, witness_file):
        monkeypatch.setenv("SIDEINFO_SEED", "17")
        _, rep = run_json(capsys, ["benefit", "--joint", witness_file, "--builtin", "log"])
        assert rep["seed"] == 17

    def test_pretty_not_json(self, capsys, witness_file):
        code, out = run(capsys, ["mi", "--joint", witness_file, "--pretty"])
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestParserReuse:
    """One argparse tree serves every dispatch in a process; SIDEINFO_SEED is read each time."""

    def test_seed_env_read_at_every_dispatch(self, capsys, monkeypatch, witness_file):
        argv = ["benefit", "--joint", witness_file, "--builtin", "log"]
        monkeypatch.setenv("SIDEINFO_SEED", "17")
        assert run_json(capsys, argv)[1]["seed"] == 17
        monkeypatch.setenv("SIDEINFO_SEED", "23")
        assert run_json(capsys, argv)[1]["seed"] == 23
        monkeypatch.delenv("SIDEINFO_SEED")
        assert run_json(capsys, argv)[1]["seed"] == 0

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "usage error: argument --seed: invalid int value: 'abc'\n"),
            ("-3", "usage error: argument --seed: must be >= 0, got '-3'\n"),
        ],
    )
    def test_invalid_seed_env_after_valid(self, capsys, monkeypatch, witness_file, value, message):
        argv = ["benefit", "--joint", witness_file, "--builtin", "log"]
        monkeypatch.setenv("SIDEINFO_SEED", "5")
        assert cli_dispatch(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("SIDEINFO_SEED", value)
        assert cli_dispatch(argv) == 64
        assert capsys.readouterr() == ("", message)
        assert cli_dispatch(argv + ["--seed", "4"]) == 0  # an explicit seed never reads the variable

    def test_help_twice(self, capsys):
        outs = []
        for _ in range(2):
            assert cli_dispatch(["--help"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("usage: sideinfo")
        assert outs[0] == outs[1]


def _imported_modules(argv, cwd) -> set[str]:
    """Top-level names of every module a child interpreter imports (python -X importtime)."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, cwd=cwd, env=package_env(),
    )
    assert "Traceback" not in out.stderr
    return {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in out.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


class TestLazyScipy:
    """scipy never loads with the package, the mi command or a Bayes solve (geweke: `TestNoScipy`)."""

    def test_package_import_leaves_scipy_out(self, tmp_path):
        mods = _imported_modules(["-c", "import sideinfo, sideinfo.cli"], tmp_path)
        assert "sideinfo" in mods
        assert "scipy" not in mods

    def test_mi_command_leaves_scipy_out(self, tmp_path, witness_file):
        assert "scipy" not in _imported_modules(["-m", "sideinfo", "mi", "--joint", witness_file], tmp_path)

    def test_numeric_bayes_tier_leaves_scipy_out(self, tmp_path):
        script = (
            "import sys, numpy as np, sideinfo as si\n"
            "from sideinfo.benefit import c_value\n"
            "from sideinfo.errors import NotProper\n"
            "rule = si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=3, vector_fn=lambda q: -np.asarray(q))\n"
            "assert si.bayes_risk(rule, [0.2, 0.3, 0.5]).method == 'numeric-search'\n"
            "c_value(rule, si.Joint([[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]]))\n"
            "try:\n"
            "    si.audit_propriety(rule, trials=3)\n"
            "except NotProper:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path,
                             env=package_env())
        assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


class TestNoScipy:
    """The runtime needs numpy alone: no module imports scipy, and the CLI runs with it blocked."""

    def test_no_module_imports_scipy(self):
        for path in sorted(Path(si.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
            names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
            assert not [m for m in names if m.split(".")[0] == "scipy"], path.name

    def test_runs_with_scipy_blocked(self, tmp_path, witness_file):
        var = tmp_path / "var.json"
        si.write_model(si.VarModel(coeffs=np.array([[[0.0, 1.0], [0.0, 0.0]]]), sigma=np.eye(2)), var)
        script = (
            "import contextlib, io, json, math, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
            "import numpy as np, sideinfo as si\n"
            "from sideinfo.cli import cli_dispatch\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    assert cli_dispatch(['geweke', '--var', sys.argv[1]]) == 0\n"
            "    assert cli_dispatch(['mi', '--joint', sys.argv[2]]) == 0\n"
            "f = json.loads(out.getvalue().splitlines()[0])['results']['f']\n"
            "assert abs(f - math.log(2)) <= 1e-12, f\n"
            "rule = si.ScoringRuleLoss(eval_fn=lambda x, q: -float(q[x]), n=3, vector_fn=lambda q: -np.asarray(q))\n"
            "assert si.bayes_risk(rule, [0.2, 0.3, 0.5]).method == 'numeric-search'\n"
            "print('ok')\n"
        )
        out = subprocess.run([sys.executable, "-c", script, str(var), witness_file], capture_output=True,
                             text=True, cwd=tmp_path, env=package_env())
        assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr
