import csv
import json
import os
import re

import numpy as np
import pytest

from wentzellflow import cli
from wentzellflow import expressions as ex
from wentzellflow import flow_driver as fd


def cfg_text(**over):
    base = {"preset": "constant-1d"}
    base.update(over)
    return json.dumps(base)


# ---------------------------------------------------------------------------
# expression language


def test_expression_basic():
    fn = ex.compile_expression("sin(pi*x) + 2*t", ["t", "x"])
    out = fn(t=1.0, x=np.array([0.5]))
    assert out[0] == pytest.approx(1.0 + 2.0)


def test_expression_rejects_unsafe():
    with pytest.raises(ex.ExpressionError):
        ex.compile_expression("__import__('os')", ["x"])
    with pytest.raises(ex.ExpressionError):
        ex.compile_expression("x.real", ["x"])
    with pytest.raises(ex.ExpressionError):
        ex.compile_expression("unknown + 1", ["x"])
    with pytest.raises(ex.ExpressionError):
        ex.compile_expression("log(x)", ["x"])
    with pytest.raises(ex.ExpressionError):
        ex.compile_expression("x @ x", ["x"])


def test_source_and_initial_builders():
    f = ex.make_source("t*x", 1)
    pts = np.array([[0.5], [1.0]])
    assert np.allclose(f(2.0, pts), [1.0, 2.0])
    assert ex.make_source(0, 1) is None
    y0 = ex.make_initial({"profile": "step", "split": 0.5}, 1)
    assert np.allclose(y0(pts), [0.0, 1.0])
    noise = ex.make_initial({"profile": "noise", "amplitude": 2.0}, 1, seed=3)
    assert np.allclose(noise(pts), noise(pts))  # deterministic per seed


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_with_defaults():
    cfg = cli.parse_config(cfg_text())
    assert cfg.mode == "flow"
    assert cfg.model["id"] == "quadratic"
    assert cfg.n_steps == 10


def test_parse_rejects_both_n_and_h():
    with pytest.raises(cli.ConfigError, match="exactly one"):
        cli.parse_config(cfg_text(h=0.1))


def test_parse_rejects_h_not_dividing_T():
    # constant-1d has T = 0.2: h = 0.03 would silently become T/7
    with pytest.raises(cli.ConfigError, match=r"T/7 = 0\.0285714"):
        cli.parse_config(cfg_text(n=None, h=0.03))
    assert cli.parse_config(cfg_text(n=None, h=0.02)).n_steps == 10


def test_parse_rejects_unknown_keys_with_location():
    with pytest.raises(cli.ConfigError, match="grid"):
        cli.parse_config(cfg_text(grid={"kind": "interval", "n": 4, "junk": 1}))
    with pytest.raises(cli.ConfigError, match="top level"):
        cli.parse_config(json.dumps({"bogus": 1}))
    for key in ("pd_gap", "use_viscosity", "optimizer"):
        with pytest.raises(cli.ConfigError, match="step"):
            cli.parse_config(cfg_text(step={key: 1}))


def test_parse_rejects_unknown_mode_and_preset():
    with pytest.raises(cli.ConfigError, match="mode"):
        cli.parse_config(cfg_text(mode="explode"))
    with pytest.raises(cli.ConfigError, match="preset"):
        cli.parse_config(json.dumps({"preset": "nope"}))


def test_parse_error_reports_position():
    with pytest.raises(cli.ConfigError, match="line"):
        cli.parse_config("{not json}")


@pytest.mark.parametrize("raw, message", [
    ({"preset": "constant-1d", "n": None, "h": 0.5}, "'h' must lie in (0, T]"),
    ({"preset": "constant-1d", "n": 0}, "'n' must be a positive integer"),
    ({"preset": "constant-1d", "T": 0}, "'T' must be positive"),
    ({"preset": "constant-1d", "save_every": 0}, "'save_every' must be >= 1"),
    ({"preset": "constant-1d", "mode": "tv"}, "mode 'tv' requires the 'tv' model"),
    ({"model": {"p": 2.0}, "n": 2}, "model needs an 'id' key"),
    ({"preset": "constant-1d", "T": "soon"}, "top level"),
    ([1, 2], "config must be a JSON object"),
], ids=["h", "n", "T", "save_every", "tv", "id", "T-type", "object"])
def test_parse_rejects_invalid_values(raw, message):
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.parse_config(json.dumps(raw))


def test_parse_config_reads_a_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(n=4))
    assert cli.parse_config(str(path)).n_steps == 4


@pytest.mark.parametrize("raw, key", [
    ({"grid": {"kind": "interval", "n": 8, "nx": 3}}, "'nx'"),
    ({"grid": {"kind": "interval"}}, "'n'"),
    ({"model": {"id": "quadratic", "p": 3}}, "'p'"),
    ({"model": {"id": "plaplacian"}}, "'p'"),
], ids=["grid-extra", "grid-missing", "model-extra", "model-missing"])
def test_config_keys_are_the_constructor_arguments(tmp_path, capsys, raw, key):
    # grid keys are the grid kind's constructor arguments and model keys the
    # model class's, so a key of another kind or a missing one exits 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "T": 0.1, **raw}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_preset_fractured_defaults_round_trip():
    cfg = cli.parse_config(json.dumps({"preset": "fractured-1d"}))
    assert cfg.model["id"] == "fractured"
    assert cfg.model["thresholds"] == 0.5
    assert cfg.step["lam_min"] == 1e-8
    # serialization round-trips through parse
    again = cli.config_from_dict(json.loads(json.dumps(cli.serialize_config(cfg))))
    assert again == cfg


# ---------------------------------------------------------------------------
# run modes


def test_run_flow_constant_preset(tmp_path):
    cfg = cli.parse_config(cfg_text(out_dir=str(tmp_path)))
    assert cli.run(cfg) == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["pass"] is True
    assert man["checks"]["gronwall"] is True
    assert man["versions"]["wentzellflow"]
    # constant CSVs
    import csv
    fields_dir = tmp_path / "fields"
    first = sorted(os.listdir(fields_dir))[0]
    rows = list(csv.DictReader(open(fields_dir / first)))
    assert all(float(r["value"]) == 1.0 for r in rows)


def test_run_convergence_quadratic(tmp_path):
    raw = {
        "mode": "convergence",
        "grid": {"kind": "interval", "n": 16},
        "model": {"id": "quadratic"},
        "sources": {"y0": "cos(pi*x)",
                    "f": "(pi*pi - 1)*exp(-t)*cos(pi*x)",
                    "g": "-exp(-t)*cos(pi*x)"},
        "T": 0.5, "n": 10,
        "step": {"tol": 1e-12},
        "options": {"refinements": 2},
        "out_dir": str(tmp_path),
    }
    code = cli.run(cli.config_from_dict(raw))
    assert code == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["checks"]["order_at_least_0.8"] is True
    assert min(man["results"]["convergence"]["orders"]) >= 0.8


def test_run_contraction_mode(tmp_path):
    raw = {
        "mode": "contraction",
        "preset": "quadratic-1d",
        "n": 10,
        "step": {"tol": 1e-12},
        "options": {"perturbation": {"y0": "cos(2*pi*x) + 0.25*sin(pi*x)"}},
        "out_dir": str(tmp_path),
    }
    assert cli.run(cli.config_from_dict(raw)) == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["checks"]["nonexpansive"] is True
    assert man["results"]["contraction"]["c_empirical"] <= 1.0 + 1e-8


def test_run_asymptotics_mode(tmp_path):
    raw = {
        "mode": "asymptotics",
        "grid": {"kind": "interval", "n": 16},
        "model": {"id": "quadratic"},
        "sources": {"y0": "cos(2*pi*x)"},
        "T": 1.0, "n": 20,
        "step": {"tol": 1e-12},
        "options": {"T_long": 40.0, "n_long": 400, "tol": 1e-5},
        "out_dir": str(tmp_path),
    }
    assert cli.run(cli.config_from_dict(raw)) == 0


def test_run_obstacle_mode(tmp_path):
    raw = {
        "mode": "obstacle",
        "grid": {"kind": "interval", "n": 8},
        "model": {"id": "quadratic"},
        "sources": {"y0": "sin(pi*x)", "f": "-3"},
        "T": 0.2, "n": 10,
        "step": {"tol": 1e-9},
        "out_dir": str(tmp_path),
    }
    assert cli.run(cli.config_from_dict(raw)) == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["checks"]["nonnegative"] is True
    assert man["checks"]["complementarity"] is True


def test_run_obstacle_mode_2d_plaplacian(tmp_path):
    # |cos(pi x) cos(pi y)| touches 0 along two lines
    raw = {
        "mode": "obstacle",
        "grid": {"kind": "rectangle", "nx": 34, "ny": 4},
        "model": {"id": "plaplacian", "p": 4.0},
        "sources": {"y0": "((cos(pi*x)*cos(pi*y))**2)**0.5"},
        "T": 0.05, "n": 5,
        "step": {"tol": 1e-10},
        "out_dir": str(tmp_path),
    }
    assert cli.run(cli.config_from_dict(raw)) == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["checks"]["nonnegative"] is True
    assert man["checks"]["complementarity"] is True


def test_profile_of_another_name_replaces_the_preset_spec(tmp_path):
    # tv-1d's y0 is {"profile": "step", "split": 0.5}; "split" must not
    # reach the plateaus builder
    raw = {"preset": "tv-1d", "n": 4, "T": 0.02, "out_dir": str(tmp_path),
           "sources": {"y0": {"profile": "plateaus"}}}
    cfg = cli.config_from_dict(raw)
    assert cfg.sources["y0"] == {"profile": "plateaus"}
    assert cli.run(cfg) == 0
    # the same profile still merges key by key
    cfg = cli.config_from_dict({"preset": "tv-1d",
                                "sources": {"y0": {"split": 0.3}}})
    assert cfg.sources["y0"] == {"profile": "step", "split": 0.3}
    # so do a grid of another kind and a model of another id
    cfg = cli.config_from_dict({"preset": "fractured-1d",
                                "grid": {"kind": "rectangle", "nx": 4, "ny": 3},
                                "model": {"id": "tv"}})
    assert cfg.grid == {"kind": "rectangle", "nx": 4, "ny": 3}
    assert cfg.model == {"id": "tv"}
    cfg = cli.config_from_dict({"preset": "fractured-1d", "model": {"p": 3}})
    assert cfg.model == {"id": "fractured", "p": 3, "alpha": 1.0,
                         "thresholds": 0.5}


def test_unknown_profile_key_is_a_config_error(tmp_path, capsys):
    raw = {"preset": "constant-1d", "out_dir": str(tmp_path),
           "sources": {"y0": {"profile": "step", "bogus": 1}}}
    assert cli.run(cli.config_from_dict(raw)) == 2
    assert "bogus" in capsys.readouterr().err
    with pytest.raises(ex.ExpressionError, match="does not take"):
        ex.make_initial({"profile": "noise", "seed": 3}, 1)


def test_run_tv_mode(tmp_path):
    raw = {"preset": "tv-1d", "mode": "tv", "n": 10, "T": 0.05,
           "out_dir": str(tmp_path)}
    assert cli.run(cli.config_from_dict(raw)) == 0
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["checks"]["energy_monotone"] is True


def test_metrics_deterministic(tmp_path):
    # a TV flow carries each step's dual into the next; with the stage logs
    # in the stream too, two runs must still write the same bytes
    runs = [({"preset": "quadratic-1d", "n": 5, "seed": 7}, False),
            ({"preset": "tv-1d", "mode": "tv", "n": 6, "T": 0.03,
              "grid": {"kind": "rectangle", "nx": 6, "ny": 5}}, True)]
    for k, (raw, verbose) in enumerate(runs):
        out1, out2 = tmp_path / f"{k}a", tmp_path / f"{k}b"
        for out in (out1, out2):
            cfg = cli.parse_config(json.dumps({**raw, "out_dir": str(out)}))
            assert cli.run(cfg, verbose=verbose) == 0
        assert ((out1 / "metrics.jsonl").read_bytes()
                == (out2 / "metrics.jsonl").read_bytes())


def test_run_flow_with_sources_is_reproducible(tmp_path):
    raw = {"preset": "plaplacian-1d", "n": 20,
           "sources": {"f": "sin(pi*x)*exp(-t)", "g": "cos(t)"}}
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        cfg = cli.config_from_dict({**raw, "out_dir": str(out)})
        assert cli.run(cfg) == 0
        man = json.load(open(out / "manifest.json"))
        assert man["checks"] == {"gronwall": True}
    names = sorted(os.listdir(outs[0] / "fields"))
    assert len(names) == 22 and names == sorted(os.listdir(outs[1] / "fields"))
    for rel in ["metrics.jsonl"] + [f"fields/{n}" for n in names]:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
    _, _, problem, step_cfg = cli._build(cfg)
    traj = fd.run_flow(problem, cfg.n_steps, step_cfg)
    with open(outs[0] / "fields" / "field_000020.csv", newline="") as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert np.array_equal(values, traj.fields[-1])


def test_main_override_and_exit_codes(tmp_path):
    path = tmp_path / "cfg.json"
    json.dump({"preset": "constant-1d"}, open(path, "w"))
    rc = cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                   "--override", "n=5", "--verbose"])
    assert rc == 0
    man = json.load(open(tmp_path / "o" / "manifest.json"))
    assert man["config"]["n"] == 5
    # config errors exit 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert cli.main(["run", str(bad)]) == 2
    json.dump({"preset": "constant-1d", "mode": "explode"}, open(path, "w"))
    assert cli.main(["run", str(path)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2


def test_main_rejects_malformed_overrides(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(cfg_text(n=5))
    for override, message in (("n", "must look like key=value"),
                              ("n.x=1", "cannot override through non-object")):
        assert cli.main(["run", str(path), "--override", override]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["max_iter", "pd_max_iter"])
def test_run_nonpositive_iteration_limit_is_a_config_error(tmp_path, limit):
    raw = {"preset": "plaplacian-1d", "n": 5, "step": {limit: 0},
           "out_dir": str(tmp_path)}
    assert cli.run(cli.config_from_dict(raw)) == 2


def test_run_nonconvergence_exit_code(tmp_path):
    raw = {"preset": "plaplacian-1d", "n": 5,
           "step": {"tol": 1e-15, "max_iter": 1},
           "out_dir": str(tmp_path)}
    assert cli.run(cli.config_from_dict(raw)) == 3
    man = json.load(open(tmp_path / "manifest.json"))
    assert man["failure"]["kind"] == "NONCONVERGED"
