import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from sbm_miss import cli, io, vem
from sbm_miss.errors import NumericalError
from sbm_miss.evaluation import SWEEP_DESIGNS
from sbm_miss.sampling import AVAILABLE_SAMPLINGS


def run(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def pipeline(tmp_path):
    """generate -> observe on disk, returning the paths."""
    net = tmp_path / "net.csv"
    mem = tmp_path / "mem.csv"
    obs = tmp_path / "obs.csv"
    assert run("generate", "--nodes", 40, "--blocks", 2, "--pi-within", 0.7,
               "--pi-between", 0.08, "--seed", 1, "--out", net, "--out-memberships", mem) == 0
    assert run("observe", "--input", net, "--sampling", "block-node", "--parameters", "0.9,0.4",
               "--clusters", mem, "--seed", 2, "--out", obs) == 0
    return net, mem, obs


def test_full_pipeline(pipeline, tmp_path):
    net, mem, obs = pipeline
    fit = tmp_path / "fit.json"
    mon = tmp_path / "mon.csv"
    imp = tmp_path / "imp.csv"
    assert run("fit", "--input", obs, "--blocks", "1:3", "--sampling", "block-node",
               "--seed", 3, "--out", fit, "--monitoring-csv", mon) == 0
    data = json.loads(fit.read_text())
    assert data["vBlocks"] == [1, 2, 3]
    assert data["bestQ"] in (1, 2, 3)
    assert mon.read_text().startswith("iter,Q,elbo,delta")

    assert run("impute", "--input", obs, "--fit", fit, "--out", imp) == 0
    matrix = [[float(t) for t in line.split(",")] for line in imp.read_text().strip().splitlines()]
    assert len(matrix) == 40

    assert run("eval-auc", "--full", net, "--observed", obs, "--imputed", imp) == 0
    assert run("eval-ari", "--labels-a", mem, "--labels-b", mem) == 0


def test_fit_determinism_across_threads_and_runs(pipeline, tmp_path):
    _, _, obs = pipeline
    outputs = []
    for name, threads in (("a", 1), ("b", 2), ("c", 1)):
        out = tmp_path / f"fit_{name}.json"
        assert run("fit", "--input", obs, "--blocks", "1:3", "--sampling", "node",
                   "--seed", 11, "--threads", threads, "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_trace_logs_fit_rows_to_stderr_only(pipeline, tmp_path, capsys):
    _, _, obs = pipeline
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    args = ("fit", "--input", obs, "--blocks", "2", "--sampling", "block-node", "--seed", 3)
    assert run(*args, "--out", plain) == 0
    assert capsys.readouterr().err == ""
    assert run(*args, "--out", traced, "--trace") == 0
    captured = capsys.readouterr()
    rows = json.loads(traced.read_text())["models"][0]["monitoring"]
    lines = captured.err.splitlines()
    assert len(lines) == len(rows)
    assert all(line.startswith(f"[fit q=2] iter {row['iter']}: ") for line, row in zip(lines, rows))
    assert "[fit q=" not in captured.out
    assert traced.read_bytes() == plain.read_bytes()
    assert not logging.getLogger("sbm_miss").handlers


def test_sweep_auc_determinism(tmp_path):
    outs = []
    for name, threads in (("a", 1), ("b", 2)):
        out = tmp_path / f"sweep_{name}.csv"
        assert run("sweep-auc", "--nodes", 30, "--blocks", 2, "--pi-within", 0.6,
                   "--pi-between", 0.05, "--replicates", 3, "--seed", 5,
                   "--threads", threads, "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header, *rows = outs[0].decode().strip().splitlines()
    assert header == "replicate,rate,auc,flag"
    assert len(rows) == 3


@pytest.mark.parametrize("tag", [t for t in AVAILABLE_SAMPLINGS if t not in SWEEP_DESIGNS])
def test_sweep_auc_offers_only_the_sweep_designs(tag, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run("sweep-auc", "--nodes", 10, "--sampling", tag, "--out", tmp_path / "s.csv")
    assert f"invalid choice: '{tag}'" in capsys.readouterr().err


def test_compare_designs_command(pipeline, tmp_path):
    _, _, obs = pipeline
    out = tmp_path / "cmp.csv"
    assert run("compare-designs", "--input", obs, "--designs", "node,block-node",
               "--blocks", "2", "--seed", 6, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "design,Q,ICL,error"
    assert len(lines) == 3


def test_observe_with_triplet_format(tmp_path):
    net = tmp_path / "net.txt"
    obs = tmp_path / "obs.txt"
    assert run("generate", "--nodes", 20, "--blocks", 1, "--pi-within", 0.4,
               "--pi-between", 0.4, "--seed", 1, "--out", net, "--out-format", "triplet") == 0
    assert run("observe", "--input", net, "--format", "triplet", "--nodes", 20,
               "--sampling", "dyad", "--parameters", "0.5", "--seed", 2,
               "--out", obs, "--out-format", "triplet") == 0
    assert "NA" in obs.read_text()


def test_eval_auc_vector_form(tmp_path):
    truth = tmp_path / "t.csv"
    scores = tmp_path / "s.csv"
    truth.write_text("1\n0\n1\n0\n")
    scores.write_text("0.9\n0.8\n0.4\n0.1\n")
    out = tmp_path / "auc.txt"
    assert run("eval-auc", "--truth", truth, "--scores", scores, "--out", out) == 0
    assert out.read_text().strip() == "0.75"
    scores.write_text("nan\n0.8\n0.4\n0.1\n")
    assert run("eval-auc", "--truth", truth, "--scores", scores) == 2


def test_input_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.csv"
    assert run("fit", "--input", missing, "--blocks", "2", "--sampling", "dyad",
               "--out", tmp_path / "f.json") == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("0,7\n7,0\n")
    assert run("fit", "--input", bad, "--blocks", "2", "--sampling", "dyad",
               "--out", tmp_path / "f.json") == 2
    bad.write_text("NA,1,0\n1,NA\n0,0,NA\n")   # ragged row
    assert run("fit", "--input", bad, "--blocks", "2", "--sampling", "dyad",
               "--out", tmp_path / "f.json") == 2
    net = tmp_path / "net.csv"
    assert run("generate", "--nodes", 10, "--blocks", 1, "--pi-within", 0.5,
               "--pi-between", 0.5, "--out", net) == 0
    assert run("fit", "--input", net, "--blocks", "0:2", "--sampling", "dyad",
               "--out", tmp_path / "f.json") == 2
    for threshold in ("0", "nan", "inf"):   # a NaN would never stop a fit, an inf stops it at once
        assert run("fit", "--input", net, "--blocks", "1", "--sampling", "dyad", "--threshold", threshold,
                   "--out", tmp_path / "f.json") == 2
    assert run("observe", "--input", net, "--sampling", "dyad", "--parameters", "zebra",
               "--out", tmp_path / "o.csv") == 2
    obs = tmp_path / "obs.csv"
    assert run("observe", "--input", net, "--sampling", "dyad", "--parameters", "0.6",
               "--seed", 1, "--out", obs) == 0
    fit = tmp_path / "fit.json"
    assert run("fit", "--input", obs, "--blocks", "1", "--sampling", "dyad",
               "--out", fit) == 0
    data = json.loads(fit.read_text())
    for psi in ([], [0.3, 0.9], "abc"):
        data["models"][0]["design"]["psi"] = psi
        fit.write_text(json.dumps(data))
        assert run("impute", "--input", obs, "--fit", fit, "--out", tmp_path / "i.csv") == 2
    # malformed JSON inputs: not JSON, a bestQ without a model, non-numeric fields
    good = json.loads(fit.read_text())
    good["models"][0]["design"]["psi"] = 0.6
    broken = [{**good, "bestQ": 5},
              {**good, "bestQ": "one", "models": [{**good["models"][0], "Q": "one"}]},
              {**good, "models": [{**good["models"][0], "tau": [["x"]] * 10}]},
              {**good, "models": [{**good["models"][0], "tau": [[float("nan")]] * 10}]}]
    for bad_fit in ["{not json"] + [json.dumps(d) for d in broken]:
        fit.write_text(bad_fit)
        assert run("impute", "--input", obs, "--fit", fit, "--out", tmp_path / "i.csv") == 2
    params = tmp_path / "params.json"
    for bad_params in ("[0.5,", json.dumps({"alpha": [1.0], "pi": [["high"]]})):
        params.write_text(bad_params)
        assert run("generate", "--nodes", 10, "--params", params, "--out", net) == 2
    ragged = tmp_path / "ragged_cov.csv"
    ragged.write_text("0,1,2\n1,0\n2,1,0\n")
    assert run("fit", "--input", net, "--blocks", "1", "--sampling", "covar-dyad",
               "--covariates", ragged, "--out", tmp_path / "f.json") == 2
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(",".join(["0.5"] * 10) for _ in range(9)) + "\n0.5" + ",x" * 9 + "\n")
    assert run("eval-auc", "--full", net, "--observed", obs, "--imputed", scores) == 2
    # malformed generator values, node counts below 1, a worker count of 0, a JSON object as psi
    generator = ("--pi-within", 0.5, "--pi-between", 0.1, "--out", tmp_path / "g.csv")
    assert run("generate", "--nodes", 10, "--blocks", 2, "--alpha", "0.5,x", *generator) == 2
    assert run("generate", "--nodes", 10, "--blocks", 0, *generator) == 2
    assert run("generate", "--nodes", -3, "--blocks", 2, *generator) == 2
    assert run("sweep-auc", "--nodes", -4, "--out", tmp_path / "s.csv") == 2
    assert run("sweep-auc", "--nodes", 10, "--threads", 0, "--out", tmp_path / "s.csv") == 2
    assert run("observe", "--input", net, "--sampling", "dyad", "--parameters", '{"a": 1}',
               "--out", tmp_path / "o.csv") == 2


@pytest.mark.parametrize("n_full,n_observed", [(10, 12), (12, 10)], ids=["observed larger", "observed smaller"])
def test_eval_auc_refuses_an_observed_network_of_another_size(tmp_path, capsys, n_full, n_observed):
    networks = {}
    for n in (n_full, n_observed):
        net, obs = tmp_path / f"net{n}.csv", tmp_path / f"obs{n}.csv"
        assert run("generate", "--nodes", n, "--blocks", 2, "--pi-within", 0.5, "--pi-between", 0.1,
                   "--seed", 1, "--out", net) == 0
        assert run("observe", "--input", net, "--sampling", "dyad", "--parameters", 0.6,
                   "--seed", 2, "--out", obs) == 0
        networks[n] = net, obs
    imputed = tmp_path / "imputed.csv"
    imputed.write_text("".join(",".join(["0.5"] * n_full) + "\n" for _ in range(n_full)))
    capsys.readouterr()
    assert run("eval-auc", "--full", networks[n_full][0], "--observed", networks[n_observed][1],
               "--imputed", imputed) == 2
    assert f"observed network has {n_observed} nodes, the full network {n_full}" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("alpha", [math.nan, math.nan]),
                                         ("pi", [[math.nan, 0.1], [0.1, 0.5]])])
def test_non_finite_fit_parameters_exit_2(tmp_path, field, value):
    # Python's json reads the NaN literal, so a fit JSON can carry one
    net, obs, fit = (tmp_path / name for name in ("net.csv", "obs.csv", "fit.json"))
    assert run("generate", "--nodes", 20, "--blocks", 2, "--pi-within", 0.5, "--pi-between", 0.1,
               "--seed", 1, "--out", net) == 0
    assert run("observe", "--input", net, "--sampling", "dyad", "--parameters", "0.6",
               "--seed", 2, "--out", obs) == 0
    assert run("fit", "--input", obs, "--blocks", "2", "--sampling", "dyad", "--out", fit) == 0
    data = json.loads(fit.read_text())
    data["models"][0]["sbm"][field] = value
    fit.write_text(json.dumps(data))
    assert "NaN" in fit.read_text()
    assert run("impute", "--input", obs, "--fit", fit, "--out", tmp_path / "i.csv") == 2
    assert not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("n", [8, 20], ids=["shorter", "longer"])
def test_node_count_mismatches_exit_2(tmp_path, n):
    net, cov, labels = tmp_path / "net.csv", tmp_path / "cov.csv", tmp_path / "labels.csv"
    assert run("generate", "--nodes", 12, "--blocks", 2, "--pi-within", 0.6,
               "--pi-between", 0.1, "--out", net) == 0
    cov.write_text("".join(f"{k % 3}\n" for k in range(n)))
    labels.write_text("".join(f"{k % 2 + 1}\n" for k in range(n)))
    assert run("fit", "--input", net, "--blocks", "1:2", "--sampling", "covar-dyad",
               "--covariates", cov, "--out", tmp_path / "f.json") == 2
    assert run("observe", "--input", net, "--sampling", "covar-dyad", "--parameters", "1.0",
               "--covariates", cov, "--out", tmp_path / "o.csv") == 2
    assert run("observe", "--input", net, "--sampling", "block-dyad", "--parameters", "[[0.9,0.3],[0.3,0.6]]",
               "--clusters", labels, "--out", tmp_path / "o.csv") == 2


@pytest.mark.parametrize("nodal", [False, True], ids=["dyadic", "nodal"])
def test_covariates_of_mixed_node_counts_exit_2(tmp_path, nodal):
    net, a, b = tmp_path / "net.csv", tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("generate", "--nodes", 12, "--blocks", 2, "--pi-within", 0.6,
               "--pi-between", 0.1, "--out", net) == 0
    for path, n in ((a, 12), (b, 20)):
        row = "1" if nodal else ",".join(["1"] * n)
        path.write_text(f"{row}\n" * n)
    assert run("fit", "--input", net, "--blocks", "1:2", "--sampling", "covar-node" if nodal else "covar-dyad",
               "--covariates", f"{a},{b}", "--out", tmp_path / "f.json") == 2


def test_numerical_failures_exit_3(tmp_path, monkeypatch):
    net = tmp_path / "net.csv"
    assert run("generate", "--nodes", 10, "--blocks", 1, "--pi-within", 0.5,
               "--pi-between", 0.5, "--out", net) == 0

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "estimate_miss_sbm", boom)
    assert run("fit", "--input", net, "--blocks", "1", "--sampling", "dyad",
               "--out", tmp_path / "f.json") == 3


def test_a_non_finite_loop_value_is_a_numerical_failure(tmp_path, monkeypatch):
    # the EM loop builds its parameters without the input checks; a NaN pi from
    # the M step is refused where it is built, as a numerical failure (exit 3)
    net = tmp_path / "net.csv"
    assert run("generate", "--nodes", 12, "--blocks", 2, "--pi-within", 0.6,
               "--pi-between", 0.1, "--out", net) == 0
    rate_update = vem.rate_update

    def nan_pi(*args):
        pi, kept = rate_update(*args)
        return np.full_like(pi, np.nan), kept

    monkeypatch.setattr(vem, "rate_update", nan_pi)
    with pytest.raises(NumericalError, match=r"Q=2: SbmParams.pi entries are not finite"):
        vem.fit_single(io.read_dense_csv(net), 2, "dyad")
    assert run("fit", "--input", net, "--blocks", "1:2", "--sampling", "dyad",
               "--out", tmp_path / "f.json") == 3


def test_no_command_prints_help():
    assert cli.main([]) == 2


def test_generate_with_params_json(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({
        "Q": 2, "variant": "plain", "alpha": [0.5, 0.5],
        "pi": [[0.8, 0.1], [0.1, 0.8]],
    }))
    net = tmp_path / "net.csv"
    assert run("generate", "--nodes", 16, "--params", params, "--seed", 4, "--out", net) == 0
    assert len(net.read_text().strip().splitlines()) == 16
