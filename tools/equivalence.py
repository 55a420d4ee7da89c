"""Equivalence panel: does the working tree compute what a revision computes?

    python tools/equivalence.py --base REV [--grid full|tiny]
    python tools/equivalence.py [--grid full|tiny]

With ``--base``, the script unpacks ``git archive REV`` into a temporary
directory and runs one fixed grid of cases in a fresh Python process on each
tree, the copy and this checkout, each importing ``sbm_miss`` from its own
``src/``.  Without it, the grid runs on this checkout alone.  The full grid:

* every sampling design on an undirected and on a directed planted network
  with one nodal covariate, two seeds: the observation mask, then
  ``estimate_miss_sbm`` over Q = 1..3 with exploration "both", without and
  with ``use_cov``; and, on the same mask, with ``use_cov`` on one discrete
  dyadic covariate of 3 levels instead (every design but covar-node, which
  needs a nodal covariate);
* the psi that the AUC sweep draws for each design it supports, two seeds;
* two CLI ``generate`` / ``observe`` / ``fit`` / ``impute`` runs, fitted and
  imputed at ``--threads`` 1 and 2: block-node on a dense CSV, and
  covar-node on triplets with a binary nodal covariate file and
  ``--use-cov``;
* spectral starts at n = 200 and 300, where the truncated eigensolver runs:
  on an undirected and a directed planted network, two seeds, the labels of
  ``spectral_init`` for Q = 2..4 from one ``spectral_embedding`` of 4
  columns;
* one block-node ``estimate_miss_sbm`` over Q = 1..3 at n = 200, exploration
  "none".

Per case the report gives the hash of the mask, of the fit JSON (or of the
sweep psi, or of the CLI outputs), the largest relative change of alpha,
pi or gamma, beta, psi, ICL, tau, nu (empty for MAR fits) and every
monitoring row's bound and delta (row 0's delta is inf) over the
collection's models, and the EM row counts of the models.  tau and nu
entries are probabilities, and a delta is an absolute move held against an
absolute threshold, so their changes are taken relative to 1.  One
line then splits the differing cases in two: at rounding level (a fit on
the same mask, with equal EM row counts and every field below ``ROUNDING``
relative) and moved (every other, by name).  The exit code is 1 when a
case differs between the trees, or when the CLI outputs differ between
thread counts; 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# psi of each design's observation mask, for a planted network of 3 blocks
PSI = {
    "dyad": 0.6,
    "covar-dyad": [0.6, -0.8],
    "node": 0.6,
    "covar-node": [0.3, 1.0],
    "block-node": [0.7, 0.4, 0.6],
    "block-dyad": [[0.8, 0.5, 0.4], [0.5, 0.6, 0.3], [0.4, 0.3, 0.7]],
    "double-standard": [0.8, 0.5],
    "degree": [-0.5, 0.2],
    "snowball": 0.2,
}
SWEEP = ("dyad", "double-standard", "node", "block-node")
GRIDS = {
    # nodes, block counts fitted, seeds, directed values, use_cov values,
    # whether to add the fits on a 3-level dyadic covariate, the nodes of the
    # spectral-start cases and of the large fit (None: no such fit)
    "full": dict(n=30, blocks=[1, 2, 3], seeds=[0, 1], directed=[False, True], use_cov=[False, True],
                 dyadic=True, spectral=[200, 300], large=200),
    "tiny": dict(n=14, blocks=[1, 2], seeds=[0], directed=[False, True], use_cov=[False, True],
                 dyadic=False, spectral=[], large=None),
}
FIELDS = ("alpha", "pi/gamma", "beta", "psi", "icl", "tau", "nu", "bound", "delta")
FLOORS = {"tau": 1.0, "nu": 1.0, "delta": 1.0}   # a change is relative to max(|value|, the floor), default 0
ROUNDING = 1e-10   # a differing fit is at rounding level when every field moved less, relative
CLI_CASES = ("block-node", "covar-node")   # the designs of the CLI runs, see _cli_case


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Worker: runs the grid on the sbm_miss found on sys.path, prints JSON
# ---------------------------------------------------------------------------

def _model_numbers(fit) -> dict:
    covariate = fit.params.variant == "covariate"
    return {"alpha": fit.params.alpha.tolist(),
            "pi/gamma": (fit.params.gamma if covariate else fit.params.pi).ravel().tolist(),
            "beta": fit.params.beta.tolist() if covariate else [],
            "psi": fit.design.psi.ravel().tolist(),
            "icl": [float(fit.icl)], "tau": fit.state.tau.ravel().tolist(),
            "nu": [] if fit.state.nu is None else fit.state.nu.tolist(),
            "bound": [float(row.elbo) for row in fit.monitoring],
            "delta": [float(row.delta) for row in fit.monitoring], "rows": len(fit.monitoring)}


def _cli_case(n: int, tag: str) -> dict:
    """Hashes of the outputs of one CLI run on 2n nodes: block-node on a dense
    CSV, or covar-node on triplets with a binary nodal covariate and --use-cov."""
    from sbm_miss import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        def run(*argv):
            code = cli.main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"sbm-miss {argv[0]} exited {code}")

        net, mem, obs, cov = (Path(tmp) / name for name in ("net.csv", "mem.csv", "obs", "cov.csv"))
        observe, network, covariates = ["--parameters", "0.7,0.4,0.6"], [], []
        if tag == "covar-node":
            cov.write_text("".join(f"{int(i % 3 == 0)}\n" for i in range(2 * n)))
            covariates = ["--covariates", cov]
            observe = ["--parameters", "1.5", "--intercept", "-0.2", *covariates, "--out-format", "triplet"]
            network = ["--format", "triplet", "--nodes", 2 * n]
        run("generate", "--nodes", 2 * n, "--blocks", 3, "--pi-within", 0.5, "--pi-between", 0.05,
            "--seed", 1, "--out", net, "--out-memberships", mem)
        run("observe", "--input", net, "--sampling", tag, *observe, "--clusters", mem, "--seed", 2,
            "--out", obs)
        out["observed"] = _sha(obs.read_bytes())
        for threads in (1, 2):
            fit, mon, imp = (Path(tmp) / f"{name}{threads}" for name in ("fit.json", "mon.csv", "imp.csv"))
            run("fit", "--input", obs, *network, "--sampling", tag, *covariates,
                *(["--use-cov"] if covariates else []), "--blocks", "1:3", "--seed", 3,
                "--threads", threads, "--out", fit, "--monitoring-csv", mon)
            run("impute", "--input", obs, *network, *covariates, "--fit", fit, "--out", imp)
            for name, path in (("fit", fit), ("monitoring", mon), ("impute", imp)):
                out[f"{name} threads={threads}"] = _sha(path.read_bytes())
    return out


def run_grid(grid: dict) -> dict:
    """Every case of the grid on the importable sbm_miss, as plain data."""
    import numpy as np
    import sbm_miss
    from sbm_miss.evaluation import ExperimentSpec, _draw_sweep_design
    from sbm_miss.sbm import spectral_embedding

    cases = {}
    for directed in grid["directed"]:
        for seed in grid["seeds"]:
            rng = np.random.default_rng([seed, directed])
            cov = sbm_miss.CovariateSet.from_nodal([rng.normal(size=grid["n"])])
            pi = np.full((3, 3), 0.08) + np.eye(3) * 0.5
            params = sbm_miss.SbmParams(alpha=np.full(3, 1 / 3), pi=pi, directed=directed)
            adj, draw = sbm_miss.sample_network(params, grid["n"], rng_seed=100 + seed)
            clusters = sbm_miss.Partition(labels=draw.labels, q=3)
            levels = np.random.default_rng([seed, directed, 3]).integers(0, 3, size=(grid["n"],) * 2)
            levels = levels if directed else np.triu(levels) + np.triu(levels, 1).T
            dyadic = sbm_miss.CovariateSet.from_dyadic([levels.astype(float)])
            for tag, psi in PSI.items():
                waves = 2 if tag == "snowball" else 1
                observed = sbm_miss.observe_network(adj, sbm_miss.SamplingDesign(tag, psi, waves=waves),
                                                    clusters=clusters, covariates=cov, rng_seed=200 + seed)
                mask = _sha(np.isnan(observed.matrix).tobytes())
                fits = [(f"use_cov={use_cov}", cov, use_cov) for use_cov in grid["use_cov"]]
                if grid["dyadic"] and tag != "covar-node":
                    fits.append(("dyadic3 use_cov=True", dyadic, True))
                for label, covariates, use_cov in fits:
                    control = sbm_miss.ControlOptions(rng_seed=300 + seed, exploration="both", use_cov=use_cov)
                    coll = sbm_miss.estimate_miss_sbm(observed, grid["blocks"], tag, covariates=covariates,
                                                      control=control, waves=waves)
                    case = f"{tag} {'directed' if directed else 'undirected'} seed={seed} {label}"
                    cases[case] = {"mask": mask,
                                   "fit": _sha(json.dumps(coll.to_json(), sort_keys=True).encode()),
                                   "models": [_model_numbers(fit) for fit in coll.models]}
    params = sbm_miss.SbmParams(alpha=np.full(3, 1 / 3), pi=np.full((3, 3), 0.2))
    for tag in SWEEP:
        for seed in grid["seeds"]:
            spec = ExperimentSpec(params=params, n_nodes=grid["n"], design=tag, rate_range=(0.3, 0.9))
            psi = _draw_sweep_design(spec, 3, np.random.default_rng(seed)).psi
            cases[f"sweep {tag} seed={seed}"] = {"psi": _sha(repr((psi.shape, psi.tolist())).encode())}
    large_pi = np.full((3, 3), 0.05) + np.eye(3) * 0.3   # of the spectral starts and the large fit
    for n in grid["spectral"]:
        for directed in grid["directed"]:
            for seed in grid["seeds"]:
                params = sbm_miss.SbmParams(alpha=np.full(3, 1 / 3), pi=large_pi, directed=directed)
                adj, _ = sbm_miss.sample_network(params, n, rng_seed=400 + seed)
                embedding = spectral_embedding(adj, 4)
                labels = [sbm_miss.spectral_init(adj, q, seed, embedding).labels.tolist() for q in (2, 3, 4)]
                case = f"spectral n={n} {'directed' if directed else 'undirected'} seed={seed}"
                cases[case] = {"labels q=2..4": _sha(json.dumps(labels).encode())}
    if grid["large"]:
        params = sbm_miss.SbmParams(alpha=np.full(3, 1 / 3), pi=large_pi)
        adj, draw = sbm_miss.sample_network(params, grid["large"], rng_seed=500)
        observed = sbm_miss.observe_network(adj, sbm_miss.SamplingDesign("block-node", PSI["block-node"]),
                                            clusters=sbm_miss.Partition(labels=draw.labels, q=3), rng_seed=501)
        coll = sbm_miss.estimate_miss_sbm(observed, [1, 2, 3], "block-node",
                                          control=sbm_miss.ControlOptions(rng_seed=502, exploration="none"))
        cases[f"block-node undirected n={grid['large']} exploration=none"] = {
            "mask": _sha(np.isnan(observed.matrix).tobytes()),
            "fit": _sha(json.dumps(coll.to_json(), sort_keys=True).encode()),
            "models": [_model_numbers(fit) for fit in coll.models]}
    with redirect_stdout(io.StringIO()):
        for tag in CLI_CASES:
            cases[f"cli {tag}"] = _cli_case(grid["n"], tag)
    return {"package": str(Path(sbm_miss.__file__).resolve().parent), "cases": cases}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _run_tree(tree: Path, grid: str) -> dict:
    """The grid in a fresh process that imports sbm_miss from ``tree/src``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", "--grid", grid],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"grid failed on {tree}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout)
    if Path(result["package"]) != (tree / "src" / "sbm_miss").resolve():
        raise SystemExit(f"the grid on {tree} imported sbm_miss from {result['package']}")
    return result["cases"]


def _archive(rev: str, dest: Path) -> None:
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def _rel_change(a: list, b: list, floor: float = 0.0) -> float:
    if len(a) != len(b):
        return float("inf")
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:   # inf included, row 0's delta
            continue
        change = abs(x - y)   # inf or NaN when x or y is not finite
        worst = max(worst, change / max(abs(x), abs(y), floor) if math.isfinite(change) else math.inf)
    return worst


def _with_base(value, base_value) -> str:
    return str(value) if value == base_value else f"{value} (base {base_value})"


def _field_changes(b: dict, t: dict) -> list[float]:
    return [max((_rel_change(mt[f], mb[f], FLOORS.get(f, 0.0)) for mt, mb in zip(t["models"], b["models"])),
                default=0.0)
            for f in FIELDS]


def _rows(case: dict) -> str:
    return "/".join(str(m["rows"]) for m in case["models"])


def _split(base: dict, tree: dict) -> str:
    """One report line: how many differing cases are at rounding level, and which moved."""
    differ = [case for case in sorted(set(base) | set(tree)) if base.get(case) != tree.get(case)]
    moved = [case for case in differ
             if not (case in base and case in tree and "models" in tree[case]
                     and base[case]["mask"] == tree[case]["mask"] and _rows(base[case]) == _rows(tree[case])
                     and max(_field_changes(base[case], tree[case])) < ROUNDING)]
    return (f"of {len(differ)} differing: {len(differ) - len(moved)} at rounding level (every field "
            f"below {ROUNDING:.0e} relative, equal EM rows), {len(moved)} moved: {'; '.join(moved) or '-'}")


def _compare(base: dict, tree: dict) -> list[str]:
    """Report lines, one per case; a line starts with DIFF when the case differs."""
    lines = []
    for case in sorted(set(base) | set(tree)):
        b, t = base.get(case), tree.get(case)
        if b is None or t is None:
            lines.append(f"DIFF {case}: only on the {'tree' if b is None else 'base'}")
            continue
        if "models" in t:
            changes = _field_changes(b, t)
            rows = [_rows(t), _rows(b)]
            detail = "  ".join([f"mask {_with_base(t['mask'], b['mask'])}",
                                f"fit {_with_base(t['fit'], b['fit'])}",
                                *(f"d{f} {c:.1e}" for f, c in zip(FIELDS, changes)),
                                f"rows {_with_base(*rows)}"])
        else:
            detail = "  ".join(f"{k} {_with_base(v, b.get(k))}" for k, v in t.items())
        lines.append(f"{'same' if b == t else 'DIFF'} {case}: {detail}")
    return lines


def _thread_mismatches(cases: dict) -> list[str]:
    return [f"{tag} {name}" for tag in CLI_CASES for name in ("fit", "monitoring", "impute")
            if cases[f"cli {tag}"][f"{name} threads=1"] != cases[f"cli {tag}"][f"{name} threads=2"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default=None, help="git revision to compare the working tree against")
    parser.add_argument("--grid", default="full", choices=sorted(GRIDS))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(run_grid(GRIDS[args.grid])))
        return 0
    tree = _run_tree(ROOT, args.grid)
    if args.base is None:
        base, label = tree, "working tree only"
    else:
        with tempfile.TemporaryDirectory() as tmp:
            _archive(args.base, Path(tmp))
            base = _run_tree(Path(tmp), args.grid)
        label = f"base {args.base} against the working tree"
    lines = _compare(base, tree)
    print(f"equivalence panel, grid {args.grid}, {label}")
    print("\n".join(lines))
    differ = sum(line.startswith("DIFF") for line in lines)
    threads = {"base": _thread_mismatches(base), "tree": _thread_mismatches(tree)}
    for side, names in threads.items():
        if names:
            print(f"DIFF {side}: CLI {', '.join(names)} differ between --threads 1 and 2")
    print(_split(base, tree))
    print(f"{len(lines)} cases, {len(lines) - differ} identical, {differ} differ; "
          f"CLI outputs equal across --threads 1 and 2: {not any(threads.values())}")
    return 1 if differ or any(threads.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
