"""Command-line interface.

Commands: generate, observe, fit, impute, eval-ari, eval-auc, sweep-auc,
compare-designs.  Every command is a pure function of its inputs, flags and
seed; outputs are byte-identical across repeated runs and worker counts.
Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from . import io
from .errors import InputError, NumericalError
from .evaluation import SWEEP_DESIGNS, ExperimentSpec, ari, auc, compare_designs, run_auc_sweep
from .network import CovariateSet, PartialAdjacency, Partition
from .sampling import AVAILABLE_SAMPLINGS, SamplingDesign, design_spec, observe_network
from .sbm import SbmParams, sample_network
from .vem import ControlOptions, estimate_miss_sbm, fit_from_json, impute


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if not hasattr(args, "func"):
        _PARSER.print_help()
        return 2
    # --trace: the fit monitoring rows, logged at INFO, go to stderr
    log = logging.getLogger("sbm_miss")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    if getattr(args, "trace", False):
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        args.func(args)
        return 0
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbm-miss",
                                     description="SBM estimation for partially observed networks")
    sub = parser.add_subparsers(dest="command")

    def add_input(p):
        p.add_argument("--input", required=True)
        p.add_argument("--format", default="dense-csv", choices=["dense-csv", "triplet", "graphml"])
        p.add_argument("--directed", action="store_true")
        p.add_argument("--nodes", type=int, default=None, help="node count for triplet inputs")
        p.add_argument("--default-missing", action="store_true",
                       help="triplet inputs: unlisted dyads are missing instead of absent")
        p.add_argument("--label-attr", default=None, help="GraphML node attribute with reference labels")
        p.add_argument("--drop-isolated", action="store_true", help="GraphML: remove degree-0 nodes")
        p.add_argument("--out-labels", default=None, help="write reference labels extracted from the input")

    def add_covariates(p):
        p.add_argument("--covariates", default=None, help="comma-separated covariate CSV files")

    def add_control(p):
        p.add_argument("--use-cov", action="store_true")
        p.add_argument("--threshold", type=float, default=1e-2)
        p.add_argument("--max-iter", type=int, default=50)
        p.add_argument("--fixpoint-iter", type=int, default=3)
        p.add_argument("--exploration", default="both",
                       choices=["forward", "backward", "both", "none"])
        p.add_argument("--iterates", type=int, default=1)
        p.add_argument("--trace", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("generate", help="draw a network from an SBM")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--params", default=None, help="SbmParams JSON file")
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--alpha", default=None, help="comma-separated block proportions")
    p.add_argument("--pi-within", type=float, default=None)
    p.add_argument("--pi-between", type=float, default=None)
    p.add_argument("--directed", action="store_true")
    add_covariates(p)
    p.add_argument("--out", required=True)
    p.add_argument("--out-memberships", default=None)
    p.add_argument("--out-format", default="dense-csv", choices=["dense-csv", "triplet"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("observe", help="partially observe a network under a sampling design")
    add_input(p)
    p.add_argument("--sampling", required=True, choices=list(AVAILABLE_SAMPLINGS))
    p.add_argument("--parameters", required=True,
                   help="comma-separated values, or JSON for matrix-shaped psi")
    p.add_argument("--intercept", type=float, default=0.0, help="covar designs: generation intercept")
    p.add_argument("--waves", type=int, default=1, help="snowball: number of waves")
    p.add_argument("--clusters", default=None, help="labels CSV for block designs (1-based)")
    add_covariates(p)
    p.add_argument("--out", required=True)
    p.add_argument("--out-format", default="dense-csv", choices=["dense-csv", "triplet"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_observe)

    p = sub.add_parser("fit", help="estimate the SBM and the sampling parameters")
    add_input(p)
    p.add_argument("--blocks", required=True, help="block counts, e.g. 1:18 or 2,3,4")
    p.add_argument("--sampling", required=True, choices=list(AVAILABLE_SAMPLINGS))
    add_covariates(p)
    add_control(p)
    p.add_argument("--out", required=True, help="fit collection JSON")
    p.add_argument("--monitoring-csv", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("impute", help="fill missing dyads from a fitted model")
    add_input(p)
    p.add_argument("--fit", required=True, help="fit JSON (collection or single model)")
    add_covariates(p)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)   # unread; perfbench/workloads.py passes it
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("eval-ari", help="adjusted Rand index between two label files")
    p.add_argument("--labels-a", required=True)
    p.add_argument("--labels-b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval_ari)

    p = sub.add_parser("eval-auc", help="imputation AUC (vectors, or full/observed/imputed matrices)")
    p.add_argument("--truth", default=None)
    p.add_argument("--scores", default=None)
    p.add_argument("--full", default=None)
    p.add_argument("--observed", default=None)
    p.add_argument("--imputed", default=None)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval_auc)

    p = sub.add_parser("sweep-auc", help="imputation AUC against the observation rate")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--params", default=None, help="SbmParams JSON file")
    p.add_argument("--blocks", type=int, default=3, help="planted and fitted block count")
    p.add_argument("--alpha", default=None)
    p.add_argument("--pi-within", type=float, default=0.3)
    p.add_argument("--pi-between", type=float, default=0.03)
    p.add_argument("--sampling", default="block-node", choices=list(SWEEP_DESIGNS))
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--rate-min", type=float, default=0.4)
    p.add_argument("--rate-max", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_sweep_auc)

    p = sub.add_parser("compare-designs", help="ICL table across candidate sampling designs")
    add_input(p)
    p.add_argument("--designs", required=True, help="comma-separated design tags")
    p.add_argument("--blocks", required=True)
    add_covariates(p)
    add_control(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------

def parse_blocks(text: str) -> list[int]:
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse block range {text!r}") from None


def parse_parameters(tag: str, text: str, intercept: float = 0.0, waves: int = 1) -> SamplingDesign:
    text = text.strip()
    if text.startswith("[") or text.startswith("{"):
        try:
            values = np.array(json.loads(text), dtype=float)
        except (ValueError, TypeError):   # TypeError: a JSON object where numbers belong
            raise InputError(f"cannot parse JSON parameters {text!r}") from None
    else:
        try:
            values = np.array([float(t) for t in text.split(",")], dtype=float)
        except ValueError:
            raise InputError(f"cannot parse parameters {text!r}") from None
    if design_spec(tag).needs == "covariates":
        values = np.concatenate([[intercept], values.ravel()])
    return SamplingDesign(tag, values, waves=waves)


def _load_network(args) -> PartialAdjacency:
    adj, labels = io.read_network(
        args.input, fmt=args.format, directed=args.directed, n=args.nodes,
        default_missing=args.default_missing,
        label_attribute=args.label_attr, drop_isolated=args.drop_isolated,
    )
    if args.out_labels:
        if labels is None:
            raise InputError("--out-labels requires a GraphML input with --label-attr")
        codes = {name: k for k, name in enumerate(sorted(set(labels)))}
        io.write_labels_csv(args.out_labels, np.array([codes[v] for v in labels]))
    return adj


def _load_covariates(args) -> CovariateSet | None:
    return io.load_covariates(args.covariates.split(",")) if args.covariates else None


def _control(args) -> ControlOptions:
    return ControlOptions(
        threshold=args.threshold, max_iter=args.max_iter,
        fix_point_iter=args.fixpoint_iter, exploration=args.exploration,
        iterates=args.iterates, use_cov=args.use_cov,
        rng_seed=args.seed, workers=args.threads,
    )


def _generator_params(args) -> SbmParams:
    if args.params:
        return SbmParams.from_json(io.read_json(args.params))
    if args.blocks is None:
        raise InputError("provide --params or --blocks with --pi-within/--pi-between")
    q = args.blocks
    if q < 1:
        raise InputError("block count must be >= 1")
    try:
        alpha = np.array([float(t) for t in args.alpha.split(",")]) if args.alpha else np.full(q, 1.0 / q)
    except ValueError:
        raise InputError(f"cannot parse block proportions {args.alpha!r}") from None
    if getattr(args, "pi_within", None) is None or getattr(args, "pi_between", None) is None:
        raise InputError("planted generator needs --pi-within and --pi-between")
    pi = np.full((q, q), args.pi_between) + (args.pi_within - args.pi_between) * np.eye(q)
    return SbmParams(alpha=alpha, pi=pi, directed=getattr(args, "directed", False))


def _write_network(path, adj, fmt):
    if fmt == "dense-csv":
        io.write_dense_csv(path, adj)
    else:
        io.write_triplets(path, adj)


def _print_or_write(value: float, out):
    text = io.format_real(value)
    if out:
        io.write_pieces(out, [text + "\n"])
    print(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_generate(args):
    params = _generator_params(args)
    covariates = _load_covariates(args)
    adj, draw = sample_network(params, args.nodes, covariates=covariates, rng_seed=args.seed)
    _write_network(args.out, adj, args.out_format)
    if args.out_memberships:
        io.write_labels_csv(args.out_memberships, draw.labels)


def _cmd_observe(args):
    adj = _load_network(args)
    design = parse_parameters(args.sampling, args.parameters,
                              intercept=args.intercept, waves=args.waves)
    clusters = None
    if args.clusters:
        labels = io.read_labels_csv(args.clusters)
        clusters = Partition.from_labels(labels)
    covariates = _load_covariates(args)
    observed = observe_network(adj, design, clusters=clusters,
                               covariates=covariates, rng_seed=args.seed)
    _write_network(args.out, observed, args.out_format)


def _cmd_fit(args):
    adj = _load_network(args)
    covariates = _load_covariates(args)
    collection = estimate_miss_sbm(adj, parse_blocks(args.blocks), args.sampling,
                                   covariates=covariates, control=_control(args))
    io.write_json(args.out, collection.to_json())
    if args.monitoring_csv:
        io.write_csv_rows(args.monitoring_csv, ["iter", "Q", "elbo", "delta"],
                          collection.optimization_status())


def _cmd_impute(args):
    adj = _load_network(args)
    covariates = _load_covariates(args)
    data = io.read_json(args.fit)
    if isinstance(data, dict) and isinstance(data.get("models"), list):
        best = [m for m in data["models"] if isinstance(m, dict) and m.get("Q") == data.get("bestQ")]
        if not best:
            raise InputError(f"{args.fit}: bestQ names no model of the collection")
        data = best[0]
    fit = fit_from_json(adj, data, covariates=covariates)
    io.write_float_matrix(args.out, impute(fit))


def _cmd_eval_ari(args):
    a = io.read_labels_csv(args.labels_a)
    b = io.read_labels_csv(args.labels_b)
    _print_or_write(ari(a, b), args.out)


def _cmd_eval_auc(args):
    if args.truth and args.scores:
        truth = io.read_vector_csv(args.truth)
        scores = io.read_vector_csv(args.scores)
    elif args.full and args.observed and args.imputed:
        full = io.read_dense_csv(args.full, directed=args.directed)
        observed = io.read_dense_csv(args.observed, directed=args.directed)
        if observed.n != full.n:
            raise InputError(f"observed network has {observed.n} nodes, the full network {full.n}")
        imputed = io.read_float_matrix(args.imputed)
        if imputed.shape != full.matrix.shape:
            raise InputError("imputed matrix shape does not match the network")
        mi, mj = observed.missing_pairs
        if mi.size == 0:
            raise InputError("observed network has no missing dyads to score")
        truth = full.matrix[mi, mj]
        scores = imputed[mi, mj]
    else:
        raise InputError("eval-auc needs --truth/--scores or --full/--observed/--imputed")
    _print_or_write(auc(truth, scores), args.out)


def _cmd_sweep_auc(args):
    params = _generator_params(args)
    spec = ExperimentSpec(
        params=params, n_nodes=args.nodes, design=args.sampling,
        rate_range=(args.rate_min, args.rate_max), fit_blocks=params.q,
        replicates=args.replicates, base_seed=args.seed, control=ControlOptions(workers=args.threads),
    )
    rows = run_auc_sweep(spec)
    io.write_csv_rows(args.out, ["replicate", "rate", "auc", "flag"], rows)


def _cmd_compare(args):
    adj = _load_network(args)
    covariates = _load_covariates(args)
    rows = compare_designs(adj, args.designs.split(","), parse_blocks(args.blocks),
                           control=_control(args), covariates=covariates)
    io.write_csv_rows(args.out, ["design", "Q", "ICL", "error"], rows)


_PARSER = _build_parser()   # at import: argparse's first parser loads locale, not the first command

if __name__ == "__main__":
    sys.exit(main())
