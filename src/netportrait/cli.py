"""Command-line frontend.

Subcommands: ``compare`` two edge lists, ``matrix`` of pairwise divergences
over many edge lists (multilayer layers, temporal snapshots), ``portrait``
dump of one graph, and ``experiment`` drivers for the synthetic studies.
Exit codes: 0 success, 1 usage error, 2 parse/input error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import asdict

from .divergence import _jsd_matrix, _legacy_delta, _report, joint_distribution, \
    weighted_portrait_divergence
from .experiments import ensemble_distributions, rewiring_curve
from .graph import TRANSFORMS, ColumnCountError, Graph, GraphParseError, parse_edge_list
from .portrait import BinSpec, _distinct_lengths, portrait, weighted_portrait

DEFAULT_BINS = 100


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def _add_io_flags(sub):
    sub.add_argument("--directed", action="store_true", help="treat edges as directed")
    sub.add_argument("--weighted", action="store_true",
                     help="expect 3-column u v w lines and use weighted portraits")
    sub.add_argument("--bins", type=int, default=None, metavar="B",
                     help=f"number of path-length bins (weighted only, default {DEFAULT_BINS})")
    sub.add_argument("--transform", choices=TRANSFORMS, default=None,
                     help="edge-weight to path-cost transform (weighted only)")
    sub.add_argument("--format", choices=("json", "csv"), default=None,
                     help="output format")
    sub.add_argument("--output", metavar="PATH", default=None,
                     help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netportrait",
                     description="Compare networks through their portraits.")
    subs = parser.add_subparsers(dest="command", required=True)

    compare = subs.add_parser("compare", help="divergence between two edge-list files")
    compare.add_argument("files", nargs=2, metavar="FILE")
    compare.add_argument("--legacy", action="store_true",
                         help="also report the row-wise KS comparator")
    _add_io_flags(compare)

    matrix = subs.add_parser("matrix", help="all-pairs divergence matrix over files")
    matrix.add_argument("files", nargs="+", metavar="FILE")
    _add_io_flags(matrix)

    por = subs.add_parser("portrait", help="dump the portrait of one edge-list file")
    por.add_argument("files", nargs=1, metavar="FILE")
    _add_io_flags(por)

    exp = subs.add_parser("experiment", help="run a synthetic experiment")
    exp.add_argument("name", choices=("ensemble-distributions", "rewiring-curve"))
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--n-nodes", type=int, default=300)
    exp.add_argument("--avg-degree", type=float, default=6.0,
                     help="matched mean degree (ensemble-distributions)")
    exp.add_argument("--pairs", type=int, default=30,
                     help="pairs per condition (ensemble-distributions)")
    exp.add_argument("--er-p", type=float, default=3 / 299,
                     help="ER edge probability (rewiring-curve)")
    exp.add_argument("--ba-m", type=int, default=3,
                     help="BA attachment count (rewiring-curve)")
    exp.add_argument("--models", default="er,ba",
                     help="comma list of base models (rewiring-curve)")
    exp.add_argument("--rewirings", default="10,100,1000",
                     help="comma list of rewiring counts (rewiring-curve)")
    exp.add_argument("--repeats", type=int, default=30,
                     help="seeds per point (rewiring-curve)")
    exp.add_argument("--format", choices=("json", "csv"), default=None)
    exp.add_argument("--output", metavar="PATH", default=None)
    return parser


def _check_weighted_flags(args) -> None:
    if not args.weighted:
        if args.bins is not None:
            raise UsageError("--bins is only valid with --weighted")
        if args.transform is not None:
            raise UsageError("--transform is only valid with --weighted")
    if args.bins is not None and args.bins < 1:
        raise UsageError("--bins must be >= 1")


def _load(path: str, args) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_list(fh, directed=args.directed, weighted=args.weighted)
        except GraphParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _check_output(output: str) -> None:
    """Fail before any work when ``_emit`` could not write ``output``."""
    target = os.path.realpath(output)
    folder = os.path.dirname(target)
    if os.path.exists(target):
        if os.path.isdir(target) or not os.access(target, os.W_OK):
            raise OSError(f"{output}: not a writable file")
    elif not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise OSError(f"{output}: directory {folder} is missing or not writable")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    # New files and regular files of ours are renamed into place (through symlinks,
    # keeping the mode), so no partial file remains; anything else is written in place.
    target = os.path.realpath(output)
    st = os.stat(target) if os.path.exists(target) else None
    if st is not None and not (stat.S_ISREG(st.st_mode)
                               and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
                               and os.access(os.path.dirname(target), os.W_OK)):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cmd_compare(args) -> str:
    _check_weighted_flags(args)
    if args.legacy and args.weighted:
        raise UsageError("--legacy is defined for unweighted graphs only")
    g1 = _load(args.files[0], args)
    g2 = _load(args.files[1], args)
    if args.weighted:
        report = weighted_portrait_divergence(g1, g2, args.bins or DEFAULT_BINS,
                                              args.transform or "reciprocal")
    else:
        p1, p2 = portrait(g1), portrait(g2)
        report = _report(p1, p2, g1, g2, None)
    if (args.format or "json") == "json":
        payload = report.to_dict()
        if args.legacy:
            payload["legacy_delta"] = _legacy_delta(p1, p2)
        return json.dumps(payload, indent=2) + "\n"
    lines = [_fmt(report.d_js)]
    if args.legacy:
        lines.append(_fmt(_legacy_delta(p1, p2)))
    return "\n".join(lines) + "\n"


def _cmd_matrix(args) -> str:
    _check_weighted_flags(args)
    if len(args.files) < 2:
        raise UsageError("matrix needs at least 2 files")
    graphs = [_load(path, args) for path in args.files]
    if args.weighted:
        n_bins, transform = args.bins or DEFAULT_BINS, args.transform or "reciprocal"
        k = len(graphs)
        values = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                values[i][j] = values[j][i] = weighted_portrait_divergence(
                    graphs[i], graphs[j], n_bins, transform).d_js
    else:
        values = _jsd_matrix([joint_distribution(portrait(g)) for g in graphs]).tolist()
    names = [os.path.basename(path) for path in args.files]
    if (args.format or "csv") == "json":
        return json.dumps({"files": names, "d_js": values}, indent=2) + "\n"
    lines = [",".join(names)]
    lines += [",".join(_fmt(v) for v in row) for row in values]
    return "\n".join(lines) + "\n"


def _cmd_portrait(args) -> str:
    _check_weighted_flags(args)
    g = _load(args.files[0], args)
    if args.weighted:
        if args.bins is None:
            raise UsageError("weighted portraits need an explicit --bins")
        transform = args.transform or "reciprocal"
        bins = BinSpec.from_quantiles(_distinct_lengths(g, transform), args.bins)
        p = weighted_portrait(g, bins, transform)
    else:
        p = portrait(g)
    if (args.format or "json") == "json":
        return json.dumps(p.to_dict()) + "\n"
    return p.to_dense_csv()


def _cmd_experiment(args) -> str:
    if args.name == "ensemble-distributions":
        rows = ensemble_distributions(n_nodes=args.n_nodes, avg_degree=args.avg_degree,
                                      n_pairs=args.pairs, seed=args.seed)
        header = "condition,pair,d_js"
        csv_rows = [f"{r.condition},{r.pair},{_fmt(r.d_js)}" for r in rows]
    else:
        try:
            rewirings = tuple(int(x) for x in args.rewirings.split(","))
            models = tuple(m.strip() for m in args.models.split(","))
        except ValueError:
            raise UsageError(f"bad --rewirings list: {args.rewirings!r}") from None
        if not all(m in ("er", "ba") for m in models):
            raise UsageError(f"--models entries must be er or ba, got {args.models!r}")
        rows = rewiring_curve(models=models, n_nodes=args.n_nodes, er_p=args.er_p,
                              ba_m=args.ba_m, rewirings=rewirings,
                              n_seeds=args.repeats, seed=args.seed)
        header = "model,mode,n_rewirings,mean_d_js,sd_d_js,n_seeds"
        csv_rows = [f"{r.model},{r.mode},{r.n_rewirings},{_fmt(r.mean_d_js)},"
                    f"{_fmt(r.sd_d_js)},{r.n_seeds}" for r in rows]
    if (args.format or "csv") == "json":
        return json.dumps([asdict(r) for r in rows], indent=2) + "\n"
    return "\n".join([header] + csv_rows) + "\n"


_COMMANDS = {
    "compare": _cmd_compare,
    "matrix": _cmd_matrix,
    "portrait": _cmd_portrait,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output is not None:
            _check_output(args.output)
        _emit(_COMMANDS[args.command](args), args.output)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ColumnCountError as exc:
        print(f"error: {exc} (does the --weighted flag match the file?)", file=sys.stderr)
        return 1
    except (GraphParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())
