"""Command-line interface.

Usage examples:
  graphonlab density --pattern c4 --graphon constant:0.5
  graphonlab density --pattern triangle --graph mygraph.txt
  graphonlab sample --model erdos-renyi --n 100 --p 0.5 --seed 7 --out g.txt
  graphonlab cutnorm constant:0.5 bipartite
  graphonlab cutdist pixel:g.txt bipartite --resolution 8
  graphonlab converge --kind er --sizes 6,12,24 --seeds 0,1,2,3,4 --out-dir runs/
  graphonlab extremal --trials 1000 --max-n 8 --seed 1
  graphonlab bipartite --sizes 2,3,4
  graphonlab render --graphon ua-limit:64 --px 256 --out ua.pgm

Graphons are given either as a literal (constant:p, bipartite, ua-limit:m,
pixel:GRAPHFILE) or as a path to a graphon text file.  Patterns are the
built-ins vertex, edge, triangle, c4, or a path to an edge-list file.

Numbers are printed with 17 significant digits, so reruns with the same
seeds are byte-identical, whatever the BLAS thread count.  Started as
`graphonlab` or `python -m graphonlab`, the CLI runs on one BLAS thread
unless a BLAS thread variable such as OPENBLAS_NUM_THREADS is set
(graphonlab.__main__).  converge
computes its cells one after another and creates its out-dir only once
every cell has succeeded.

Exit codes: 0 success, 1 verified property violation, 2 invalid input,
3 resource refusal (work limit exceeded or memory exhausted).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import streams
from .cutmetric import (
    DEFAULT_EXACT_THRESHOLD,
    cut_distance,
    cut_norm,
    distance_to_constant,
)
from .density import (
    density_graph,
    density_mc,
    density_step,
)
from .graphs import (
    DEFAULT_WORK_LIMIT,
    Graph,
    ParseError,
    WorkLimitExceeded,
    check_integer,
    complete,
    complete_bipartite,
    cycle,
    hom_count,
    parse_edge_list,
    relabel,
    serialize_edge_list,
    single_edge,
    single_vertex,
)
from .graphons import (
    bipartite_limit,
    constant_graphon,
    parse_graphon,
    pixel_graphon,
    render_pgm,
    subtract,
    uniform_attachment_limit,
)
from .sampling import _check_model, _gnp, erdos_renyi, sample_graph, uniform_attachment

_PATTERNS = {
    "vertex": single_vertex,
    "edge": single_edge,
    "triangle": lambda: complete(3),
    "c4": lambda: cycle(4),
}

# the densities that converge and bipartite report, in their output order
_REPORTED = ("edge", "triangle", "c4")

# the least value of each integer flag, by dest; main checks every one before any work
_LEAST = {"budget": 1, "restarts": 1, "exact_threshold": 0, "work_limit": 0, "resolution": 1,
          "n": 1, "px": 1, "pgm_px": 1, "sizes": 1, "trials": 0, "max_n": 1}

DENSITY_TOL = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _named(parse):
    """parse(text), whose refusal (a ValueError, ParseError among them) names text."""

    @functools.wraps(parse)
    def named(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            exc.args = (f"{text}: {exc}",)
            raise

    return named


@_named
def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _pattern_arg(text: str) -> Graph:
    maker = _PATTERNS.get(text)
    if maker is not None:
        return maker()
    return _load_graph(text)


@_named
def _graphon_arg(text: str):
    if text == "bipartite":
        return bipartite_limit()
    if text.startswith("constant:"):
        return constant_graphon(float(text.partition(":")[2]))
    if text.startswith("ua-limit:"):
        return uniform_attachment_limit(int(text.partition(":")[2]))
    if text.startswith("pixel:"):
        return pixel_graphon(parse_edge_list(Path(text.partition(":")[2]).read_text()))
    return parse_graphon(Path(text).read_text())


def _int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {raw!r}")
    return values


def _set(ix: tuple[int, ...] | None) -> str:
    if not ix:
        return "-"
    return ",".join(str(i) for i in ix)


# ───────────────────────── subcommands ─────────────────────────


def cmd_density(args) -> int:
    if args.mc < 0 or args.mc == 1:  # before any load; 2 samples give a standard error
        raise ValueError(f"--mc must be 0 (exact) or at least 2, got {args.mc}")
    if args.graph is not None and args.mc:
        raise ValueError("--mc needs a graphon; use --graphon pixel:FILE --mc N")
    pattern = _pattern_arg(args.pattern)
    if args.graph is not None:
        est = density_graph(pattern, _load_graph(args.graph), args.work_limit)
    else:
        w = _graphon_arg(args.graphon)
        if args.mc:
            est = density_mc(pattern, w, args.mc, args.seed)
        else:
            est = density_step(pattern, w, args.work_limit)
    print(f"{_fmt(est.value)} {est.method} {_fmt(est.std_error)}")
    return 0


def cmd_cutnorm(args) -> int:
    a = _graphon_arg(args.graphon_a)
    b = _graphon_arg(args.graphon_b)
    res = cut_norm(subtract(a, b), args.exact_threshold, args.restarts, args.seed)
    mode = "exact" if res.exact else "lower-bound"
    print(f"{_fmt(res.value)} {mode} S={_set(res.witness_s)} T={_set(res.witness_t)}")
    return 0


def _distance(args, w, u, m: int, seed: int):
    return cut_distance(w, u, m, args.budget, args.restarts, seed, args.exact_threshold)


def cmd_cutdist(args) -> int:
    a = _graphon_arg(args.graphon_a)
    b = _graphon_arg(args.graphon_b)
    res = _distance(args, a, b, args.resolution, args.seed)
    mode = "exact" if res.exact else "estimate"
    print(f"{_fmt(res.value)} {mode} perm={_set(res.permutation)}")
    return 0


def cmd_sample(args) -> int:
    _check_model(args.model, args.p, args.graphon or None)  # before a graphon is built
    graphon = _graphon_arg(args.graphon) if args.graphon else None
    text = serialize_edge_list(
        sample_graph(args.model, args.n, args.seed, p=args.p, graphon=graphon)
    )
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args) -> int:
    Path(args.out).write_bytes(render_pgm(_graphon_arg(args.graphon), args.px))
    return 0


def _converge_cell(args, n: int, seed: int):
    if args.kind == "er":
        p = 0.5 if args.p is None else args.p
        graph = erdos_renyi(n, p, seed)
        w = pixel_graphon(graph)
        stat = distance_to_constant(w, p, args.exact_threshold, args.restarts, seed).value
    else:
        graph = uniform_attachment(n, seed)
        w = pixel_graphon(graph)
        stat = _distance(args, w, uniform_attachment_limit(n), n, seed).value
    densities = [_fmt(density_graph(_PATTERNS[name](), graph).value) for name in _REPORTED]
    row = ",".join([str(n), str(seed), *densities, _fmt(stat)])
    pgms = [
        (f"{args.kind}_n{n}_seed{seed}_px{px}.pgm", render_pgm(w, px))
        for px in args.pgm_px
    ]
    return row, pgms


def cmd_converge(args) -> int:
    if args.kind == "ua" and args.p is not None:
        raise ValueError("--p sets the edge probability of --kind er only")
    cells = [(n, seed) for n in args.sizes for seed in args.seeds]
    results = [_converge_cell(args, n, seed) for n, seed in cells]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["n,seed,edge_density,triangle_density,c4_density,cut_stat"]
    lines.extend(row for row, _ in results)
    trace = out_dir / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    for _, pgms in results:
        for name, data in pgms:
            (out_dir / name).write_bytes(data)
    print(f"wrote {trace} ({len(cells)} rows) and {sum(len(p) for _, p in results)} pgm files")
    return 0


def cmd_extremal(args) -> int:
    c4 = _PATTERNS["c4"]()
    edge = _PATTERNS["edge"]()
    violations = 0
    gaps = []
    for trial in range(args.trials):
        rng = streams.substream(args.seed, streams.EXTREMAL, trial)
        n = int(rng.integers(1, args.max_n + 1))
        graph = _gnp(n, float(rng.random()), rng)
        h4 = hom_count(c4, graph)
        he = hom_count(edge, graph)
        # integer comparison: t(c4) >= t(edge)^4  <=>  h4 * n^4 >= he^4
        violations += h4 * n**4 < he**4
        gaps.append(h4 / n**4 - (he / n**2) ** 4)
    print(
        f"inequality trials={args.trials} max_n={args.max_n} "
        f"violations={violations} min_gap={_fmt(min(gaps)) if gaps else '-'}"
    )

    c4s = []
    for trial in range(args.trials):
        rng = streams.substream(args.seed, streams.EXTREMAL, args.trials + trial)
        graph = erdos_renyi(args.max_n, 0.5, rng.integers(1 << 62))
        if density_graph(edge, graph).value >= 0.5:
            c4s.append(density_graph(c4, graph).value)
    if not c4s:
        print(f"dense n={args.max_n} samples={args.trials} kept=0")
    else:
        print(
            f"dense n={args.max_n} samples={args.trials} kept={len(c4s)} "
            f"min_c4={_fmt(min(c4s))} target=0.0625 delta={_fmt(min(c4s) - 0.0625)}"
        )
    return 1 if violations else 0


def cmd_bipartite(args) -> int:
    limit = bipartite_limit()
    patterns = [(name, _PATTERNS[name]()) for name in _REPORTED]
    mismatched = False
    for n in args.sizes:
        block = complete_bipartite(n, n)
        # vertex i of block class 0 goes to 2i, of class 1 to 2i + 1
        alternating = relabel(block, list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
        labelings = [("block", pixel_graphon(block)), ("alternating", pixel_graphon(alternating))]
        for name, w in labelings:
            res = _distance(args, w, limit, 2 * n, args.seed)
            mode = "exact" if res.exact else "estimate"
            print(f"n={n} labeling={name} distance={_fmt(res.value)} {mode}")
        pairs = [[density_step(pattern, w).value for _, w in labelings] for _, pattern in patterns]
        agree = not any(abs(a - b) > DENSITY_TOL for a, b in pairs)
        mismatched |= not agree
        shown = " ".join(f"{name}={_fmt(a)}" for (name, _), (a, _) in zip(patterns, pairs))
        print(f"n={n} densities {shown} agree={'yes' if agree else 'no'}")
    return 1 if mismatched else 0


# ───────────────────────── parser ─────────────────────────


def _search_flags(p, budget: int | None = 8, restarts: int = 20, seed: bool = True) -> None:
    """Declare the cut-search flags on p with its own defaults; budget=None or
    seed=False leaves that flag out.  (argparse parents= would share one Action,
    and so one default, among the subcommands.)"""
    if budget is not None:
        p.add_argument("--budget", type=int, default=budget, help="hill-climb starts when m > 10")
    p.add_argument("--restarts", type=int, default=restarts)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact-threshold", type=int, default=DEFAULT_EXACT_THRESHOLD)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a removed --graph must not be read as --graphon
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="graphonlab",
        description="step graphons, homomorphism densities, cut distance, graph sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    p = sub.add_parser("density", help="homomorphism density of a pattern")
    p.add_argument("--pattern", required=True, help="vertex|edge|triangle|c4 or edge-list file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", help="edge-list file")
    grp.add_argument("--graphon", help="graphon literal or file")
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count (0 = exact)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--work-limit", type=int, default=DEFAULT_WORK_LIMIT)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("cutnorm", help="cut norm of the difference of two graphons")
    p.add_argument("graphon_a")
    p.add_argument("graphon_b")
    _search_flags(p, budget=None)
    p.set_defaults(func=cmd_cutnorm)

    p = sub.add_parser("cutdist", help="cut distance over block permutations")
    p.add_argument("graphon_a")
    p.add_argument("graphon_b")
    p.add_argument("--resolution", type=int, required=True)
    _search_flags(p)
    p.set_defaults(func=cmd_cutdist)

    p = sub.add_parser("sample", help="sample a random graph")
    p.add_argument("--model", required=True, choices=["w-random", "erdos-renyi", "uniform-attachment"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--graphon", default=None, help="graphon literal or file (w-random)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output edge-list file (default stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("converge", help="sampled-graph convergence experiment (CSV + PGM)")
    p.add_argument("--kind", required=True, choices=["er", "ua"])
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (er, default 0.5)")
    p.add_argument("--pgm-px", type=int, nargs="*", default=[128])
    _search_flags(p, budget=2, restarts=8, seed=False)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("extremal", help="four-cycle vs edge-density inequality check")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("bipartite", help="complete bipartite labelings vs the two-block limit")
    p.add_argument("--sizes", type=_int_list, default=[2, 3, 4])
    _search_flags(p)
    p.set_defaults(func=cmd_bipartite)

    p = sub.add_parser("render", help="write a PGM pixel picture")
    p.add_argument("--graphon", required=True, help="graphon literal or file")
    p.add_argument("--px", type=int, default=128)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, value in vars(args).items():  # before any file is read or graphon built
            flag = "--" + dest.replace("_", "-")
            if isinstance(value, list) and len(set(value)) < len(value):
                raise ValueError(f"{flag} repeats {max(value, key=value.count)}")
            for v in value if isinstance(value, list) else [value]:
                if dest in _LEAST:
                    check_integer(v, flag, _LEAST[dest])
                elif dest in ("seed", "seeds"):  # --seed keeps the library's wording
                    streams.check_seed(v, "seed" if dest == "seed" else flag)
        return args.func(args)
    except (WorkLimitExceeded, MemoryError) as exc:
        print(f"refused: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
