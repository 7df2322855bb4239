"""graphonlab: step graphons, homomorphism densities, cut distance, and
random graph processes, with a reproducibility-first CLI.

Public names are imported from their modules on first use (PEP 562), so
`import graphonlab` loads no numpy; `python -m graphonlab` relies on that
to choose its BLAS thread default before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("CutResult", "cut_distance", "cut_norm", "cut_norm_exact", "cut_norm_heuristic",
         "distance_to_constant"),
        "cutmetric",
    ),
    **dict.fromkeys(("DensityEstimate", "density_graph", "density_mc", "density_step"), "density"),
    **dict.fromkeys(
        ("Graph", "ParseError", "WorkLimitExceeded", "complete", "complete_bipartite", "cycle",
         "hom_count", "parse_edge_list", "relabel", "serialize_edge_list", "single_edge",
         "single_vertex"),
        "graphs",
    ),
    **dict.fromkeys(
        ("Kernel", "bipartite_limit", "common_refinement", "constant_graphon", "equalize",
         "evaluate", "parse_graphon", "permute_blocks", "pixel_graphon", "render_pgm",
         "serialize_graphon", "subtract", "uniform_attachment_limit"),
        "graphons",
    ),
    **dict.fromkeys(
        ("erdos_renyi", "sample_graph", "uniform_attachment", "w_random_graph"), "sampling"
    ),
}
_SUBMODULES = {*_EXPORTS.values(), "streams"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
