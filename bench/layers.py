"""Per-layer metrics derived from the spans of one traced repetition.

A span is ``[name, start_ns, end_ns, parent, attrs]`` as written by
``child.py``.  A span's self time is its duration minus the durations of its
direct children; children of one span never overlap because every traced
call runs on the interpreter's main thread.
"""

from __future__ import annotations

from collections import defaultdict

# smin kernel: orders (columns of the swept matrix) that the workloads sweep,
# and serial us per node measured at the ROADMAP baseline (2 vCPU,
# OpenBLAS 0.3.31), printed side by side with the traced figures
KERNEL_ORDERS = (1, 2, 3, 4, 5, 6, 12, 16, 96)
BASELINE_US_PER_NODE = {1: 1.5, 4: 6.2, 16: 32.0, 32: 136.0, 64: 557.0,
                        128: 4700.0}
ORDER_BUCKETS = (("order_le4", 1, 4), ("order_5_16", 5, 16),
                 ("order_17_64", 17, 64), ("order_gt64", 65, None))

METHODS = ("inclusion.sigma_tau", "inclusion.pi_method",
           "inclusion.tau1_method")
FAMILY = ("matrixcore.submatrix_tau", "matrixcore.submatrix_pi",
          "matrixcore.submatrix_tau1", "matrixcore.embedding_selector")
OUTPUT = ("inclusion.MethodReport.to_json", "pseudospec.region_to_csv",
          "viz.render_svg", "toeplitz.StudyResult.to_csv")
# spans that only contain other layers' work; left out of "largest span"
CONTAINERS = ("cli.main", "toeplitz.convergence_study",
              "corpus.verify_containment") + METHODS

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("pseudospec.smin_grid.calls", "count"),
    ("pseudospec.smin_grid.nodes", "count"),
    ("pseudospec.smin_grid.self_s", "s"),
    ("pseudospec.smin_grid.us_per_node", "us"),
    ("pseudospec.smin_grid.us_per_call", "us"),
    *[(f"pseudospec.smin_grid.us_per_node.{b}", "us")
      for b, _, _ in ORDER_BUCKETS],
    *[(f"pseudospec.smin_grid.us_per_node.n{n}", "us") for n in KERNEL_ORDERS],
    ("pseudospec.smin_grid.flops_computed", "flop"),
    ("pseudospec.smin_grid.bytes_computed", "B"),
    ("pseudospec.pseudospectrum.s", "s"),
    ("pseudospec.hausdorff.s", "s"),
    ("pseudospec.eig.s", "s"),
    ("pseudospec.contour_extract.s", "s"),
    ("pseudospec.contour_extract.vertices", "count"),
    ("pseudospec.region_to_csv.s", "s"),
    ("pseudospec.region_to_csv.bytes", "B"),
    ("inclusion.method.s", "s"),
    ("inclusion.method.self_s", "s"),
    ("inclusion.contributions", "count"),
    ("inclusion.unique_contributions", "count"),
    ("inclusion.dedup_ratio", "ratio"),
    ("inclusion.penalty_params.s", "s"),
    ("inclusion.MethodReport.to_json.s", "s"),
    ("inclusion.MethodReport.to_json.bytes", "B"),
    ("matrixcore.make_view.s", "s"),
    ("matrixcore.family.s", "s"),
    ("matrixcore.family.calls", "count"),
    ("penalty.solve_theta.calls", "count"),
    ("penalty.solve_theta.s", "s"),
    ("viz.render_svg.self_s", "s"),
    ("viz.render_svg.bytes", "B"),
    ("ingest.load_matrix.s", "s"),
    ("toeplitz.convergence_study.s", "s"),
    ("corpus.build_corpus.s", "s"),
    ("corpus.checks", "count"),
    ("corpus.violations", "count"),
    ("cli.main.s", "s"),
    ("cli.output.s", "s"),
    ("cli.bytes_written", "B"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_s", "s"),
    ("outputs.digest_changed", "count"),
    ("outputs.digest_compared", "count"),
]
UNITS = dict(METRICS)
# metrics that count work; they must repeat exactly from run to run
COUNTS = ("pseudospec.smin_grid.calls", "pseudospec.smin_grid.nodes",
          "inclusion.contributions", "inclusion.unique_contributions",
          "corpus.checks")


def svd_flops(rows: int, cols: int) -> float:
    """Real flops of one singular-values-only complex SVD (rows >= cols).

    Golub and Van Loan's bidiagonalisation count ``4 m n^2 - 4 n^3 / 3`` for
    real data, times 4 for complex arithmetic; the bidiagonal QR iteration
    is O(n^2) and left out.
    """
    return 4.0 * (4.0 * rows * cols ** 2 - 4.0 * cols ** 3 / 3.0)


class SpanTree:
    def __init__(self, spans) -> None:
        self.spans = spans
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.children[s[3]].append(i)

    def duration(self, i: int) -> float:
        s = self.spans[i]
        return (s[2] - s[1]) / 1e9

    def self_time(self, i: int) -> float:
        return self.duration(i) - sum(self.duration(c)
                                      for c in self.children[i])

    def named(self, *names) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def total(self, *names) -> float:
        """Summed duration of the outermost spans among ``names``."""
        return sum(self.duration(i) for i in self.named(*names)
                   if not self.has_ancestor(i, names))

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False


def kernel_by_order(tree: SpanTree) -> dict[tuple[int, int], list[float]]:
    """``(rows, cols) -> [calls, nodes, seconds]`` over all smin sweeps."""
    table: dict[tuple[int, int], list[float]] = {}
    for i in tree.named("pseudospec.smin_grid"):
        rows, cols, nodes = tree.spans[i][4]
        row = table.setdefault((rows, cols), [0, 0, 0.0])
        row[0] += 1
        row[1] += nodes
        row[2] += tree.duration(i)
    return table


def _us_per_node(rows) -> float:
    nodes = sum(r[1] for r in rows)
    return 1e6 * sum(r[2] for r in rows) / nodes if nodes else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric that spans alone determine."""
    t = SpanTree(spans)
    m: dict[str, float] = {}

    kernel = kernel_by_order(t)
    calls = sum(r[0] for r in kernel.values())
    nodes = sum(r[1] for r in kernel.values())
    busy = sum(r[2] for r in kernel.values())
    m["pseudospec.smin_grid.calls"] = calls
    m["pseudospec.smin_grid.nodes"] = nodes
    m["pseudospec.smin_grid.self_s"] = busy
    m["pseudospec.smin_grid.us_per_node"] = 1e6 * busy / nodes if nodes else 0.0
    m["pseudospec.smin_grid.us_per_call"] = 1e6 * busy / calls if calls else 0.0
    for bucket, lo, hi in ORDER_BUCKETS:
        m[f"pseudospec.smin_grid.us_per_node.{bucket}"] = _us_per_node(
            [r for (_, c), r in kernel.items()
             if c >= lo and (hi is None or c <= hi)])
    for n in KERNEL_ORDERS:
        m[f"pseudospec.smin_grid.us_per_node.n{n}"] = _us_per_node(
            [r for (_, c), r in kernel.items() if c == n])
    m["pseudospec.smin_grid.flops_computed"] = sum(
        r[1] * svd_flops(rows, cols) for (rows, cols), r in kernel.items())
    m["pseudospec.smin_grid.bytes_computed"] = sum(
        r[1] * rows * cols * 16 for (rows, cols), r in kernel.items())

    for name in ("pseudospectrum", "hausdorff", "eig", "contour_extract",
                 "region_to_csv"):
        m[f"pseudospec.{name}.s"] = t.total(f"pseudospec.{name}")
    m["pseudospec.contour_extract.vertices"] = sum(
        t.spans[i][4] for i in t.named("pseudospec.contour_extract"))
    m["pseudospec.region_to_csv.bytes"] = sum(
        t.spans[i][4] for i in t.named("pseudospec.region_to_csv"))

    methods = t.named(*METHODS)
    m["inclusion.method.s"] = t.total(*METHODS)
    m["inclusion.method.self_s"] = sum(t.self_time(i) for i in methods)
    # family members and the sweeps they needed, counted inside the method
    # assemblers only (``run_method`` rebuilds the families for its report)
    contributions = sum(
        1 for i in t.named(*FAMILY[:3]) if t.has_ancestor(i, METHODS))
    unique = sum(1 for i in t.named("pseudospec.smin_grid")
                 if t.spans[i][3] >= 0 and t.spans[t.spans[i][3]][0] in METHODS)
    m["inclusion.contributions"] = contributions
    m["inclusion.unique_contributions"] = unique
    m["inclusion.dedup_ratio"] = unique / contributions if contributions else 0.0
    m["inclusion.penalty_params.s"] = t.total("inclusion.penalty_params")
    m["inclusion.MethodReport.to_json.s"] = t.total(
        "inclusion.MethodReport.to_json")
    m["inclusion.MethodReport.to_json.bytes"] = sum(
        t.spans[i][4] for i in t.named("inclusion.MethodReport.to_json"))

    m["matrixcore.make_view.s"] = t.total("matrixcore.make_view")
    m["matrixcore.family.s"] = t.total(*FAMILY)
    m["matrixcore.family.calls"] = len(t.named(*FAMILY))
    m["penalty.solve_theta.calls"] = len(t.named("penalty.solve_theta"))
    m["penalty.solve_theta.s"] = t.total("penalty.solve_theta")
    m["viz.render_svg.self_s"] = sum(
        t.self_time(i) for i in t.named("viz.render_svg"))
    m["viz.render_svg.bytes"] = sum(
        t.spans[i][4] for i in t.named("viz.render_svg"))
    m["ingest.load_matrix.s"] = t.total("ingest.load_matrix")
    m["toeplitz.convergence_study.s"] = t.total("toeplitz.convergence_study")
    m["corpus.build_corpus.s"] = t.total("corpus.build_corpus")
    checks = [t.spans[i][4] for i in t.named("corpus.verify_containment")]
    m["corpus.checks"] = sum(c[0] for c in checks)
    m["corpus.violations"] = sum(c[1] for c in checks)
    m["cli.main.s"] = t.total("cli.main")
    m["cli.output.s"] = t.total(*OUTPUT)
    return m


def shares(spans) -> dict[str, float]:
    """Share of the traced ``cli.main`` span spent in each layer's own code."""
    t = SpanTree(spans)
    main = t.total("cli.main")
    groups = {
        "kernel (smin_grid)": ("pseudospec.smin_grid",),
        "output (json, csv, contours, svg)": OUTPUT
        + ("pseudospec.contour_extract",),
        "inclusion assembly": METHODS + ("inclusion.penalty_params",),
        "matrixcore families and views": FAMILY + ("matrixcore.make_view",),
        "penalty solve_theta": ("penalty.solve_theta",),
        "sets (pseudospectrum, hausdorff, eig)": (
            "pseudospec.pseudospectrum", "pseudospec.hausdorff",
            "pseudospec.eig"),
        "corpus, ingest and studies": (
            "corpus.build_corpus", "corpus.verify_containment",
            "ingest.load_matrix", "toeplitz.convergence_study"),
    }
    out = {}
    for label, names in groups.items():
        out[label] = sum(t.self_time(i) for i in t.named(*names)) / main
    out["cli (untraced code in main)"] = (
        sum(t.self_time(i) for i in t.named("cli.main")) / main)
    return out


def largest_spans(spans, k: int = 3) -> list[tuple[str, float]]:
    """The ``k`` longest single spans that are not mere containers."""
    t = SpanTree(spans)
    ranked = sorted((t.duration(i), s[0]) for i, s in enumerate(spans)
                    if s[0] not in CONTAINERS)
    return [(name, d) for d, name in reversed(ranked[-k:])]
