"""In-process span tracer for the qtransport layers.

The tracer wraps the public functions of each qtransport module from the
outside; no code in the package changes.  Modules import one another's
functions by name (``from .ncmat import matmul``), so wrapping only the
defining module would miss most calls.  ``install`` therefore rebinds every
traced function in every ``qtransport.*`` namespace that holds it, and patches
traced methods on their class.  ``uninstall`` puts the originals back.

Each traced call records one span: the layer name, the index of the span that
was open when it started (its parent), its start and end, and the interval
from entering the wrapper to finishing the tracer's bookkeeping after the
call.  A parent's self time subtracts that wider interval for each child, so
the tracer's own work is charged to no layer.  Spans are kept in flat arrays
so that a run with hundreds of thousands of monomial products stays small in
memory.
"""

import functools
import sys
import time
from array import array

PACKAGE = "qtransport"

# (layer name, module, attribute); "Class.method" patches the class.
TARGETS = [
    ("qalg.qmul", "qtransport.qalg", "qmul"),
    ("qalg.pairing", "qtransport.qalg", "SkewForm.pairing"),
    ("qalg.scalar", "qtransport.qalg", "QScalar.__mul__"),
    ("qalg.scalar", "qtransport.qalg", "QScalar.__add__"),
    ("ncmat.matmul", "qtransport.ncmat", "matmul"),
    ("ncmat.sheet_product", "qtransport.ncmat", "sheet_product"),
    ("ncmat.lift", "qtransport.ncmat", "lift1"),
    ("ncmat.lift", "qtransport.ncmat", "lift2"),
    ("ncmat.classical_act", "qtransport.ncmat", "classical_act"),
    ("ncmat.invert_restricted", "qtransport.ncmat", "invert_restricted"),
    ("ncmat.elementwise", "qtransport.ncmat", "QMatrix.__add__"),
    ("ncmat.elementwise", "qtransport.ncmat", "QMatrix.__sub__"),
    ("ncmat.elementwise", "qtransport.ncmat", "QMatrix.__neg__"),
    ("ncmat.elementwise", "qtransport.ncmat", "QMatrix.scale"),
    ("rmat.build_R", "qtransport.rmat", "build_R"),
    ("network.load", "qtransport.network", "load_network"),
    ("network.transport", "qtransport.network", "transport_matrix"),
    ("geometry.derive", "qtransport.geometry", "derive_network_data"),
    ("affine.levels_T", "qtransport.affine", "levels_T"),
    ("affine.loop_generators", "qtransport.affine", "loop_generators"),
    ("affine.reflection_series", "qtransport.affine", "reflection_series"),
    ("verify.rtt", "qtransport.verify", "check_rtt"),
    ("verify.blocks", "qtransport.verify", "check_blocks"),
    ("verify.affine", "qtransport.verify", "check_affine"),
    ("verify.aux_inverse", "qtransport.verify", "check_aux_inverse"),
    ("verify.loop", "qtransport.verify", "check_loop"),
    ("verify.subalgebra", "qtransport.verify", "check_subalgebra"),
    ("verify.appendix", "qtransport.verify", "check_appendix"),
    ("verify.reflection_affine", "qtransport.verify", "check_reflection_affine"),
    ("cli", "qtransport.cli", "main"),
]

LAYERS = list(dict.fromkeys(name for name, _, _ in TARGETS))

# Layers whose call counts are reported next to their self time.
COUNTED = [
    "qalg.qmul",
    "qalg.pairing",
    "qalg.scalar",
    "ncmat.matmul",
    "ncmat.sheet_product",
    "ncmat.lift",
    "ncmat.classical_act",
    "ncmat.invert_restricted",
    "rmat.build_R",
]

# Work counters kept beside the spans; all are exact integers.
COUNTERS = [
    "qalg.qmul.term_pairs",
    "ncmat.sheet_product.cells",
    "ncmat.sheet_product.zero_cells",
    "ncmat.lift.cells",
    "ncmat.lift.zero_cells",
    "ncmat.matmul.pairs",
    "ncmat.matmul.useful_pairs",
    "ncmat.largest_cells",
    "network.transport.terms",
]


def _zero_cells(m):
    return sum(1 for row in m.data for x in row if not x.terms)


class Tracer:
    """Records spans and work counters for calls into the traced layers."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_name = array("B")
        self.span_parent = array("l")
        self.span_enter = array("d")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_cover = array("d")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.rebound = {}  # "module.attribute" -> namespaces rebound
        self._restore = []

    # -- work counters, called after the traced function returns ----------

    def _after_qmul(self, args, result):
        x, y = args
        self.counters["qalg.qmul.term_pairs"] += len(x.terms) * len(y.terms)

    def _note_matrix(self, m):
        cells = m.rows * m.cols
        if cells > self.counters["ncmat.largest_cells"]:
            self.counters["ncmat.largest_cells"] = cells
        return cells

    def _after_matrix(self, args, result):
        self._note_matrix(result)

    def _after_sheet_product(self, args, result):
        c = self.counters
        c["ncmat.sheet_product.cells"] += self._note_matrix(result)
        c["ncmat.sheet_product.zero_cells"] += _zero_cells(result)

    def _after_lift(self, args, result):
        c = self.counters
        c["ncmat.lift.cells"] += self._note_matrix(result)
        c["ncmat.lift.zero_cells"] += _zero_cells(result)

    def _after_matmul(self, args, result):
        a, b = args
        c = self.counters
        c["ncmat.matmul.pairs"] += a.rows * a.cols * b.cols
        c["ncmat.matmul.useful_pairs"] += sum(
            sum(1 for i in range(a.rows) if a.data[i][k].terms)
            * sum(1 for y in b.data[k] if y.terms)
            for k in range(a.cols)
        )
        self._note_matrix(result)

    def _after_transport(self, args, result):
        self.counters["network.transport.terms"] += sum(
            len(x.terms) for row in result.data for x in row
        )

    def _after_hook(self, name):
        return {
            "qalg.qmul": self._after_qmul,
            "ncmat.matmul": self._after_matmul,
            "ncmat.sheet_product": self._after_sheet_product,
            "ncmat.lift": self._after_lift,
            "ncmat.classical_act": self._after_matrix,
            "ncmat.invert_restricted": self._after_matrix,
            "ncmat.elementwise": self._after_matrix,
            "network.transport": self._after_transport,
        }.get(name)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self.name_ids[name]
        after = self._after_hook(name)
        clock = time.perf_counter
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        enters, covers = self.span_enter, self.span_cover
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            enters.append(enter)
            starts.append(0.0)
            ends.append(0.0)
            covers.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                covers[idx] = t1
            if after is not None:
                after(args, result)
            covers[idx] = clock()
            return result

        return traced

    def install(self):
        """Rebind every traced function wherever a qtransport module holds it."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, fn))
                self._restore.append((cls, meth, fn))
                self.rebound[f"{modname}.{attr}"] = [modname]
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn)
            holders = []
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, fn))
                        holders.append(mod.__name__)
            self.rebound[f"{modname}.{attr}"] = holders

    def uninstall(self):
        for obj, key, fn in reversed(self._restore):
            setattr(obj, key, fn)
        self._restore = []

    # -- results ------------------------------------------------------------

    @property
    def span_count(self):
        return len(self.span_name)

    def layer_totals(self):
        """Per layer: (calls, self seconds).

        A span's self time is its duration minus the intervals its children
        cover, where a child's interval also holds the tracer's bookkeeping
        for that child.
        """
        n = len(self.span_name)
        child = [0.0] * n
        parents, enters, covers = self.span_parent, self.span_enter, self.span_cover
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += covers[i] - enters[i]
        starts, ends = self.span_start, self.span_end
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        return {
            name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)
        }

    def metrics(self):
        """The per-layer metrics: exact counts, self times and work ratios."""
        totals = self.layer_totals()
        c = self.counters
        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = (totals[name][0], "count")
        for name in LAYERS:
            out[f"{name}.self_s"] = (totals[name][1], "s")
        out["qalg.qmul.term_pairs"] = (c["qalg.qmul.term_pairs"], "count")
        for name in ("ncmat.sheet_product", "ncmat.lift"):
            cells = c[f"{name}.cells"]
            out[f"{name}.cells"] = (cells, "count")
            out[f"{name}.zero_share"] = (
                c[f"{name}.zero_cells"] / cells if cells else 0.0,
                "ratio",
            )
        pairs = c["ncmat.matmul.pairs"]
        out["ncmat.matmul.useful_share"] = (
            c["ncmat.matmul.useful_pairs"] / pairs if pairs else 0.0,
            "ratio",
        )
        out["ncmat.largest_cells"] = (c["ncmat.largest_cells"], "count")
        out["network.transport.terms"] = (c["network.transport.terms"], "count")
        return out

    def spans(self):
        """Recorded spans as dicts, leaving out the torus layer.

        The qalg spans are the bulk of a run and only ever nest inside one
        another; their totals are in ``metrics``.
        """
        for i, nid in enumerate(self.span_name):
            name = LAYERS[nid]
            if name.startswith("qalg."):
                continue
            yield {
                "id": i,
                "name": name,
                "parent": self.span_parent[i],
                "start": self.span_start[i],
                "end": self.span_end[i],
            }
