"""The classical limit of the RTT relation, checked with no quantum code.

At v = e^h the quantum torus becomes, to first order in h, the Poisson
algebra of commuting Laurent monomials x^a with

    {x^a, x^b} = -2 (a E b) x^{a+b},

E the network's integer skew form (twice eps), since :w^a: :w^b: -
:w^b: :w^a: = (v^{-aEb} - v^{aEb}) :w^{a+b}:.  R = 1 + h r + O(h^2) with

    r = 2 sum_i e_ii (x) e_ii + 4 sum_{j<i} e_ij (x) e_ji,

the h-term of rmat.build_R (q = v^2 gives 2, q - q^-1 gives 4).  The first
order of R (1)T (2)T = (2)T (1)T R is then the Sklyanin bracket

    {(1)T, (2)T} = (1)T (2)T r - r (1)T (2)T,

which Gekhtman, Shapiro and Vainshtein proved for the boundary measurement
matrix of a planar network with log-canonical face weights ("Poisson
geometry of directed networks in a disk", Selecta Math. 2009).  Here T is
the classical transport, sinks by sources, walked path by path from the
edge exponents; entry ((i,k),(j,l)) of (1)T (2)T is T_ij T_kl.

Nothing here reads qtransport.qalg, ncmat or verify: a network gives only
its skew form E, its edges with their exponents, and its boundary.
Polynomials are {exponent tuple: int}.
"""

from operator import add


def network_data(net):
    """(E, [(from, to, exponent)], sources, sinks) of a built network."""
    edges = [(e.frm, e.to, tuple(e.exponent)) for e in net.edges]
    return [list(row) for row in net.form.E], edges, list(net.sources), list(net.sinks)


def bumped(data, edge, generator):
    """data with one exponent of one edge raised by 1."""
    E, edges, sources, sinks = data
    frm, to, exps = edges[edge]
    exps = tuple(x + (i == generator) for i, x in enumerate(exps))
    return E, edges[:edge] + [(frm, to, exps)] + edges[edge + 1:], sources, sinks


def transport(data):
    """Classical T, rows sinks and columns sources: each entry sums its paths' x^a."""
    E, edges, sources, sinks = data
    out = {}
    for frm, to, exps in edges:
        out.setdefault(frm, []).append((to, exps))
    row = {t: i for i, t in enumerate(sinks)}
    T = [[{} for _ in sources] for _ in sinks]

    def walk(v, a, j):
        if v in row:
            T[row[v]][j][a] = T[row[v]][j].get(a, 0) + 1
            return
        for w, exps in out[v]:
            walk(w, tuple(map(add, a, exps)), j)

    for j, s in enumerate(sources):
        walk(s, (0,) * len(E), j)
    return T


def times(p, q, weight=None):
    """The product of commuting polynomials, each term pair scaled by weight(a, b)."""
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            ab = tuple(map(add, a, b))
            out[ab] = out.get(ab, 0) + ca * cb * (1 if weight is None else weight(a, b))
    return {a: c for a, c in out.items() if c}


def plus(p, q, scale=1):
    """p + scale q, zero coefficients dropped."""
    out = dict(p)
    for a, c in q.items():
        out[a] = out.get(a, 0) + scale * c
    return {a: c for a, c in out.items() if c}


def bracket(p, q, E, sign):
    """{p, q}, with {x^a, x^b} = sign (a E b) x^{a+b}."""
    def weight(a, b):
        return sign * sum(x * E[i][j] * y for i, x in enumerate(a) if x
                          for j, y in enumerate(b) if y)
    return times(p, q, weight)


def r_matrix(k, diag=2, off=4):
    """r at size k as {((a, b), (c, d)): int}: diag on e_ii (x) e_ii, off on e_ij (x) e_ji, j < i."""
    r = {((i, i), (i, i)): diag for i in range(k)}
    r.update({((i, j), (j, i)): off for i in range(k) for j in range(i)})
    return r


def sklyanin_residual(data, sign=-2, diag=2, off=4):
    """{((i,k),(j,l)): nonzero residual} of {(1)T, (2)T} - [(1)T (2)T, r]."""
    E, _, sources, sinks = data
    T = transport(data)
    left, right = {}, {}  # r on the left by row, on the right by column
    for (rw, cl), c in r_matrix(len(sinks), diag, off).items():
        left.setdefault(rw, []).append((cl, c))
    for (rw, cl), c in r_matrix(len(sources), diag, off).items():
        right.setdefault(cl, []).append((rw, c))
    products = {}

    def pair(i, j, k, l):  # T_ij T_kl
        key = (i, j, k, l)
        if key not in products:
            products[key] = times(T[i][j], T[k][l])
        return products[key]

    out = {}
    rows, cols = range(len(sinks)), range(len(sources))
    for i in rows:
        for k in rows:
            for j in cols:
                for l in cols:
                    res = bracket(T[i][j], T[k][l], E, sign)
                    for (m, n), c in right.get((j, l), ()):
                        res = plus(res, pair(i, m, k, n), -c)
                    for (m, n), c in left.get((i, k), ()):
                        res = plus(res, pair(m, j, n, l), c)
                    if res:
                        out[(i, k), (j, l)] = res
    return out
