"""Seeded document generators with planted answers.

Nothing here imports equibundle: Laurent matrices are built with plain
``{exponent: int}`` dictionaries (reduced mod p for prime fields) and the
document text is written directly, so generation never runs the code under
test and never pays its 2^n determinant.  Every document carries a check
that compares the CLI report with the answer the generator planted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

P_LARGE = 2**31 - 1


@dataclass
class Doc:
    """One document, the command that runs it, and its independent check.

    ``check`` takes the report's stdout and returns None when the report
    matches the planted answer, or a one-line reason when it does not.
    ``props`` holds the input properties reported per workload and used as
    the keys of the scaling curves.
    """

    name: str
    command: str
    text: str
    check: Callable[[str], Optional[str]]
    flags: tuple[str, ...] = ()
    props: dict = field(default_factory=dict)


def report_fields(out: str) -> dict[str, str]:
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


def expect(pairs: dict[str, str], wanted: dict[str, str]) -> Optional[str]:
    for key, value in wanted.items():
        got = pairs.get(key)
        if got != value:
            return f"{key}: expected {value!r}, got {got!r}"
    return None


def field_name(p: Optional[int]) -> str:
    return "Q" if p is None else f"F{p}"


def scalar_text(value, p: Optional[int]) -> str:
    if p is not None:
        return str(value % p)
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def join_terms(parts: list[tuple[bool, str]]) -> str:
    out = []
    for i, (negative, body) in enumerate(parts):
        if i == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


def signed(value, p: Optional[int]) -> tuple[bool, str]:
    if p is not None:
        return False, str(value % p)
    return value < 0, scalar_text(abs(value), None)


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: int}
# ---------------------------------------------------------------------------


def lp_mul(a: dict, b: dict, p: Optional[int]) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c % p if p else c for e, c in out.items() if (c % p if p else c)}


def lp_add(a: dict, b: dict, p: Optional[int]) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c % p if p else c for e, c in out.items() if (c % p if p else c)}


def lmat_mul(a, b, p):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = lp_add(acc, lp_mul(a[i][k], b[k][j], p), p)
            row.append(acc)
        out.append(row)
    return out


def laurent_text(poly: dict, p: Optional[int]) -> str:
    if not poly:
        return "0"
    parts = []
    for exp in sorted(poly, reverse=True):
        negative, body = signed(poly[exp], p)
        parts.append((negative, f"{body}*t^{exp}"))
    return join_terms(parts)


def lmatrix_text(rows, p) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(laurent_text(e, p) for e in row) + "]" for row in rows) + "]"


def unimodular(rng: random.Random, n: int, factors: int, sign: int, p) -> list:
    """Product of elementary matrices I + c*t^(sign*e)*E_ij, c = +-1.

    Factors alternate between e = 0 and e = 1, so every document of one rank
    carries the same exponent budget and only the placement is random.
    """
    out = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
    for k in range(factors if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        # adding a multiple of column i to column j of the running product
        c = rng.choice([-1, 1])
        e = sign * (k % 2)
        for r in range(n):
            if out[r][i]:
                out[r][j] = lp_add(out[r][j], lp_mul(out[r][i], {e: c}, p), p)
    return out


def h0_formula(degrees, twist: int) -> int:
    return sum(max(0, d + twist + 1) for d in degrees)


def laurent_doc(rows, p) -> str:
    return (f"kind = laurent_matrix\nfield = {field_name(p)}\n"
            f"matrix = {lmatrix_text(rows, p)}\n")


def planted_bundle(rng, n, degrees, p, dense: bool):
    """g = A * D * B with D = diag(t^-d_i), A over k[1/t], B over k[t]."""
    d = [[{-degrees[i]: 1} if i == j else {} for j in range(n)] for i in range(n)]
    if not dense:
        return d
    a = unimodular(rng, n, 2 * n, -1, p)
    b = unimodular(rng, n, 2 * n, +1, p)
    return lmat_mul(lmat_mul(a, d, p), b, p)


def span_of(rows) -> int:
    exps = [e for row in rows for entry in row for e in entry]
    return max(exps) - min(exps)


def dense_span(n: int) -> int:
    return min(n + 2, 8)


def classify_check(degrees, window):
    stype = sorted(degrees, reverse=True)
    wanted = {
        "splitting type": "(" + ", ".join(str(x) for x in stype) + ")",
        "determinant": f"1 * t^{-sum(degrees)}",
        "degree check": "yes",
        "factorization exact": "yes",
        "h0 oracle agreement": "yes",
    }
    for m in range(-window, window + 1):
        wanted[f"h0 twist {m}"] = str(h0_formula(degrees, m))
    return lambda out: expect(report_fields(out), wanted)


def birkhoff_check(degrees):
    def check(out):
        pairs = report_fields(out)
        bad = expect(pairs, {"exact": "yes"})
        if bad:
            return bad
        got = sorted(-int(k) for k in pairs.get("exponents", "").split(", ") if k)
        if got != sorted(degrees):
            return f"exponents give {got}, planted {sorted(degrees)}"
        return None
    return check


FIELDS = (None, 5, P_LARGE)


def p1_doc(rng, kind: str, n: int, p) -> Doc:
    if kind == "diag":
        degrees = [rng.randint(-5, 5) for _ in range(n)]
        rows = planted_bundle(rng, n, degrees, p, dense=False)
        command, flags, check = "classify-p1", ("--verify", "--twist-window", "6"), \
            classify_check(degrees, 6)
    else:
        # the h0 system grows with the exponent span, so each rank is drawn
        # at one span near its most common value: the seed then moves the
        # entries, not the size of the work
        while True:
            degrees = [rng.randint(-2, 2) for _ in range(n)]
            rows = planted_bundle(rng, n, degrees, p, dense=True)
            if span_of(rows) == dense_span(n):
                break
        if kind == "dense":
            command, flags, check = "classify-p1", ("--verify",), classify_check(degrees, 3)
        else:
            command, flags, check = "birkhoff", (), birkhoff_check(degrees)
    return Doc(name=f"p1-{kind}", command=command, flags=flags,
               text=laurent_doc(rows, p), check=check,
               props={"rank": n, "field": field_name(p), "span": span_of(rows)})


# ---------------------------------------------------------------------------
# Graded modules, filtered modules, finite-dimensional algebras
# ---------------------------------------------------------------------------


def poly_text(terms: dict, variables, p) -> str:
    """terms: {exponent tuple: coefficient}, printed in descending order."""
    terms = {m: c for m, c in terms.items() if (c % p if p else c)}
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms, reverse=True):
        negative, body = signed(terms[mono], p)
        factors = [f"{variables[i]}^{e}" for i, e in enumerate(mono) if e]
        parts.append((negative, "*".join([body] + factors)))
    return join_terms(parts)


def monomials(degrees, target: int):
    """Exponent tuples of weighted degree `target` (all degrees positive)."""
    if not degrees:
        return [()] if target == 0 else []
    out = []
    for e in range(target // degrees[0] + 1):
        for rest in monomials(degrees[1:], target - e * degrees[0]):
            out.append((e,) + rest)
    return out


def unit_triangular_product(n, draw, mul, add, one, zero):
    """L * U with unit diagonals and entries from `draw`: invertible."""
    lower = [[one if i == j else (draw() if i > j else zero) for j in range(n)]
             for i in range(n)]
    upper = [[one if i == j else (draw() if i < j else zero) for j in range(n)]
             for i in range(n)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = add(acc, mul(lower[i][k], upper[k][j]))
            row.append(acc)
        out.append(row)
    return out


def graded_module_text(p, variables, degrees, gens, columns, extra=()) -> str:
    lines = ["kind = graded_module", f"field = {field_name(p)}",
             f"variables = {', '.join(variables)}",
             f"degrees = {', '.join(map(str, degrees))}",
             f"generators = {', '.join(map(str, gens))}"]
    for col in columns:
        lines.append("module_relation = [" + ", ".join(
            poly_text(e, variables, p) for e in col) + "]")
    return "\n".join(lines + list(extra)) + "\n"


def nakayama_doc(rng, planted_zero: bool, count: int, p) -> Doc:
    variables = ("x", "y", "z")
    degrees = (1, 2, 3)
    gens = sorted(rng.randint(0, 3) for _ in range(count))
    coeffs = [-2, -1, 1, 2] if p is None else [1, 2, 3, 4]

    def random_column(delta, diagonal=None):
        col = []
        for k, m in enumerate(gens):
            choices = monomials(degrees, delta - m) if delta >= m else []
            if k == diagonal:
                col.append({(0, 0, 0): rng.choice(coeffs)})
            elif choices and (diagonal is None or k < diagonal) and rng.random() < 0.7:
                col.append({rng.choice(choices): rng.choice(coeffs)})
            else:
                col.append({})
        return col

    if planted_zero:
        # one column per generator with a unit on it and entries only on
        # earlier generators: a triangular presentation of the zero module
        columns = [random_column(m, diagonal=j) for j, m in enumerate(gens)]
        columns += [random_column(rng.randint(0, 4)) for _ in range(rng.randint(0, 2))]
        wanted = {"module is zero": "yes", "witness order": str(count),
                  "unit constant": "1"}
    else:
        columns = [random_column(rng.randint(0, 4)) for _ in range(rng.randint(0, count + 2))]
        wanted = {}
    # an all-zero relation column has no degree and makes the CLI raise a
    # TypeError; the workload keeps to inputs on which no operation fails
    columns = [c for c in columns if any(c)]
    wanted[f"component enumeration up to degree {max(gens) + 5}"] = "agrees"
    rng.shuffle(columns)
    return Doc(name="nakayama-zero" if planted_zero else "nakayama-random",
               command="nakayama", flags=("--verify",),
               text=graded_module_text(p, variables, degrees, gens, columns),
               check=lambda out: expect(report_fields(out), wanted),
               props={"kind": "graded_module", "size": count, "field": field_name(p)})


def lift_map_doc(rng, count: int, p) -> Doc:
    variables = ("x", "y")
    degrees = (1, 2)
    gens = sorted(rng.randint(0, 2) for _ in range(count))
    q = len(gens)
    matrix = [[0] * q for _ in range(q)]
    for degree in sorted(set(gens)):
        idx = [j for j, m in enumerate(gens) if m == degree]
        block = unit_triangular_product(
            len(idx), lambda: rng.randint(-2, 2), lambda a, b: a * b,
            lambda a, b: a + b, 1, 0)
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                matrix[i][j] = block[a][b]
    body = "[" + ", ".join(
        "[" + ", ".join(scalar_text(v, p) for v in row) + "]" for row in matrix) + "]"
    text = graded_module_text(p, variables, degrees, gens, [], extra=(
        f"target_generators = {', '.join(map(str, gens))}", f"matrix = {body}"))
    wanted = {"reduction is bijective": "yes", "lift is isomorphism": "yes"}
    return Doc(name="lift-map", command="lift-map", text=text,
               check=lambda out: expect(report_fields(out), wanted),
               props={"kind": "graded_module", "size": q, "field": field_name(p)})


def eps_text(value, p) -> str:
    parts = []
    for j, c in enumerate(value):
        if c % p if p else c:
            negative, body = signed(c, p)
            parts.append((negative, body if j == 0 else f"{body}*e^{j}"))
    return join_terms(parts) if parts else "0"


def eps_mul(order):
    def mul(a, b):
        out = [0] * order
        for i, x in enumerate(a):
            for j, y in enumerate(b[:order - i]):
                out[i + j] += x * y
        return tuple(out)
    return mul


def filtered_doc(rng, command: str, top: int, order: int, p) -> Doc:
    steps = 1 + top % 3
    lo = rng.randint(-2, 1)
    # evenly spaced rank jumps: the size of the work is fixed by top and order
    ranks = [max(1, round(top * (i + 1) / (steps + 1))) for i in range(steps)] + [top]
    zero, one = (0,) * order, (1,) + (0,) * (order - 1)
    mul = eps_mul(order)
    add = lambda a, b: tuple(x + y for x, y in zip(a, b))
    draw = lambda: tuple(rng.randint(-1, 1) for _ in range(order))
    lines = ["kind = filtered_module", f"field = {field_name(p)}"]
    if order != 1:
        lines.append(f"epsilon_power = {order}")
    lines += [f"window = {lo}, {lo + steps}", f"ranks = {', '.join(map(str, ranks))}"]
    for step in range(steps):
        a, b = ranks[step], ranks[step + 1]
        # a random invertible b x b matrix applied to the inclusion of the first a
        # coordinates is a split injection
        square = unit_triangular_product(b, draw, mul, add, one, zero)
        body = "[" + ", ".join(
            "[" + ", ".join(eps_text(square[i][j], p) for j in range(a)) + "]"
            for i in range(b)) + "]"
        lines.append(f"map {lo + step} = {body}")
    jumps = {}
    previous = 0
    for offset, rank in enumerate(ranks):
        if rank != previous:
            jumps[lo + offset] = rank - previous
        previous = rank
    graded = "{" + ", ".join(f"{d}: {r}" for d, r in sorted(jumps.items())) + "}"
    stype = [d for d, r in sorted(jumps.items(), reverse=True) for _ in range(r)]
    if command == "split-filtration":
        flags = ("--verify",)
        wanted = {"graded ranks": graded, "exact": "yes",
                  "splitting type": "(" + ", ".join(map(str, stype)) + ")"}
    else:
        flags = ()
        wanted = {"graded ranks": graded, "total rank": str(top)}
    return Doc(name=command, command=command, flags=flags, text="\n".join(lines) + "\n",
               check=lambda out: expect(report_fields(out), wanted),
               props={"kind": "filtered_module", "size": top, "field": field_name(p)})


def upoly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


def upoly_mod(a, f, p):
    """Remainder of a modulo the monic polynomial f (coefficient lists, low first)."""
    a = list(a)
    d = len(f) - 1
    for top in range(len(a) - 1, d - 1, -1):
        lead = a[top]
        if lead:
            for i in range(d + 1):
                a[top - d + i] -= lead * f[i]
    a = a[:d] + [0] * (d - len(a))
    return [c % p for c in a] if p else a


def upoly_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc % p if p else acc


def upoly_text(coeffs, p) -> str:
    return poly_text({(i,): c for i, c in enumerate(coeffs)}, ("x",), p)


def interpolate(points, values, p):
    """Lagrange interpolant through (points, values), coefficients low first."""
    total = [0] * len(points)
    for i, (xi, yi) in enumerate(zip(points, values)):
        if not yi:
            continue
        basis, denom = [1], 1
        for j, xj in enumerate(points):
            if j != i:
                basis = upoly_mul(basis, [-xj, 1], p)
                denom *= xi - xj
        scale = Fraction(yi, denom) if p is None else yi * pow(denom, -1, p)
        for k, c in enumerate(basis):
            total[k] += scale * c
    return [c % p for c in total] if p else total


def parse_scalar_list(text: str, p):
    items = [s for s in text.strip("[]").split(", ") if s]
    return [int(s) % p for s in items] if p else [Fraction(s) for s in items]


def findim_doc(rng, command: str, dim: int, p) -> Doc:
    # a fixed root count per dimension, and nonzero roots: a root at 0 makes
    # powers of x vanish early, which would let the seed rather than the
    # dimension set a document's cost
    count = 1 + dim % 3
    roots = rng.sample([-3, -2, -1, 1, 2, 3], count)
    mult = [1] * count
    for _ in range(dim - count):
        mult[rng.randrange(count)] += 1
    quotient, radical = [1], [1]
    for a, m in zip(roots, mult):
        radical = upoly_mul(radical, [-a, 1], p)
        for _ in range(m):
            quotient = upoly_mul(quotient, [-a, 1], p)
    lines = ["kind = findim_algebra", f"field = {field_name(p)}",
             f"quotient = {upoly_text(quotient, p)}",
             f"ideal = [{upoly_text(radical, p)}]"]
    props = {"kind": "findim_algebra", "size": dim, "field": field_name(p)}
    if command == "hensel-check":
        wanted = {"dimension": str(dim), "radical dimension": str(dim - count),
                  "henselian pair": "yes"}
        return Doc(name=command, command=command, text="\n".join(lines) + "\n",
                   check=lambda out: expect(report_fields(out), wanted), props=props)
    chosen = [rng.randint(0, 1) for _ in roots]
    candidate = interpolate(roots, chosen, p)
    lines.append(f"idempotent = {upoly_text(candidate, p)}")

    def check(out):
        pairs = report_fields(out)
        bad = expect(pairs, {"exact": "yes"})
        if bad:
            return bad
        e = parse_scalar_list(pairs.get("idempotent", ""), p)
        if len(e) != dim:
            return f"idempotent has {len(e)} coordinates, expected {dim}"
        if upoly_mod(upoly_mul(e, e, p), quotient, p) != upoly_mod(e, quotient, p):
            return "e^2 != e modulo the quotient"
        if [upoly_eval(e, a, p) for a in roots] != chosen:
            return "lift leaves the residue class of the candidate"
        return None
    return Doc(name=command, command=command, text="\n".join(lines) + "\n",
               check=check, props=props)


# ---------------------------------------------------------------------------
# Finite posets
# ---------------------------------------------------------------------------


def closure(n: int, rels) -> list[list[bool]]:
    leq = [[i == j for j in range(n)] for i in range(n)]
    for x, y in rels:
        leq[x][y] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def components(n: int, rels) -> list[frozenset]:
    """Connected components by union-find over the generating pairs."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in rels:
        parent[find(x)] = find(y)
    groups: dict[int, set] = {}
    for x in range(n):
        groups.setdefault(find(x), set()).add(x)
    return [frozenset(g) for g in groups.values()]


def random_poset(rng, n: int, density: float):
    """Generating pairs i<j for i < j: the labels are a linear extension."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density)


def relabel(rng, n, rels):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple((perm[x], perm[y]) for x, y in rels)


def poset_text(n, rels) -> str:
    return "\n".join([f"kind = poset", f"n = {n}"] + [f"rel = {x}<{y}" for x, y in rels]) + "\n"


def poset_key(n, rels):
    leq = closure(n, rels)
    return n, tuple(tuple(row) for row in leq)


def lemma_b2_doc(rng, seen: set) -> Doc:
    while True:
        n = rng.randint(6, 10)
        rels = relabel(rng, n, random_poset(rng, n, 0.3))
        key = poset_key(n, rels)
        if key not in seen:
            seen.add(key)
            break
    return Doc(name="lemma-b2", command="lemma-b2", text=poset_text(n, rels),
               check=lambda out: expect(report_fields(out), {"bijections hold": "yes"}),
               props={"kind": "poset", "size": n, "key": key})


def union_doc(rng, command: str) -> Doc:
    count = rng.randint(1, 10)
    rels, n = [], 0
    for _ in range(count):
        size = rng.randint(1, 3)
        # a chain, or a vee below / above the first point: always connected
        shape = rng.choice(["chain", "vee"])
        if shape == "chain" or size < 3:
            rels += [(n + i, n + i + 1) for i in range(size - 1)]
        else:
            rels += [(n + 1, n), (n + 2, n)]
        n += size
    rels = relabel(rng, n, rels)
    parts = components(n, rels)
    if command == "pi0":
        def check(out):
            pairs = report_fields(out)
            bad = expect(pairs, {"components": str(len(parts))})
            if bad:
                return bad
            got = {frozenset(int(v) for v in pairs.get(f"component {i}", "{}").strip("{}")
                             .split(", ") if v) for i in range(len(parts))}
            return None if got == set(parts) else "components differ from union-find"
    else:
        def check(out):
            pairs = report_fields(out)
            bad = expect(pairs, {"count": str(2 ** len(parts))})
            if bad:
                return bad
            lines = sum(1 for key in pairs if key.startswith("clopen "))
            return None if lines == 2 ** len(parts) else f"{lines} clopen lines"
    return Doc(name=command, command=command, text=poset_text(n, rels), check=check,
               props={"kind": "poset", "size": n, "components": len(parts)})


def map_text(sn, srels, tn, trels, mapping) -> str:
    lines = ["kind = monotone_map", f"source_n = {sn}"]
    lines += [f"source_rel = {x}<{y}" for x, y in srels]
    lines.append(f"target_n = {tn}")
    lines += [f"target_rel = {x}<{y}" for x, y in trels]
    lines.append(f"map = {', '.join(map(str, mapping))}")
    return "\n".join(lines) + "\n"


def monotone_map(rng, sn, srels, tn, trels):
    """A random specialization-preserving map, built in linear-extension order."""
    sleq, tleq = closure(sn, srels), closure(tn, trels)
    for _ in range(50):
        mapping = []
        for y in range(sn):
            options = [t for t in range(tn)
                       if all(tleq[mapping[x]][t] for x in range(y) if sleq[x][y])]
            if not options:
                break
            mapping.append(rng.choice(options))
        else:
            return mapping
    return [0] * sn


def prop_b3_doc(rng, pool) -> Doc:
    (sn, srels), (tn, trels) = rng.choice(pool), rng.choice(pool)
    if rng.random() < 0.3:
        (tn, trels), mapping = (sn, srels), list(range(sn))
    else:
        mapping = monotone_map(rng, sn, srels, tn, trels)
    src, tgt = components(sn, srels), components(tn, trels)
    index = {x: i for i, part in enumerate(tgt) for x in part}
    induced = [index[mapping[min(part)]] for part in src]
    bijective = "yes" if sorted(induced) == list(range(len(tgt))) else "no"
    wanted = {"clopen bijection": bijective, "pi0 bijective": bijective,
              "pi0 homeomorphism": bijective, "equivalence holds": "yes"}
    return Doc(name="prop-b3", command="prop-b3",
               text=map_text(sn, srels, tn, trels, mapping),
               check=lambda out: expect(report_fields(out), wanted),
               props={"kind": "monotone_map", "size": max(sn, tn),
                      "key": (poset_key(sn, srels), poset_key(tn, trels))})


def homeo_doc(rng) -> Doc:
    sn = rng.randint(3, 7)
    if rng.random() < 0.5:
        tn, mapping = sn, rng.sample(range(sn), sn)
    else:
        tn = rng.randint(3, 7)
        mapping = [rng.randrange(tn) for _ in range(sn)]
    verdict = "yes" if sn == tn and len(set(mapping)) == sn else "no"
    return Doc(name="homeo-check", command="homeo-check",
               text=map_text(sn, (), tn, (), mapping),
               check=lambda out: expect(report_fields(out), {"homeomorphism": verdict}),
               props={"kind": "monotone_map", "size": max(sn, tn),
                      "key": (poset_key(sn, ()), poset_key(tn, ()))})


def splitting_type_doc(rng) -> Doc:
    degrees = sorted((rng.randint(-3, 3) for _ in range(rng.randint(1, 4))), reverse=True)
    n = len(degrees)
    rows = [[{-degrees[i]: 1} if i == j else {} for j in range(n)] for i in range(n)]
    wanted = {"kind": "laurent_matrix", "field": "Q", "matrix": lmatrix_text(rows, None)}
    return Doc(name="cochar-to-bundle", command="cochar-to-bundle",
               text=f"kind = splitting_type\ndegrees = {', '.join(map(str, degrees))}\n",
               check=lambda out: expect(report_fields(out), wanted),
               props={"kind": "splitting_type", "size": n})


def h0_doc(rng) -> Doc:
    degrees = [rng.randint(-3, 3) for _ in range(3)]
    rows = planted_bundle(rng, 3, degrees, None, dense=False)
    wanted = {"rank": "3"}
    for m in range(-3, 4):
        wanted[f"h0 twist {m}"] = str(h0_formula(degrees, m))
    return Doc(name="h0", command="h0", text=laurent_doc(rows, None),
               check=lambda out: expect(report_fields(out), wanted),
               props={"kind": "laurent_matrix", "size": 3})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def interleave(strata: list[list[Doc]]) -> list[Doc]:
    """Spread every stratum evenly over the pass, so that any stretch of the
    pass carries roughly the workload's mix."""
    keyed = [((i + 0.5) / len(docs), s, doc)
             for s, docs in enumerate(strata) for i, doc in enumerate(docs)]
    return [doc for _, _, doc in sorted(keyed, key=lambda k: (k[0], k[1]))]


# Slice -> ranks per pass; each entry runs once over each of Q, F5 and
# F_{2^31-1}, with its own random content.  The 90th percentile falls in the
# middle of the rank-3 dense and rank-8 birkhoff documents, which cost about
# the same, so those are many: a percentile taken where documents of very
# different cost meet would move with every seed.
P1_MIX = {
    "diag": [1, 2, 3, 4] * 10,
    "dense": [2, 2] + [3] * 8 + [4, 4],
    "birkhoff": [8, 8, 8, 9],
}


def p1_workload(rng) -> list[Doc]:
    strata = []
    for kind, ranks in P1_MIX.items():
        for n in sorted(set(ranks)):
            strata.append([p1_doc(rng, kind, n, p)
                           for _ in range(ranks.count(n)) for p in FIELDS])
    return interleave(strata)


# cheap documents run CHEAP_ROUNDS times per size and field, each time with
# fresh content, so that the percentiles rest on many documents
CHEAP_ROUNDS = 4
# Splitting over k[e]/(e^3) costs about 2 s at top rank 11 over Q, and
# hensel-check over F_(2^31-1) about 2.5 s at dimension 10: documents that
# large would carry a run on their own.  The truncation order falls as the
# top rank grows, and the large prime field stops at dimension 8.
FINDIM_FP_MAX = 8


def eps_order(top: int) -> int:
    return 3 if top <= 6 else 2 if top <= 9 else 1


def algebra_workload(rng) -> list[Doc]:
    """Sizes and fields are fixed per pass; the seed draws the content."""
    fields, rounds = (None, 5), range(CHEAP_ROUNDS)
    strata = [
        [nakayama_doc(rng, True, n, p)
         for _ in rounds for n in (2, 3, 4, 5) for p in fields],
        [nakayama_doc(rng, False, n, p)
         for _ in rounds for n in (2, 3, 4, 5) for p in fields],
        [lift_map_doc(rng, n, p) for _ in rounds for n in (2, 3, 4, 5, 6) for p in fields],
        [filtered_doc(rng, "assoc-graded", top, eps_order(top), p)
         for _ in rounds for top in range(4, 13) for p in fields],
        [filtered_doc(rng, "split-filtration", top, eps_order(top), p)
         for top in range(4, 13) for p in fields],
    ]
    for command in ("hensel-check", "lift-idempotent"):
        strata.append([findim_doc(rng, command, dim, p)
                       for dim in range(4, 11) for p in (None, P_LARGE)
                       if p is None or dim <= FINDIM_FP_MAX])
    return interleave(strata)


SPECTRAL_MIX = {"lemma-b2": 204, "prop-b3": 687, "homeo-check": 343, "pi0": 343,
                "clopen": 343}
POOL_SIZE = 6


def spectral_workload(rng) -> list[Doc]:
    pool = []
    for _ in range(POOL_SIZE):
        n = rng.randint(3, 7)
        pool.append((n, random_poset(rng, n, 0.4)))
    seen: set = set()
    strata = []
    for name, count in SPECTRAL_MIX.items():
        if name == "lemma-b2":
            docs = [lemma_b2_doc(rng, seen) for _ in range(count)]
        elif name == "prop-b3":
            docs = [prop_b3_doc(rng, pool) for _ in range(count)]
        elif name == "homeo-check":
            docs = [homeo_doc(rng) for _ in range(count)]
        else:
            docs = [union_doc(rng, name) for _ in range(count)]
        strata.append(docs)
    return interleave(strata)


def one_per_command(rng) -> list[Doc]:
    """One small document for each of the fifteen CLI commands."""
    pool = [(n, random_poset(rng, n, 0.4)) for n in (3, 4, 5)]
    return [
        p1_doc(rng, "dense", 2, None),
        p1_doc(rng, "birkhoff", 2, 5),
        splitting_type_doc(rng),
        h0_doc(rng),
        filtered_doc(rng, "split-filtration", 5, 2, None),
        filtered_doc(rng, "assoc-graded", 5, 1, 5),
        nakayama_doc(rng, True, 3, None),
        lift_map_doc(rng, 3, 5),
        findim_doc(rng, "hensel-check", 5, None),
        findim_doc(rng, "lift-idempotent", 5, P_LARGE),
        union_doc(rng, "pi0"),
        union_doc(rng, "clopen"),
        lemma_b2_doc(rng, set()),
        prop_b3_doc(rng, pool),
        homeo_doc(rng),
    ]


WORKLOADS = {
    "p1": p1_workload,
    "algebra": algebra_workload,
    "spectral": spectral_workload,
}
