"""Sparse multivariate polynomials over arbitrary-precision integers.

A polynomial is stored as a map from exponent tuples to nonzero integer
coefficients, together with a sorted tuple of variable names.  Variables
that occur in no term are pruned, and variable lists of two operands are
merged by name, so polynomials built independently compose safely and
equal polynomials compare equal structurally.  The canonical form is
re-derived only when the input is not already canonical: once its zero
coefficients are dropped, a term map over a sorted variable list in which
every variable occurs is kept as it is, and over the integers every product
of canonical operands is such a map.  Each kernel operation has one
implementation: the term product ``_times``, the exponent embedding
``embedded``, the substitution ``specialize`` and the sum ``MultiPoly.sum``,
which ``+`` and ``-`` call.

Also provides truncated power series in a distinguished variable ``t``
with MultiPoly coefficients, including exact expansion of rational
functions whose denominator has unit constant term.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]


class NonUnitDenominatorError(ValueError):
    """Denominator constant term is not +1 or -1."""


def _canonicalize(
    variables: Sequence[str], terms: Mapping[Exponent, int]
) -> Tuple[Tuple[str, ...], Dict[Exponent, int]]:
    """Drop zero coefficients, prune unused variables, sort variables.

    When every variable occurs and the list is already sorted, the cleaned
    map is returned as it is; only other inputs are pruned and re-indexed.
    """
    clean = {exp: c for exp, c in terms.items() if c != 0}
    if not clean:
        return (), {}
    nvars = len(variables)
    used = [any(exp[i] != 0 for exp in clean) for i in range(nvars)]
    if all(used) and all(a <= b for a, b in zip(variables, variables[1:])):
        return tuple(variables), clean
    kept = [i for i in range(nvars) if used[i]]
    names = [variables[i] for i in kept]
    order = sorted(range(len(names)), key=lambda j: names[j])
    final_vars = tuple(names[j] for j in order)
    reindex = [kept[j] for j in order]
    final_terms = {tuple(exp[i] for i in reindex): c for exp, c in clean.items()}
    return final_vars, final_terms


def _times(a: Mapping[Exponent, int], b: Mapping[Exponent, int]) -> Dict[Exponent, int]:
    """Product of two term maps over the same variable list."""
    out: Dict[Exponent, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return out


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, int]):
        v, t = _canonicalize(tuple(variables), terms)
        object.__setattr__(self, "vars", v)
        object.__setattr__(self, "terms", t)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(c: int) -> "MultiPoly":
        return MultiPoly((), {(): int(c)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

    @staticmethod
    def sum(polys: Iterable["MultiPoly | int"]) -> "MultiPoly":
        """Sum of the polynomials of an iterable, read once.

        The running variable list and term map start as a copy of the first
        polynomial's; the terms of each later one go into that map as they
        arrive, the map is re-indexed only when a polynomial brings a new
        variable, and the result is canonicalized once, at the end.
        """
        items = iter(polys)
        first = MultiPoly._coerce(next(items, 0))
        names, total = first.vars, dict(first.terms)
        for p in items:
            p = MultiPoly._coerce(p)
            terms = p.terms
            if p.vars != names:
                if not set(p.vars) <= set(names):
                    widened = tuple(sorted(set(names) | set(p.vars)))
                    total = MultiPoly(names, total).embedded(widened)
                    names = widened
                terms = p.embedded(names)
            for exp, c in terms.items():
                total[exp] = total.get(exp, 0) + c
        return MultiPoly(names, total)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(exp) for exp in self.terms}
        return len(degrees) <= 1

    def constant_term(self) -> int:
        zero = (0,) * len(self.vars)
        return self.terms.get(zero, 0)

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other: "MultiPoly"):
        """Return (vars, terms_self, terms_other) over the merged variable list."""
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars)))
        return merged, self.embedded(merged), other.embedded(merged)

    def embedded(self, variables: Sequence[str]) -> Dict[Exponent, int]:
        """The terms, with exponents re-indexed onto a variable list that
        contains every variable of self."""
        pos = [variables.index(v) for v in self.vars]
        out: Dict[Exponent, int] = {}
        for exp, c in self.terms.items():
            new = [0] * len(variables)
            for i, e in zip(pos, exp):
                new[i] = e
            out[tuple(new)] = c
        return out

    @staticmethod
    def _coerce(value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, int):
            return MultiPoly.const(value)
        raise TypeError(f"cannot treat {value!r} as a polynomial")

    def __add__(self, other) -> "MultiPoly":
        return MultiPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        merged, a, b = self._aligned(other)
        return MultiPoly(merged, _times(a, b))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        if k == 0:
            return MultiPoly.const(1)
        # square-and-multiply, with no product by 1 and no square after the top bit
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- substitution --------------------------------------------------

    def specialize(self, substitution: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Substitute a polynomial for each variable the map names; every
        other variable stays as it is.

        A map that names none of the variables gives back self.  Otherwise
        one pass over the terms: the images are put over one merged variable
        list, the powers of each image are computed once and kept, and the
        result is canonicalized once, at the end.
        """
        if not any(v in substitution for v in self.vars):
            return self
        subs = [self._coerce(substitution.get(v, MultiPoly.var(v))) for v in self.vars]
        names = tuple(sorted({v for s in subs for v in s.vars}))
        const_exp = (0,) * len(names)
        # powers[k][e - 1] is the e-th power of the k-th image
        powers = [[s.embedded(names)] for s in subs]
        total: Dict[Exponent, int] = {}
        for exp, c in self.terms.items():
            term = {const_exp: c}
            for k, e in enumerate(exp):
                if e:
                    cached = powers[k]
                    while len(cached) < e:
                        cached.append(_times(cached[-1], cached[0]))
                    term = _times(term, cached[e - 1])
            for key, value in term.items():
                total[key] = total.get(key, 0) + value
        return MultiPoly(names, total)

    def coefficients_in(self, name: str) -> Dict[int, "MultiPoly"]:
        """Split into coefficients of powers of one variable."""
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: Dict[int, Dict[Exponent, int]] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            rexp = exp[:i] + exp[i + 1:]
            buckets.setdefault(k, {})[rexp] = c
        return {k: MultiPoly(rest, t) for k, t in buckets.items()}

    # -- comparison / formatting --------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        if self.vars:
            return hash((self.vars, frozenset(self.terms.items())))
        # constants hash like the ints they compare equal to
        return hash(self.terms.get((), 0))

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        )

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e != 0
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_string()})"


ZERO = MultiPoly.const(0)
ONE = MultiPoly.const(1)


class TruncSeries:
    """Power series in ``t`` truncated at a fixed order, with MultiPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence[MultiPoly]):
        if order < 0:
            raise ValueError("order must be non-negative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.order = order
        self.coeffs = tuple(MultiPoly._coerce(c) for c in coeffs)

    @staticmethod
    def from_rational(num: MultiPoly, den: MultiPoly, order: int) -> "TruncSeries":
        """Expand num/den in ``t`` to the given order; den must have constant
        term +-1."""
        n_by = num.coefficients_in("t")
        d_by = den.coefficients_in("t")
        d0 = d_by.get(0, ZERO)
        if d0.degree() > 0 or d0.constant_term() not in (1, -1):
            raise NonUnitDenominatorError(
                "denominator constant term must be +1 or -1"
            )
        unit = d0.constant_term()
        coeffs = []
        for k in range(order + 1):
            acc = n_by.get(k, ZERO)
            for i in range(1, k + 1):
                di = d_by.get(i)
                if di is not None:
                    acc = acc - di * coeffs[k - i]
            # dividing by +-1 is multiplication by the same unit
            coeffs.append(acc * unit)
        return TruncSeries(order, coeffs)
