"""Sparse multivariate polynomials over arbitrary-precision integers.

A polynomial is stored as a map from exponent tuples to nonzero integer
coefficients, together with a sorted tuple of variable names.  Variables
that occur in no term are pruned, and variable lists of two operands are
merged by name, so polynomials built independently compose safely and
equal polynomials compare equal structurally.

Also provides truncated power series in a distinguished variable ``t``
with MultiPoly coefficients, including exact expansion of rational
functions whose denominator has unit constant term.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]


class NonUnitDenominatorError(ValueError):
    """Denominator constant term is not +1 or -1."""


def _canonicalize(
    variables: Sequence[str], terms: Mapping[Exponent, int]
) -> Tuple[Tuple[str, ...], Dict[Exponent, int]]:
    """Drop zero coefficients, prune unused variables, sort variables."""
    clean = {exp: c for exp, c in terms.items() if c != 0}
    if not clean:
        return (), {}
    nvars = len(variables)
    used = [any(exp[i] != 0 for exp in clean) for i in range(nvars)]
    kept = [i for i in range(nvars) if used[i]]
    names = [variables[i] for i in kept]
    order = sorted(range(len(names)), key=lambda j: names[j])
    final_vars = tuple(names[j] for j in order)
    reindex = [kept[j] for j in order]
    final_terms = {tuple(exp[i] for i in reindex): c for exp, c in clean.items()}
    return final_vars, final_terms


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, int]):
        v, t = _canonicalize(tuple(variables), dict(terms))
        object.__setattr__(self, "vars", v)
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(c: int) -> "MultiPoly":
        return MultiPoly((), {(): int(c)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): 1})

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

        def remap(p: "MultiPoly") -> Dict[Exponent, int]:
            pos = [merged.index(v) for v in p.vars]
            out: Dict[Exponent, int] = {}
            for exp, c in p.terms.items():
                new = [0] * len(merged)
                for i, e in zip(pos, exp):
                    new[i] = e
                out[tuple(new)] = c
            return out

        return merged, remap(self), remap(other)

    @staticmethod
    def _coerce(value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, int):
            return MultiPoly.const(value)
        raise TypeError(f"cannot treat {value!r} as a polynomial")

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        merged, a, b = self._aligned(other)
        out = dict(a)
        for exp, c in b.items():
            out[exp] = out.get(exp, 0) + c
        return MultiPoly(merged, out)

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
        out: Dict[Exponent, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return MultiPoly(merged, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- substitution --------------------------------------------------

    def specialize(self, substitution: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Substitute a polynomial for every variable occurring in self.

        One pass over the terms: the images are put over one merged variable
        list, the powers of each image are computed once and kept, and the
        result is canonicalized once, at the end.
        """
        missing = [v for v in self.vars if v not in substitution]
        if missing:
            raise KeyError(f"no substitution for variables {missing}")
        subs = [self._coerce(substitution[v]) for v in self.vars]
        names = sorted({v for s in subs for v in s.vars})
        position = {v: k for k, v in enumerate(names)}
        const_exp = (0,) * len(names)

        def remap(p: "MultiPoly") -> Dict[Exponent, int]:
            pos = [position[v] for v in p.vars]
            out: Dict[Exponent, int] = {}
            for exp, c in p.terms.items():
                new = list(const_exp)
                for k, e in zip(pos, exp):
                    new[k] = e
                out[tuple(new)] = c
            return out

        def times(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> Dict[Exponent, int]:
            out: Dict[Exponent, int] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    exp = tuple(x + y for x, y in zip(e1, e2))
                    out[exp] = out.get(exp, 0) + c1 * c2
            return out

        # powers[k][e - 1] is the e-th power of the k-th image
        powers = [[remap(s)] for s in subs]
        total: Dict[Exponent, int] = {}
        for exp, c in self.terms.items():
            term = {const_exp: c}
            for k, e in enumerate(exp):
                if e:
                    cached = powers[k]
                    while len(cached) < e:
                        cached.append(times(cached[-1], cached[0]))
                    term = times(term, cached[e - 1])
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
        h = object.__getattribute__(self, "_hash")
        if h is None:
            if self.vars:
                h = hash((self.vars, frozenset(self.terms.items())))
            else:
                # constants hash like the ints they compare equal to
                h = hash(self.terms.get((), 0))
            object.__setattr__(self, "_hash", h)
        return h

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
