"""Exact synthesis of D[omega] unitaries into Clifford+T words.

Any exactly-representable unitary (entries in Z[omega] / sqrt(2)^k) is a
Clifford+T circuit; this module recovers a word of near-minimal T count
by driving the denominator exponent (sde) to zero (Kliuchnikov-Maslov-
Mosca 2012 / Giles-Selinger style column reduction):

    U = T^{m_1} H  .  T^{m_2} H  .  ...  .  C

At each step the algorithm searches the eight syllables ``T^m H`` for
one whose inverse application reduces the sde, with a depth-first
fallback (visited-set memoized) for the residue classes where the sde
stalls for one step.  At sde 0 the matrix is a monomial phase matrix,
emitted as (optional) X and a T^m power; global phase is discarded.

Each step scores the eight syllables on the first column alone: for a
unitary over D[omega] the second column is a unit multiple of the
conjugated first, so the column sde equals the matrix sde.  The chosen
syllable's first column is reused and only its second column is formed
(raising if it does not share the first column's sde).  The sde never
rises along the walk and a phase key starts with the sde, so the visited
matrices are keyed up to phase only at a step where the sde stalls, and
only those stepped from at the current sde, once there are three of them
(a shorter stall walk can only step back by two H syllables).

The walk runs on plain ints: a Z[omega] element ``a w^3 + b w^2 + c w +
d`` is the tuple ``(a, b, c, d)`` and a matrix is its four entries
``(z00, z01, z10, z11)`` over ``sqrt(2)^k``.  The output is verified
exactly (up to global phase) by multiplying the emitted tokens before
returning, so a successful return is mathematically correct, not
float-correct.
"""

from __future__ import annotations

from repro.gates.exact import ExactUnitary

_ZERO = (0, 0, 0, 0)
_ONE = (0, 0, 0, 1)


class ExactSynthesisError(RuntimeError):
    """The reduction failed — the input was not a D[omega] unitary."""


def t_power_tokens(m: int) -> list[str]:
    """Minimal token list for the diagonal phase gate T^m (m mod 8)."""
    m %= 8
    tokens = []
    if m >= 4:
        tokens.append("Z")
        m -= 4
    if m >= 2:
        tokens.append("S")
        m -= 2
    if m:
        tokens.append("T")
    return tokens


# -- Z[omega] on int tuples ---------------------------------------------------
def _mul(x: tuple, y: tuple) -> tuple:
    """Product in Z[omega] (polynomial product modulo w^4 = -1)."""
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * h + b * g + c * f + d * e,
        b * h + c * g + d * f - a * e,
        c * h + d * g - a * f - b * e,
        d * h - a * g - b * f - c * e,
    )


def _conj(x: tuple) -> tuple:
    a, b, c, d = x
    return (-c, -b, -a, d)


def _rotate(x: tuple, j: int) -> tuple:
    """``x * w^j``: each factor of w maps (a, b, c, d) to (b, c, d, -a)."""
    a, b, c, d = x
    j %= 8
    return (a, b, c, d, -a, -b, -c, -d, a, b, c, d)[j:j + 4]


def _divisible(x: tuple) -> bool:
    return (x[0] + x[2]) % 2 == 0 and (x[1] + x[3]) % 2 == 0


def _div_sqrt2(x: tuple) -> tuple:
    """Exact ``x / sqrt(2) = x * sqrt(2) / 2`` for a divisible ``x``."""
    a, b, c, d = x
    return ((b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2)


_OMEGA_EXPONENT = {_rotate(_ONE, j): j for j in range(8)}


# -- matrices as (z00, z01, z10, z11), k ---------------------------------------
def _reduce(z: tuple, k: int) -> tuple[tuple, int]:
    """Divide out common sqrt(2) factors so ``k`` is minimal (the sde)."""
    while k > 0 and all(map(_divisible, z)):
        z = tuple(map(_div_sqrt2, z))
        k -= 1
    return z, k


def _phase_key(z: tuple, k: int) -> tuple:
    """``ExactUnitary.canonical_key`` of the reduced matrix ``z / sqrt(2)^k``.

    That key is the smallest of the eight phase rotations of the flat
    coefficient tuple.  The eight rotations of a nonzero entry are
    distinct, so the first nonzero entry alone picks the rotation.
    """
    lead = next((x for x in z if x != _ZERO), _ZERO)
    j = min((_rotate(lead, i), i) for i in range(8))[1]
    z00, z01, z10, z11 = (_rotate(x, j) for x in z)
    return (k,) + z00 + z01 + z10 + z11


def _is_unitary(z: tuple, k: int) -> bool:
    """Exact unitarity test: M^dag M == 2^k * I."""
    z00, z01, z10, z11 = z
    c00, c01, c10, c11 = map(_conj, z)
    two_k = (0, 0, 0, 2**k)

    def dot(x, y, v, w):
        return tuple(s + t for s, t in zip(_mul(x, y), _mul(v, w)))

    return (
        dot(c00, z00, c10, z10) == two_k
        and dot(c01, z01, c11, z11) == two_k
        and dot(c00, z01, c10, z11) == _ZERO
        and dot(c01, z00, c11, z10) == _ZERO
    )


_T_POWER = {"T": 1, "S": 2, "Z": 4}


def _word_matrix(tokens) -> tuple[tuple, int]:
    """Reduced product of ``tokens`` (matrix order, left to right).

    Right multiplication acts on the columns ``(z00, z10)`` and
    ``(z01, z11)``: H maps them to their sum and difference over one
    more factor of sqrt(2), X swaps them, and T^j multiplies the second
    by w^j.
    """
    z00, z01, z10, z11 = _ONE, _ZERO, _ZERO, _ONE
    k = 0
    for name in tokens:
        if name == "H":
            (a0, b0, c0, d0), (a1, b1, c1, d1) = z00, z01
            z00 = (a0 + a1, b0 + b1, c0 + c1, d0 + d1)
            z01 = (a0 - a1, b0 - b1, c0 - c1, d0 - d1)
            (a0, b0, c0, d0), (a1, b1, c1, d1) = z10, z11
            z10 = (a0 + a1, b0 + b1, c0 + c1, d0 + d1)
            z11 = (a0 - a1, b0 - b1, c0 - c1, d0 - d1)
            k += 1
        elif name == "X":
            z00, z01, z10, z11 = z01, z00, z11, z10
        else:
            j = _T_POWER[name]
            z01, z11 = _rotate(z01, j), _rotate(z11, j)
    return _reduce((z00, z01, z10, z11), k)


def _monomial_tokens(z: tuple) -> list[str]:
    """Tokens for an sde-0 unitary (always a phase-monomial matrix)."""
    z00, z01, z10, z11 = z
    if z00 != _ZERO:
        i = _OMEGA_EXPONENT.get(z00)
        j = _OMEGA_EXPONENT.get(z11)
        if i is None or j is None or z01 != _ZERO or z10 != _ZERO:
            raise ExactSynthesisError("sde-0 matrix is not monomial")
        return t_power_tokens(j - i)
    i = _OMEGA_EXPONENT.get(z01)
    j = _OMEGA_EXPONENT.get(z10)
    if i is None or j is None or z11 != _ZERO:
        raise ExactSynthesisError("sde-0 matrix is not monomial")
    # U = X . diag(w^j, w^i)
    return ["X"] + t_power_tokens(i - j)


# -- the sde walk ------------------------------------------------------------
def _syllable_columns(x: tuple, y: tuple, k: int) -> list[tuple]:
    """``(sde, p, q)`` of the first column of ``H . Tdg^m . M``, m = 0..7.

    ``H . Tdg^m`` maps the column ``(x, y)`` to ``(x + w^-m y, x - w^-m y)``
    over one more factor of sqrt(2); ``(p, q)`` is that column in lowest
    terms over ``sqrt(2)^sde``.  Multiplying by ``w^-1`` rotates the
    coefficients ``(a, b, c, d)`` to ``(-d, a, b, c)``.
    """
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    out = []
    for _ in range(8):
        pa, pb, pc, pd = xa + ya, xb + yb, xc + yc, xd + yd
        qa, qb, qc, qd = xa - ya, xb - yb, xc - yc, xd - yd
        s = k + 1
        # Divide both entries by sqrt(2) while they stay divisible.
        while (s > 0 and (pa + pc) % 2 == 0 and (pb + pd) % 2 == 0
               and (qa + qc) % 2 == 0 and (qb + qd) % 2 == 0):
            pa, pb, pc, pd = (pb - pd) // 2, (pa + pc) // 2, (pb + pd) // 2, (pc - pa) // 2
            qa, qb, qc, qd = (qb - qd) // 2, (qa + qc) // 2, (qb + qd) // 2, (qc - qa) // 2
            s -= 1
        out.append((s, (pa, pb, pc, pd), (qa, qb, qc, qd)))
        ya, yb, yc, yd = -yd, ya, yb, yc
    return out


def _second_column(x: tuple, y: tuple, m: int, n: int) -> tuple[tuple, tuple]:
    """``(x + w^-m y, x - w^-m y) / sqrt(2)^n``, the chosen syllable's column.

    ``n`` is the first column's division count; the matrix sde agrees
    with the column sde only when this column divides as often.
    """
    y = _rotate(y, -m)
    p = tuple(s + t for s, t in zip(x, y))
    q = tuple(s - t for s, t in zip(x, y))
    for _ in range(n):
        if not (_divisible(p) and _divisible(q)):
            raise ExactSynthesisError("column and matrix sde disagree")
        p, q = _div_sqrt2(p), _div_sqrt2(q)
    return p, q


def exact_synthesize(u: ExactUnitary, max_steps: int | None = None) -> list[str]:
    """Gate tokens (matrix order) whose product equals ``u`` up to phase."""
    z, k = _reduce(tuple((e.a, e.b, e.c, e.d) for e in u.entries()), u.k)
    if not _is_unitary(z, k):
        raise ExactSynthesisError("input matrix is not unitary")
    if max_steps is None:
        max_steps = 8 * k + 64
    target_key = _phase_key(z, k)

    tokens: list[str] = []
    # Matrices stepped from at the current sde; keyed up to phase only
    # when a step stalls with three or more of them.
    level: list[tuple] = []
    level_keys: set[tuple] = set()
    n_keyed = 0
    steps = 0
    prev_m = 0  # the syllable of the last step
    while k > 0:
        if steps > max_steps:
            raise ExactSynthesisError("sde reduction did not terminate")
        steps += 1
        level.append(z)
        z00, z01, z10, z11 = z
        cols = _syllable_columns(z00, z10, k)
        best_m = min(range(8), key=lambda m: cols[m][0])  # first minimal m
        sde, p, q = cols[best_m]
        if sde < k:
            r0, r1 = _second_column(z01, z11, best_m, k + 1 - sde)
            level, level_keys, n_keyed = [], set(), 0
        else:
            # Stall: take the first sde-preserving syllable that leads to
            # a matrix not stepped from before.  No H T^-m is a scalar and
            # (H T^-a)(H T^-b) is one only for a = b = 0, so a walk of one
            # matrix cannot revisit and one of two only by m = 0 after 0.
            keyed = len(level) > 2
            if keyed:
                level_keys.update(_phase_key(v, k) for v in level[n_keyed:])
                n_keyed = len(level)
            back = len(level) == 2 and prev_m == 0
            for m, (s, p, q) in enumerate(cols):
                if s != k or back and m == 0:
                    continue
                r0, r1 = _second_column(z01, z11, m, 1)
                if not keyed or _phase_key((p, r0, q, r1), k) not in level_keys:
                    best_m = m
                    break
            else:
                raise ExactSynthesisError("stuck: no syllable reduces the sde")
        # current = T^m H next
        prev_m = best_m
        tokens.extend(t_power_tokens(best_m))
        tokens.append("H")
        z, k = (p, r0, q, r1), sde
    tokens.extend(_monomial_tokens(z))

    if _phase_key(*_word_matrix(tokens)) != target_key:
        raise ExactSynthesisError("verification failed")
    return tokens
