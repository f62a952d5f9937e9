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
conjugated first, so the column sde equals the matrix sde.  Only the
chosen syllable's full product is formed, and the visited matrices are
keyed up to phase only at a step where the sde stalls.

The output is verified exactly (up to global phase) before returning,
so a successful return is mathematically correct, not float-correct.
"""

from __future__ import annotations

from repro.gates.exact import EXACT_GATES, ExactUnitary
from repro.rings.zomega import ZOmega

_H = EXACT_GATES["H"]
_TDG_POWERS: list[ExactUnitary] = []
_t = ExactUnitary.identity()
for _ in range(8):
    _TDG_POWERS.append(_t)
    _t = (_t @ EXACT_GATES["Tdg"]).reduce()
del _t
# The eight syllables H . Tdg^m whose inverses peel one T^m H off the left.
_SYLLABLES = tuple(_H @ tdg for tdg in _TDG_POWERS)


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


def _omega_exponent(z: ZOmega) -> int | None:
    for j in range(8):
        if z == ZOmega.omega_power(j):
            return j
    return None


def _monomial_tokens(u: ExactUnitary) -> list[str]:
    """Tokens for an sde-0 unitary (always a phase-monomial matrix)."""
    if not u.z00.is_zero():
        i = _omega_exponent(u.z00)
        j = _omega_exponent(u.z11)
        if i is None or j is None or not u.z01.is_zero() or not u.z10.is_zero():
            raise ExactSynthesisError("sde-0 matrix is not monomial")
        return t_power_tokens(j - i)
    i = _omega_exponent(u.z01)
    j = _omega_exponent(u.z10)
    if i is None or j is None or not u.z00.is_zero() or not u.z11.is_zero():
        raise ExactSynthesisError("sde-0 matrix is not monomial")
    # U = X . diag(w^j, w^i)
    return ["X"] + t_power_tokens(i - j)


def _coeffs(z: ZOmega) -> tuple[int, int, int, int]:
    return (z.a, z.b, z.c, z.d)


def _syllable_sdes(u: ExactUnitary) -> list[int]:
    """sde of ``H . Tdg^m . u`` for m = 0..7, read off the first column.

    ``H . Tdg^m`` maps the column ``(x, y)`` to ``(x + w^-m y, x - w^-m y)``
    over one more factor of sqrt(2).  Multiplying by ``w^-1`` rotates the
    coefficients ``(a, b, c, d)`` to ``(-d, a, b, c)``.
    """
    xa, xb, xc, xd = _coeffs(u.z00)
    ya, yb, yc, yd = _coeffs(u.z10)
    sdes = []
    for _ in range(8):
        p = [xa + ya, xb + yb, xc + yc, xd + yd]
        q = [xa - ya, xb - yb, xc - yc, xd - yd]
        k = u.k + 1
        # Divide both entries by sqrt(2) while they stay divisible.
        while (k > 0 and (p[0] + p[2]) % 2 == 0 and (p[1] + p[3]) % 2 == 0
               and (q[0] + q[2]) % 2 == 0 and (q[1] + q[3]) % 2 == 0):
            p = [(p[1] - p[3]) // 2, (p[0] + p[2]) // 2,
                 (p[1] + p[3]) // 2, (p[2] - p[0]) // 2]
            q = [(q[1] - q[3]) // 2, (q[0] + q[2]) // 2,
                 (q[1] + q[3]) // 2, (q[2] - q[0]) // 2]
            k -= 1
        sdes.append(k)
        ya, yb, yc, yd = -yd, ya, yb, yc
    return sdes


def _apply_syllable(m: int, u: ExactUnitary, sde: int) -> ExactUnitary:
    """``H . Tdg^m . u`` in lowest terms, checked against its column sde."""
    result = (_SYLLABLES[m] @ u).reduce()
    if result.k != sde:
        raise ExactSynthesisError("column and matrix sde disagree")
    return result


def exact_synthesize(u: ExactUnitary, max_steps: int | None = None) -> list[str]:
    """Gate tokens (matrix order) whose product equals ``u`` up to phase."""
    u = u.reduce()
    if not u.is_unitary():
        raise ExactSynthesisError("input matrix is not unitary")
    if max_steps is None:
        max_steps = 8 * u.k + 64

    tokens: list[str] = []
    # Every matrix stepped from; keyed up to phase only when a step stalls.
    visited: list[ExactUnitary] = []
    visited_keys: set[tuple] = set()
    n_keyed = 0
    current = u
    steps = 0
    while current.k > 0:
        if steps > max_steps:
            raise ExactSynthesisError("sde reduction did not terminate")
        steps += 1
        visited.append(current)
        sdes = _syllable_sdes(current)
        best_m = min(range(8), key=sdes.__getitem__)  # first minimal m
        if sdes[best_m] < current.k:
            best_next = _apply_syllable(best_m, current, sdes[best_m])
        else:
            # Stall: take the first sde-preserving syllable that leads to
            # a matrix not stepped from before.
            for v in visited[n_keyed:]:
                visited_keys.add(v.canonical_key())
            n_keyed = len(visited)
            best_m = best_next = None
            for m in range(8):
                if sdes[m] != current.k:
                    continue
                cand = _apply_syllable(m, current, sdes[m])
                if cand.canonical_key() not in visited_keys:
                    best_m, best_next = m, cand
                    break
            if best_next is None:
                raise ExactSynthesisError("stuck: no syllable reduces the sde")
        # current = T^m H best_next
        tokens.extend(t_power_tokens(best_m))
        tokens.append("H")
        current = best_next
    tokens.extend(_monomial_tokens(current))

    produced = ExactUnitary.from_gates(tokens) if tokens else ExactUnitary.identity()
    if not produced.equals_up_to_phase(u):
        raise ExactSynthesisError("verification failed")
    return tokens
