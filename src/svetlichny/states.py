"""Density matrices: validation, reductions, negativity, example families.

Qubit registers are ordered A (x) B (x) C with basis index 4a + 2b + c, so
|abc> lives at that row of an 8-vector. Two-qubit objects keep the labels
of whichever pair survived the partial trace, in ascending label order.

validate checks a (k, d, d) stack under the same gates as one matrix and
solves all its members' spectra in one value-only call; each validated
state keeps its spectrum. validate reads no eigenvector: the
certificates take square roots of the 4x4 reduced pairs only. The
family builders build a whole parameter grid that way, and the
single-state builders are the same code on a list of one.

marginals is the one reduction kernel: one gather over a (k, 8, 8)
stack with one ordered pair per member, whichever pairs it mixes,
through per-pair index tables built at import. embed_pair, the lift
I (x) X of a pair operator, is its adjoint through the same index: it
writes each member's entries where marginals reads their two terms. The
index for a pair sequence is built once, each distinct pair checked
once, so a grid on one pair runs no per-member step, and a record set
that reduces and lifts the same pairs builds it once for both.
reduce_to_pairs, reduce_to_pair and partial_trace are that gather on one
pair; partial_transposes reshapes a whole stack once, and
partial_transpose runs it on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np

from . import linalg

PSD_TOL = -1e-9
TRACE_TOL = 1e-10

FAMILY_PURE_W1 = "pure-W-class-1"
FAMILY_MIXED_GHZ_2W = "mixed-GHZ-2W"
FAMILY_MAXIMAL_SLICE = "maximal-slice"
FAMILY_GHZ_W_CONVEX = "GHZ-W-convex"
FAMILY_IDENTITY_W = "identity-W"

FAMILIES = (
    FAMILY_PURE_W1,
    FAMILY_MIXED_GHZ_2W,
    FAMILY_MAXIMAL_SLICE,
    FAMILY_GHZ_W_CONVEX,
    FAMILY_IDENTITY_W,
)

# Parameter validity per family, endpoints inclusive unless noted.
FAMILY_RANGES = {
    FAMILY_PURE_W1: (0.0, 0.953939),
    FAMILY_MIXED_GHZ_2W: (0.0, 0.8),
    FAMILY_MAXIMAL_SLICE: (0.0, np.pi / 2),   # open at both ends
    FAMILY_GHZ_W_CONVEX: (0.4, 0.9),
    FAMILY_IDENTITY_W: (0.816, 1.0),          # open at the left end
}

# The reduced pair each family's analysis runs on.
EXAMPLE_PAIRS = {
    FAMILY_PURE_W1: ("A", "C"),
    FAMILY_MIXED_GHZ_2W: ("B", "C"),
    FAMILY_MAXIMAL_SLICE: ("B", "C"),
    FAMILY_GHZ_W_CONVEX: ("B", "C"),
    FAMILY_IDENTITY_W: ("B", "C"),
}

LABELS = ("A", "B", "C")


class StateError(ValueError):
    pass


class InvalidStateError(StateError):
    """Candidate matrix is not a density matrix; .reason says why."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class ParameterRangeError(StateError):
    pass


class UnknownNameError(StateError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """A state of `qubits` qubits as its 2^qubits square complex matrix.

    validate and the reductions build it from a matrix already checked or
    derived from a checked one; the constructor itself checks nothing.
    """

    qubits: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2 ** self.qubits

    @cached_property
    def spectrum(self) -> np.ndarray:
        """linalg.hermitian_eigenvalues of the matrix, solved on first read only.

        validate fills it from the solve its positivity check reads, so a
        validated state arrives with its spectrum already solved.
        """
        return linalg.hermitian_eigenvalues(self.matrix)


def validate(candidate, qubits: int) -> DensityMatrix | list[DensityMatrix]:
    """Check Hermiticity, unit trace, and positivity; symmetrize and wrap.

    Tolerances: hermiticity per the linalg kernel, trace within 1e-10,
    eigenvalues >= -1e-9 (irrational amplitudes leave construction noise
    of order machine epsilon, which must not reject a valid state).

    A (k, d, d) stack passes the same gates member by member and gives one
    DensityMatrix per member, in a list; each member's spectrum comes
    from one stacked value-only solve. Any other input is a single
    matrix, checked as a stack of one.

    The stack is gated once: linalg.symmetrize checks its shape,
    finiteness and hermiticity, and the symmetrized stack goes straight
    to the solver's LAPACK step (eigvalsh, no eigenvectors), which keeps
    the MAX_DIM cap and reports a LAPACK failure as NoConvergenceError.
    """
    a = np.asarray(candidate, dtype=complex)
    stack = a if a.ndim == 3 else a[None]
    dim = 2 ** qubits
    if stack.shape[1:] != (dim, dim):
        raise InvalidStateError("bad-dimension", f"expected {dim}x{dim}, got {stack.shape[1:]}")
    if not len(stack):
        return []
    try:
        sym = linalg.symmetrize(stack)
    except linalg.NotHermitianError as exc:
        raise InvalidStateError("not-hermitian", str(exc)) from exc
    with np.errstate(over="ignore"):  # finite entries may sum to inf, which the check rejects
        traces = np.trace(sym, axis1=1, axis2=2).real.tolist()
    for tr in traces:
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError("trace-not-one", f"trace = {tr!r}")
    values = linalg._solve(sym, vectors=False)
    for lambda_min in values[:, 0].tolist():
        if lambda_min < PSD_TOL:
            raise InvalidStateError("not-psd", f"lambda_min = {lambda_min:.3e}")
    rhos = [DensityMatrix(qubits=qubits, matrix=matrix) for matrix in sym]
    for rho, spectrum in zip(rhos, values):
        rho.__dict__["spectrum"] = spectrum  # the cached_property's own slot
    return rhos if a.ndim == 3 else rhos[0]


def _label_index(label: str) -> int:
    try:
        return LABELS.index(label)
    except ValueError:
        raise UnknownNameError(f"subsystem label must be one of {LABELS}, got {label!r}") from None


def _marginal_index(first: int, second: int) -> np.ndarray:
    """Where each entry of an ordered pair's marginal reads its two terms in a flattened 8x8
    matrix: a (2, 4, 4) table, one layer per value of the spectator qubit.

    first and second are the pair's positions in LABELS. Entry (r, c) of
    layer s is the flat position of row (r, s) and column (c, s), where r
    and c hold the pair's bits in the pair's order and s the spectator's.
    """
    shifts = 2 - np.array([first, second, 3 - first - second])  # bit of each qubit in 4a + 2b + c
    bits = (np.arange(4)[:, None] >> np.array([1, 0])) & 1  # columns: the pair's first, second bit
    rows = (bits << shifts[:2]).sum(1)[None, :] + (np.arange(2) << shifts[2])[:, None]
    return 8 * rows[:, :, None] + rows[:, None, :]


# by spectator value, then positions; the diagonal is never read
_MARGINAL = np.zeros((2, 3, 3, 4, 4), dtype=np.intp)
for _first, _second in permutations(range(3), 2):
    _MARGINAL[:, _first, _second] = _marginal_index(_first, _second)


def marginals(matrices, pairs) -> np.ndarray:
    """The (k, 4, 4) marginals of a (k, 8, 8) stack of 3-qubit matrices, one ordered pair per
    member, an 8x8 matrix being a stack of one: one gather through the pairs' index tables.

    Each entry is the sum a + b of its two terms, spectator 0 then 1,
    the sum the trace over the spectator forms, so a marginal has the
    same bits whichever members share its stack.
    """
    m = np.asarray(matrices)
    if m.size and m.shape[-2:] != (8, 8):  # an empty stack has no shape to check
        raise InvalidStateError("bad-dimension", "partial_trace expects a 3-qubit state")
    first, second = _stack_index(tuple(map(tuple, pairs)))
    flat = m.reshape(-1)
    if len(first) * 64 != flat.size:
        raise StateError(f"{len(first)} pairs for {flat.size // 64} states")
    return flat[first] + flat[second]


def embed_pair(op_pair, pairs) -> np.ndarray:
    """Lift a two-qubit operator on an ordered pair to three qubits, identity on the rest; or
    each member of a (k, 4, 4) stack on its own pair, given one pair per member.

    The pair's first label takes the operator's first tensor slot. The
    lift is marginals' adjoint, Tr[embed_pair(X) rho] = Tr[X rho_ij]:
    for each spectator value, each member's 16 entries are written where
    marginals reads its terms, through the same index, and every other
    entry is zero.
    """
    op = np.asarray(op_pair, dtype=complex)
    if op.ndim not in (2, 3) or op.shape[-2:] != (4, 4):
        raise StateError("pair operator must be 4x4")
    index = _stack_index((tuple(pairs),) if op.ndim == 2 else tuple(map(tuple, pairs)))
    stack = op.reshape(-1, 4, 4)
    if index.shape[1] != len(stack):
        raise StateError(f"{index.shape[1]} pairs for {len(stack)} pair operators")
    lifted = np.zeros((len(stack), 8, 8), dtype=complex)
    lifted.reshape(-1)[index] = stack  # one write per spectator value
    return lifted if op.ndim == 3 else lifted[0]


@lru_cache(maxsize=64)
def _stack_index(pairs: tuple) -> np.ndarray:
    """The index marginals and embed_pair read for a stack with these pairs, member m offset
    by 64 m: each entry's two terms, spectator 0 then 1, as two (k, 4, 4) layers. Built once
    per pair sequence, each distinct pair checked once by pair_positions."""
    checked = {pair: pair_positions(pair) for pair in dict.fromkeys(pairs)}
    positions = np.array([checked[pair] for pair in pairs], dtype=np.intp).reshape(-1, 2)
    offsets = 64 * np.arange(len(pairs))[:, None, None]
    index = _MARGINAL[:, positions[:, 0], positions[:, 1]] + offsets
    index.flags.writeable = False
    return index


def partial_trace(rho: DensityMatrix, traced: str) -> DensityMatrix:
    """Trace out one subsystem of a 3-qubit state.

    The two survivors keep ascending label order, e.g. tracing B from
    rho_ABC yields rho_AC with A as the first factor. The reduction of a
    validated state is not validated again: it is exactly Hermitian, and a
    second positivity check could reject what the tolerance let through,
    since tracing out a qubit can add two tolerated negative eigenvalues.
    """
    k = _label_index(traced)
    return reduce_to_pair(rho, LABELS[:k] + LABELS[k + 1:])


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second qubit of a 2-qubit state; result may be non-PSD.

    Transposing the first qubit instead gives the full transpose of this
    result, with the same spectrum, so the negativity does not depend on
    the side. partial_transposes on a stack of one.
    """
    return partial_transposes(rho.matrix)[0]


def partial_transposes(matrices) -> np.ndarray:
    """partial_transpose of each member of a (k, 4, 4) stack of 2-qubit matrices, a 4x4
    matrix being a stack of one, by one transpose: <ij|rho^T|kl> = <il|rho|kj>."""
    m = np.asarray(matrices)
    if m.size and m.shape[-2:] != (4, 4):
        raise InvalidStateError("bad-dimension", "partial_transpose expects a 2-qubit state")
    return m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)


def pair_positions(pair) -> tuple[int, int]:
    """The one pair check: the LABELS positions of exactly two distinct labels, in any
    sequence ("AB" and ["A", "B"] name ("A", "B")); UnknownNameError otherwise."""
    positions = tuple(map(_label_index, pair))
    if len(positions) != 2 or positions[0] == positions[1]:
        raise UnknownNameError(f"a pair names two distinct qubits of {LABELS}, got {pair!r}")
    return positions


def reduce_to_pair(rho: DensityMatrix, pair: tuple[str, str]) -> DensityMatrix:
    """The marginal of an ordered pair of a 3-qubit state, by the marginals gather on a stack
    of one.

    The pair's first label takes the first tensor slot, so ("C", "A")
    gives rho_CA, the swap of the rho_AC that partial_trace returns.
    """
    return DensityMatrix(qubits=2, matrix=marginals(rho.matrix, [pair])[0])


def reduce_to_pairs(rhos, pair: tuple[str, str]) -> list[DensityMatrix]:
    """reduce_to_pair of each 3-qubit state on one pair, from one gather over their stack."""
    pair_positions(pair)  # an empty stack checks its pair too
    matrices = np.array([rho.matrix for rho in rhos])
    return [DensityMatrix(qubits=2, matrix=matrix)
            for matrix in marginals(matrices, [pair] * len(matrices))]


def partial_transpose_numbers(values) -> tuple:
    """(N, lambda_max(rho^T), lambda_min[(rho^T)^2], Tr[(rho^T)^2]) from rho^T's ascending spectrum,
    as floats, or as four arrays with one entry per row of a (k, n) stack of spectra.

    The square's spectrum is the squares of the spectrum, so no second
    solve is needed. A PPT spectrum has N = +0.0. Each number is one
    reduction over the last axis, the same on one spectrum as on a stack.
    """
    pt = np.asarray(values, dtype=float)
    squares = pt * pt
    numbers = (0.0 - np.minimum(pt, 0.0).sum(-1), pt[..., -1], squares.min(-1), squares.sum(-1))
    return numbers if pt.ndim > 1 else tuple(map(float, numbers))


def negativity(rho: DensityMatrix) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues.

    Equals (||rho^T||_1 - 1)/2; zero exactly for PPT (in particular all
    separable) two-qubit states.
    """
    return partial_transpose_numbers(linalg.hermitian_eigenvalues(partial_transpose(rho)))[0]


def ket(*components: tuple[int, complex], dim: int = 8) -> np.ndarray:
    """State vector of dimension dim from (basis index, amplitude) pairs."""
    v = np.zeros(dim, dtype=complex)
    for idx, amp in components:
        v[idx] = amp
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def _check_range(family: str, param: float) -> None:
    lo, hi = FAMILY_RANGES[family]
    open_left = family in (FAMILY_IDENTITY_W, FAMILY_MAXIMAL_SLICE)
    open_right = family == FAMILY_MAXIMAL_SLICE
    above = lo < param if open_left else lo <= param
    below = param < hi if open_right else param <= hi
    if not (above and below):
        raise ParameterRangeError(
            f"{family} parameter {param!r} outside validity range "
            f"{'(' if open_left else '['}{lo}, {hi}{')' if open_right else ']'}"
        )


_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)


def _w1_vec() -> np.ndarray:
    return ket((1, 1 / _SQ3), (2, 1 / _SQ3), (4, 1 / _SQ3))


def _w2_vec() -> np.ndarray:
    return ket((6, 1 / _SQ3), (5, 1 / _SQ3), (3, 1 / _SQ3))


def make_example(family: str, param: float) -> DensityMatrix:
    """Construct one of the five worked example families: make_examples on a list of one.

    Families and parameters:
      pure-W-class-1  lambda0 in [0, 0.953939]
                      lambda0|000> + 0.3|101> + sqrt(0.91 - lambda0^2)|110>
      mixed-GHZ-2W    t in [0, 0.8]
                      0.2 GHZ + t W1 + (0.8 - t) W2 (orthogonal mixture)
      maximal-slice   theta in (0, pi/2)
                      (|000> + cos(theta)|110> + sin(theta)|111>)/sqrt(2)
      GHZ-W-convex    p_s in [0.4, 0.9]
                      p_s |GHZ'><GHZ'| + (1 - p_s)|W><W|,
                      GHZ' = (|010> + |101>)/sqrt(2)
      identity-W      p_s in (0.816, 1]
                      (1 - p_s) I/8 + p_s |W><W|
    """
    return make_examples(family, [param])[0]


def _family_params(family: str, params) -> np.ndarray:
    """The parameters as a float array, once each is in the family's range."""
    if family not in FAMILIES:
        raise UnknownNameError(f"unknown example family {family!r}")
    for param in params:
        _check_range(family, float(param))
    return np.asarray(params, dtype=float).reshape(-1)


def make_examples(family: str, params) -> list[DensityMatrix]:
    """The family's state at every parameter (see make_example), validated as one stack."""
    x = _family_params(family, params)
    if family in (FAMILY_PURE_W1, FAMILY_MAXIMAL_SLICE):
        vecs = np.zeros((len(x), 8), dtype=complex)
        if family == FAMILY_PURE_W1:
            vecs[:, 0], vecs[:, 5], vecs[:, 6] = x, 0.3, np.sqrt(0.91 - x * x)
        else:
            vecs[:, 0], vecs[:, 6], vecs[:, 7] = 1 / _SQ2, np.cos(x) / _SQ2, np.sin(x) / _SQ2
        return validate(vecs[:, :, None] * vecs.conj()[:, None, :], 3)
    x = x[:, None, None]
    if family == FAMILY_MIXED_GHZ_2W:
        ghz = ket((0, 1 / _SQ2), (7, 1 / _SQ2))
        mix = 0.2 * projector(ghz) + x * projector(_w1_vec()) + (0.8 - x) * projector(_w2_vec())
    elif family == FAMILY_GHZ_W_CONVEX:
        ghzp = ket((2, 1 / _SQ2), (5, 1 / _SQ2))
        mix = x * projector(ghzp) + (1 - x) * projector(_w1_vec())
    else:
        mix = (1 - x) * np.eye(8, dtype=complex) / 8 + x * projector(_w1_vec())
    return validate(mix, 3)


REFERENCE_NAMES = ("GHZ", "W", "W2", "Bell-Phi+", "product-000")


def make_reference(name: str) -> DensityMatrix:
    """Canonical states: GHZ, W, W2 (flipped W), Bell-Phi+, product-000."""
    if name == "GHZ":
        return validate(projector(ket((0, 1 / _SQ2), (7, 1 / _SQ2))), 3)
    if name == "W":
        return validate(projector(_w1_vec()), 3)
    if name == "W2":
        return validate(projector(_w2_vec()), 3)
    if name == "Bell-Phi+":
        return validate(projector(ket((0, 1 / _SQ2), (3, 1 / _SQ2), dim=4)), 2)
    if name == "product-000":
        return validate(projector(ket((0, 1.0))), 3)
    raise UnknownNameError(f"unknown reference state {name!r}; pick from {REFERENCE_NAMES}")


def example_reductions(family: str, params) -> list[DensityMatrix]:
    """The designated two-qubit reduced state each family's analysis uses, at every parameter.

    For four of the five families this is literally the partial trace
    over the complement of EXAMPLE_PAIRS[family] of make_examples's
    states. The maximal-slice family is the exception: its designated
    matrix has 1/2 at both ends of the diagonal, cos(theta) in the two
    corners that join them, and zeros elsewhere. It is not the partial
    trace of the three-qubit state over any single qubit (the true
    reductions carry cos(theta)/2 in the corner or are separable); it is
    the matrix the family's published analysis is built on, and it is only
    positive semidefinite for theta >= pi/3. We expose it as given,
    validated as one stack, so the downstream quantities reproduce, and
    leave the true reductions to partial_trace.
    """
    if family != FAMILY_MAXIMAL_SLICE:
        return reduce_to_pairs(make_examples(family, params), EXAMPLE_PAIRS[family])
    c = np.cos(_family_params(family, params))
    m = np.zeros((len(c), 4, 4), dtype=complex)
    m[:, 0, 0] = m[:, 3, 3] = 0.5
    m[:, 0, 3] = m[:, 3, 0] = c
    return validate(m, 2)
