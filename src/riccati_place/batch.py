"""Cold Riccati and multiplier solves in batches, for
``optimize.solve_state_pairs``: one Newton-Kleinman iteration and one
closed-loop solve with a leading placement axis.

Every step, stop test and gate is the single solve's (``riccati`` writes
them over optional leading axes), taken for each placement on its own with
its own linear solve, so each solution is bit for bit the single solve's.  A
placement whose single solve would leave A's eigenbasis, or whose G has
another rank than most of its batch, leaves the batch: its entry is None.
"""

from collections import Counter

import numpy as np

from .dual import DualSolution
from .linalg import (
    _any,
    _frobenius,
    ensure_operator,
    low_rank_psd,
    norm_within,
    symmetrize,
)
from .riccati import (
    CAPACITANCE_MAX_RANK,
    DEFAULT_STEP_TOL,
    MAX_NEWTON_ITERS,
    RiccatiSolution,
    _EigenbasisFacts,
    _EigenbasisKernel,
    closed_loop,
)


def riccati_batch(plant, Gs):
    """For each G of the list Gs, the RiccatiSolution that the cold
    ``solve_are(A, G, Q, cert=cert)`` returns for the ``riccati.Plant`` of
    (A, Q) on cert, with its Newton count, or None for a G whose solve left
    the batch.

    The members are the Gs whose pivoted-Cholesky factor has the batch's
    rank (the most common one) and passes the eigenbasis kernel's margin;
    they share the plant and one kernel, with each member's factor and
    iterate on a leading axis, and step in lockstep from the plant's X1,
    each finishing at its own stop test.  A member leaves where its single
    solve would leave the eigenbasis: an unproved step, a second stop test
    in a row that fails only the residual gate, or MAX_NEWTON_ITERS steps.
    """
    A, Q = plant.A, plant.Q
    solutions = [None] * len(Gs)
    Gs, factors = list(Gs), {}
    for m, G in enumerate(Gs):
        try:
            Gs[m] = G = ensure_operator(G, "G")
            factor = G.shape == A.shape and low_rank_psd(G, CAPACITANCE_MAX_RANK, "G")
        except ValueError:  # the single solve raises it
            continue
        if factor:
            factors[m] = factor
    if not factors:
        return solutions
    rank = Counter(B.shape[1] for B, _ in factors.values()).most_common(1)[0][0]
    live = np.array([m for m, (B, _) in factors.items() if B.shape[1] == rank])
    # the members' G is read only by Schur steps, which a member leaves for
    kernel = _EigenbasisKernel.build(
        plant, None,
        (np.stack([factors[m][0] for m in live]), np.array([factors[m][1] for m in live])))
    if kernel is None:
        return solutions
    kernel, live = kernel.members(kernel.admitted), live[kernel.admitted]
    # step k = 1 is X1 itself, every member's (see _EigenbasisKernel.enter)
    X1b = plant.X1b()
    Xb = np.broadcast_to(X1b, (live.size,) + A.shape)
    proved = np.ones(live.size, dtype=bool)
    tested = np.full(live.size, norm_within(X1b, DEFAULT_STEP_TOL))
    stalled = np.zeros(live.size, dtype=bool)
    # a member that fails a gate may carry non-finite values until it leaves
    with np.errstate(all="ignore"):
        for k in range(1, MAX_NEWTON_ITERS + 1):
            if k > 1:
                Y, proved = kernel._capacitance_step(np.matmul(Xb, kernel.B))
                if Y is None:
                    break
                tested = proved & norm_within(Y - Xb, DEFAULT_STEP_TOL)
                Xb = Y
            done = np.zeros(live.size, dtype=bool)
            if _any(tested):
                stopping = kernel.members(tested)
                X = stopping.out(Xb[tested])
                R, stop = stopping.stops(X)
                facts = stopping.facts(_frobenius(R))
                for j, m in enumerate(live[tested]):
                    if stop[j]:
                        solutions[m] = RiccatiSolution(
                            X=X[j].copy(), newton_iters=k,
                            trace_bound_slack=plant.trace_bound - float(np.trace(X[j])),
                            operands=(A, Gs[m], Q), eigenbasis=facts.member(j))
                done[tested] = stop | stalled[tested]
                stalled[tested] = True
            stalled &= tested
            keep = proved > done
            if not _any(keep):
                break
            if not keep.all():
                kernel, live, Xb, stalled = kernel.members(keep), live[keep], Xb[keep], stalled[keep]
    return solutions


def dual_batch(A, Gs, sols, W):
    """The multipliers at the solutions ``sols`` of one :func:`riccati_batch`
    (A, and each G of Gs, their operands) for a validated W, each as
    ``solve_dual(A, G, sol, W)`` returns it: the closed loops are built,
    proved and factored by one ``riccati.closed_loop`` over the batch, and
    the multipliers solved on their factors alone.  None for a member whose
    proof or gate fails."""
    duals = [None] * len(sols)
    if not sols:
        return duals
    X = np.stack([sol.X for sol in sols])
    # a member that fails a gate may carry non-finite values
    with np.errstate(all="ignore"):
        loop, proved = closed_loop(A, np.stack(Gs), X,
                                   _EigenbasisFacts.stack([sol.eigenbasis for sol in sols]))
        if loop.capacitance is None:
            return duals
        Lam, solved = loop.factored(-W, adjoint=True)
    for k in np.flatnonzero(proved & solved):
        duals[k] = DualSolution(Lambda=symmetrize(Lam[k]), loop=loop.member(k), W=W)
    return duals
