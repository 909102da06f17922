#!/usr/bin/env python3
"""Weil peak systems: eigenvectors of maximal tori in SL2(F_p).

The Weil operators rho(g) intertwine the phased shifts sigma(v), so an
eigenvector of a torus has a matched filter that is 1 at the origin and
small everywhere else: at most 2/sqrt(p) for a nonsplit torus and
2 sqrt(p)/(p-1) for a split torus (which is slightly above 2/sqrt(p)).
On a split torus one eigenvalue belongs to a 2-D eigenspace; its two
vectors are flagged degenerate and carry no peak guarantee.
"""

import numpy as np

from tfshift import (GroupElement, PlanePoint, as_prime, make_torus, mf_full,
                     sigma_op, torus_eigenbasis, weil_operator)

P = as_prime(31)


def off_origin_max(sig) -> float:
    A = mf_full(sig, sig).magnitudes()
    A[0, 0] = 0.0
    return float(A.max())


def main() -> None:
    p = P.p

    # 1. the operators rho(g), built from the closed-form chirp kernel
    # p^-1/2 e((-d x^2 + 2xy - a y^2)/(2b)), are unitary and respect the
    # group action
    g = GroupElement(2, 3, 3, 5, P)  # det = 2*5 - 3*3 = 1
    W = weil_operator(g)
    U = W.matrix
    print(f"rho(g) unitarity defect: "
          f"{np.abs(U @ U.conj().T - np.eye(p)).max():.2e}")
    from tfshift import Signal, random_signal
    f = random_signal(P, seed=5)
    v = PlanePoint(4, 9, P)
    lhs = U @ sigma_op(f, v).samples
    rhs = sigma_op(Signal(P, U @ f.samples), g.act(v)).samples
    print(f"intertwining rho sigma(v) f = sigma(g v) rho f: "
          f"{np.abs(lhs - rhs).max():.2e}")

    # 2. tori come in two kinds, decided by the trace discriminant
    for trace in (0, 1, 3, 5, 6):
        T = make_torus(trace, P)
        print(f"trace {trace}: {T.kind:8s} torus of order {T.order}")

    # 3. eigenbases and the peak bounds; each basis is sorted by its exact
    # eigenvalue e^{i pi k/n} (n the torus order), so an index names the same
    # vector on every platform
    for trace, want in ((5, "nonsplit"), (3, "split")):
        T = make_torus(trace, P)
        assert T.kind == want
        basis = torus_eigenbasis(T)
        good = [w for w in basis if not w.degenerate]
        worst = max(off_origin_max(w.signal) for w in good)
        bound = 2 / np.sqrt(p) if T.kind == "nonsplit" \
            else 2 * np.sqrt(p) / (p - 1)
        print(f"\n{T.kind} torus, trace {trace}: {len(basis)} eigenvectors, "
              f"{len(basis) - len(good)} degenerate")
        print(f"  worst off-origin |M[phi,phi]| = {worst:.6f}  "
              f"<= bound {bound:.6f}: {worst <= bound + 1e-9}")

    # 4. eigenvectors of different tori stay below 4/sqrt(p) pairwise
    b1 = [w for w in torus_eigenbasis(make_torus(5, P)) if not w.degenerate]
    b2 = [w for w in torus_eigenbasis(make_torus(3, P)) if not w.degenerate]
    worst = max(float(mf_full(a.signal, b.signal).magnitudes().max())
                for a in b1[:6] for b in b2[:6])
    print(f"\ncross-torus pairs (6x6 sample): worst |M| = {worst:.6f}  "
          f"vs 4/sqrt(p) = {4 / np.sqrt(p):.6f}")


if __name__ == "__main__":
    main()
