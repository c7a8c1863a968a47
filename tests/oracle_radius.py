"""Reference stability radius for stepped-up point sets, for the test suite.

This is the all-pairs Fraction computation that step_up_points ran before
its radius moved to integer bounds read at the two extremes of each delta
block: for every output pair i < j and coordinate pair c it bounds the
perturbation analytically, then checks dyadic candidates exactly on corner
perturbations.  It visits every pair and shares no code with the package
under test.
"""

from __future__ import annotations

from fractions import Fraction


def stepped_stability_radius(out, base_points, eps: Fraction) -> Fraction:
    """Largest dyadic eps1 <= 1 such that the output points are
    eps1-increasing and every pair slope, under any perturbation of its two
    points by at most eps1, stays within eps of base point delta(i, j), where
    delta(i, j) is one plus the highest bit where i and j (0-based) differ."""
    out = [[Fraction(v) for v in p] for p in out]
    n_out = len(out)
    dim2 = len(out[0])
    gap = min(out[i + 1][c] - out[i][c]
              for i in range(n_out - 1) for c in range(dim2))
    pairs = []
    bound = gap / 2
    for i in range(n_out):
        for j in range(i + 1, n_out):
            target = base_points[(i ^ j).bit_length() - 1]
            for c in range(len(target)):
                amp = out[j][2 * c] - out[i][2 * c]
                num = out[j][2 * c + 1] - out[i][2 * c + 1]
                t = Fraction(target[c])
                pairs.append((amp, num, t))
                t_hi = t + eps
                t_lo = t - eps
                if 1 + t_hi > 0:
                    bound = min(bound, (t_hi * amp - num) / (2 * (1 + t_hi)))
                if 1 + t_lo > 0:
                    bound = min(bound, (num - t_lo * amp) / (2 * (1 + t_lo)))
                bound = min(bound, amp / 4)

    def passes(e: Fraction) -> bool:
        if 2 * e >= gap:
            return False
        for amp, num, t in pairs:
            if amp - 2 * e <= 0:
                return False
            if (num + 2 * e) / (amp - 2 * e) > t + eps:
                return False
            if (num - 2 * e) / (amp + 2 * e) < t - eps:
                return False
        return True

    if bound <= 0:
        raise ValueError("no positive dyadic below a nonpositive bound")
    eps1 = Fraction(1)
    while eps1 >= bound:
        eps1 /= 2
    while not passes(eps1):
        eps1 /= 2
    while eps1 < 1 and passes(eps1 * 2):
        eps1 *= 2
    return eps1
