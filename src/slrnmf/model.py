"""Data conventions and cost arithmetic for sparse low-rank NMF unmixing.

Every module in this package uses the same matrix orientations:

* ``y``   observations, shape (L, K): spectral bands by pixels,
* ``phi`` endmember candidates, shape (L, r): one spectrum per column,
* ``w``   abundances, shape (K, r): one pixel per row,
* ``d``   penalty diagonal, shape (r,): positive reweighting entries.

The objective being minimized is::

    0.5 * ||Y - Phi @ W.T||_F**2
    + delta * sum_i sqrt(||phi_i||**2 + ||w_i||**2 + eta**2)
    + lambda1 * sum(|W|)

The middle term is a smoothed group penalty on the stacked columns of
``Phi`` and ``W``; driving joint columns to zero is what turns an
overestimated factorization rank into an estimate of the true number of
endmembers.  All arithmetic is float64.

Each input rule of the package lives here once: :func:`as_matrix` for
matrices, :func:`as_integer` for sizes and counts, :func:`as_weight` for
delta, lambda1 and eta.

Nothing here allocates an array of the size of ``y``: the full cost forms
its residual one block of pixels at a time (at most 8 MiB), and the
line-search prices work from r-sized Gram terms.
"""

import numpy as np

__all__ = [
    "as_matrix",
    "as_integer",
    "as_weight",
    "check_nonneg",
    "check_dims",
    "joint_column_norms",
    "cost_total",
    "Objective",
]


def as_matrix(a, name="matrix"):
    """Coerce to a float64 2-D array, rejecting complex and non-finite entries."""
    m = np.asarray(a)
    if np.iscomplexobj(m):
        raise ValueError("%s must be real, got dtype %s" % (name, m.dtype))
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("%s must be a 2-D array, got shape %s" % (name, (m.shape,)))
    # NaN and +-inf reach the extremes, so no L-by-K mask is needed.
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        raise ValueError("%s contains non-finite entries" % name)
    return m


def as_integer(value, name, low):
    """Return ``value`` as an int if it is a whole number >= ``low`` (3.0
    counts; 3.5, inf, nan, strings and None raise ``ValueError``)."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < low:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, low, value))
    return int(value)


def as_weight(value, name):
    """Return penalty weight ``name`` as a float: finite, with ``eta`` > 0
    and ``delta``, ``lambda1`` >= 0; anything else raises ``ValueError``."""
    try:
        weight = np.nan if isinstance(value, str) else float(value)
    except (TypeError, ValueError):
        weight = np.nan
    if name == "eta":
        ok, rule = 0.0 < weight < np.inf, "> 0"
    else:
        ok, rule = 0.0 <= weight < np.inf, ">= 0"
    if not ok:
        raise ValueError("%s must be finite and %s, got %s" % (name, rule, value))
    return weight


def check_nonneg(m, name="matrix"):
    if m.size and m.min() < 0.0:
        raise ValueError("%s has negative entries (min %g)" % (name, m.min()))


def check_dims(y, phi, w):
    """Validate the (L, K) / (L, r) / (K, r) shape contract."""
    l, k = y.shape
    if phi.shape[0] != l:
        raise ValueError("phi has %d rows, expected L=%d" % (phi.shape[0], l))
    if w.shape[0] != k:
        raise ValueError("w has %d rows, expected K=%d" % (w.shape[0], k))
    if phi.shape[1] != w.shape[1]:
        raise ValueError(
            "phi and w disagree on the number of columns: %d vs %d"
            % (phi.shape[1], w.shape[1])
        )


# Residual bytes per block of pixels in ``Objective.total``: 4,681 pixels
# at L = 224.  A scene of at most one block is costed in a single pass.
_RESIDUAL_BLOCK_BYTES = 8 * 2**20


def _pixel_block(l):
    """Pixels per residual block of ``Objective.total`` at L = ``l`` bands."""
    return max(1, _RESIDUAL_BLOCK_BYTES // (8 * max(l, 1)))


def _column_dots(a, b):
    """Per-column inner products <a_i, b_i>, without a full-size temporary."""
    return np.einsum("ij,ij->j", a, b)


def _squared_residual(y, phi, w):
    """||Y - Phi W^T||_F^2, the residual formed in place."""
    resid = phi @ w.T
    np.subtract(y, resid, out=resid)
    return float(np.vdot(resid, resid))


def _column_energy(phi, w):
    """Per-column ||phi_i||^2 + ||w_i||^2, the squared joint column energies."""
    return (phi * phi).sum(axis=0) + (w * w).sum(axis=0)


def joint_column_norms(phi, w):
    """Per-column sqrt(||phi_i||^2 + ||w_i||^2), the joint column energies."""
    return np.sqrt(_column_energy(phi, w))


def cost_total(y, phi, w, delta, lambda1, eta):
    """Full objective at (phi, w) after validating shapes and weights.

    ``y`` (L, K), ``phi`` (L, r), ``w`` (K, r); ``delta`` >= 0,
    ``lambda1`` >= 0 and ``eta`` > 0 as in :class:`Objective`.  With
    ``lambda1 = 0`` the result is the smooth part of the objective.
    """
    y = as_matrix(y, "y")
    phi = as_matrix(phi, "phi")
    w = as_matrix(w, "w")
    check_dims(y, phi, w)
    return Objective._of_checked(y, delta, lambda1, eta).total(phi, w)


def _fit_gradient(x, gram, cross):
    """X P - C, the gradient of 0.5 * ||Y - Phi W^T||_F^2 in the block X.

    P is the Gram matrix of the other block and C the product of Y with
    it, oriented like X: P = Phi^T Phi and C = Y^T Phi for X = W;
    P = W^T W and C = Y W for X = Phi.
    """
    return x @ gram - cross


class Objective:
    """Cost evaluator with the observation matrix bound once per solve.

    The solver's inner loop evaluates costs many times per iteration;
    binding ``y`` and the weights here avoids re-validating or copying
    the data on every call.  Instances are immutable in practice: no
    method mutates the bound arrays.
    """

    def __init__(self, y, delta, lambda1, eta):
        self._bind(as_matrix(y, "y"), delta, lambda1, eta)

    @classmethod
    def _of_checked(cls, y, delta, lambda1, eta):
        """Bind a ``y`` that :func:`as_matrix` has already returned.

        Skips the constructor's finite-entry scan of ``y``, a full L-by-K
        pass; the weights are still checked.
        """
        objective = cls.__new__(cls)
        objective._bind(y, delta, lambda1, eta)
        return objective

    def _bind(self, y, delta, lambda1, eta):
        self.y = y
        self.delta = as_weight(delta, "delta")
        self.lambda1 = as_weight(lambda1, "lambda1")
        self.eta = as_weight(eta, "eta")

    def total(self, phi, w):
        """Objective at (phi, w), the residual formed one pixel block at a time.

        Each block of B pixels (:func:`_pixel_block`, about 8 MiB of
        residual) is formed in place and reduced by one ``vdot``, so the
        call holds one block and O((L + K) r) besides ``y``.  A scene of at
        most one block takes the single pass ``vdot(R, R)``.

        Precision: a block's ``vdot`` sums L B squares and the K / B block
        sums are added in turn, so the fit's summation rounds at
        gamma_{L B + K/B} ||R||^2 (gamma_n = n eps / (1 - n eps)), against
        gamma_{L K} ||R||^2 for a single ``vdot`` over all of R: blocking
        never loosens the bound once K exceeds B.  Both add to the
        residual's own rounding, about (r + 1) eps ||R|| (||Y|| +
        ||Phi W^T||), which is the same in either form.
        """
        y = self.y
        step = _pixel_block(y.shape[0])
        fit = 0.5 * sum(_squared_residual(y[:, j:j + step], phi, w[j:j + step])
                        for j in range(0, y.shape[1], step))
        penalty = float(np.sum(np.sqrt(_column_energy(phi, w) + self.eta * self.eta)))
        return fit + self.delta * penalty + self.lambda1 * float(np.abs(w).sum())

    def change_along(self, phi, w, candidate, which, cross):
        """Cost change f(beta) = total(X + beta*S) - total(X) along one block.

        X is the block named by ``which`` (``"w"`` or ``"phi"``), S =
        ``candidate`` - X, and the other block F stays fixed.  ``cross`` is
        the product of Y with F, oriented like X (Y^T Phi for ``w``, Y W
        for ``phi``), which the block's Newton step has already formed.
        X and ``candidate`` must be nonnegative.  Setting up costs
        O((L + K) r^2); the returned function of beta in (0, 1] costs
        O(r) per call and allocates nothing of size L-by-K::

            f(beta) = beta <G, S> + beta^2 / 2 <S P, S>   (= <P, S^T S>)
                      + lambda1 beta sum(S)                  (w block only)
                      + delta sum_i n_i / (sqrt(e_i + n_i) + sqrt(e_i))

        with P = F^T F, G = X P - C the fit gradient, e_i = ||phi_i||^2 +
        ||w_i||^2 + eta^2 at X, and n_i = beta a_i + beta^2 b_i, a_i =
        2 <x_i, s_i>, b_i = ||s_i||^2.  The L1 term is exact because both
        endpoints are nonnegative.  e_i + n_i, the energy at the trial,
        is summed as ||f_i||^2 + eta^2 + (1 - beta)^2 ||x_i||^2
        + 2 beta (1 - beta) <x_i, c_i> + beta^2 ||c_i||^2, all terms
        nonnegative, so it keeps full relative precision even when a
        column collapses to zero.

        Precision: each term of f multiplies the step S by quantities at
        X, so f rounds at about n eps times the magnitude of its own terms
        (n = L + r for ``w``, K + r for ``phi``: the inner dimensions of
        the products behind C and G), which shrinks with the step and does
        not grow with the cost.  The direct difference of two ``total``
        calls rounds at the scale of the costs: about eps (|total| +
        (r + 1) ||R|| (||Y|| + ||Phi W^T||)) per call, R = Y - Phi W^T.
        The expanded fit ||Y||^2 - 2 tr(Phi^T Y W) + tr(Phi^T Phi W^T W)
        would round at eps ||Y||^2, which at sigma = 1e-3 exceeds the
        line search's 1e-12 relative accept slack; it is not used.  The
        tests bound |f - direct difference| by the sum of the first two
        scales.  A cost reported as baseline + f(beta) adds one rounding
        at eps |cost| per accepted step.
        """
        x, fixed = (w, phi) if which == "w" else (phi, w)
        step = candidate - x
        gram = fixed.T @ fixed
        slope = float(np.vdot(_fit_gradient(x, gram, cross), step))
        if which == "w":
            slope += self.lambda1 * float(step.sum())
        step_gram = step.T @ step
        curvature = 0.5 * float(np.vdot(step_gram, gram))
        rest = _column_dots(fixed, fixed) + self.eta * self.eta
        xx = _column_dots(x, x)
        xc = _column_dots(x, candidate)
        cc = _column_dots(candidate, candidate)
        root = np.sqrt(rest + xx)
        a = 2.0 * _column_dots(x, step)
        b = np.diagonal(step_gram)
        delta = self.delta

        def change(beta):
            keep = 1.0 - beta
            trial = rest + keep * keep * xx + 2.0 * beta * keep * xc + beta * beta * cc
            group = np.sum((beta * a + beta * beta * b) / (np.sqrt(trial) + root))
            return beta * slope + beta * beta * curvature + delta * float(group)

        return change
