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

Inside :func:`slrnmf.solver.solve` the factors are held component-major:
Phi^T as an r-by-L array and W^T as an r-by-K one, one factor column per
row.  The solver's helpers here take them so: :func:`_cross_block`,
:func:`_scan_observations`, :class:`SearchTerms`,
:meth:`Objective.total_gram` and :meth:`Objective.change_along`.
:meth:`Objective.total` and :func:`cost_total` take (L, r) and (K, r).

Each input rule of the package lives here once: :func:`as_matrix` for
matrices (finite, and nonnegative where asked), which the solver's scan
of ``y`` applies in the same blocked pass that forms its pixel norms and
its first product with the endmembers, :func:`as_integer` for sizes and
counts, :func:`as_weight` for delta, lambda1 and eta,
:func:`check_interval` for the other real-valued solver settings, and
:func:`check_dims` for the shapes of y, phi and w.  :class:`Objective`
has one constructor, which checks the weights and binds ``y`` coerced to
float64 but unscanned: :func:`cost_total` validates ``y`` before it binds
it, and :func:`slrnmf.solver.solve` binds the ``y`` its scan checked.

Nothing here allocates an array of the size of ``y``.  The direct cost
(:meth:`Objective.total`) forms its residual one block of pixels at a
time (at most 8 MiB), and the scan of ``y`` reads it in the same blocks.
The Gram-form cost (:meth:`Objective.total_gram`) and the line-search
pricing (:meth:`Objective.change_along`) work from r-sized terms, which
:class:`SearchTerms` sums over the blocks of a step.
"""

import numpy as np

__all__ = [
    "as_matrix",
    "as_integer",
    "as_weight",
    "check_interval",
    "check_dims",
    "cost_total",
    "Objective",
]


def _real_matrix(a, name):
    """``a`` as a float64 2-D array; complex input and other ranks raise."""
    m = np.asarray(a)
    if np.iscomplexobj(m):
        raise ValueError("%s must be real, got dtype %s" % (name, m.dtype))
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("%s must be a 2-D array, got shape %s" % (name, (m.shape,)))
    return m


def _check_extremes(name, low, high, nonneg):
    """Judge matrix ``name`` by its smallest and largest entries: NaN and
    +-inf reach the extremes, so no L-by-K mask is needed, and a
    non-finite entry is named before a negative one."""
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("%s contains non-finite entries" % name)
    if nonneg and low < 0.0:
        raise ValueError("%s has negative entries (min %g)" % (name, low))


def as_matrix(a, name="matrix", nonneg=False):
    """Coerce to a float64 2-D array, rejecting complex and non-finite
    entries, and negative ones if ``nonneg``; one min and one max pass
    decide both."""
    m = _real_matrix(a, name)
    low, high = (m.min(), m.max()) if m.size else (0.0, 0.0)
    _check_extremes(name, low, high, nonneg)
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


def _real(value):
    """``value`` as a float; NaN for a string or what ``float`` refuses."""
    try:
        return np.nan if isinstance(value, str) else float(value)
    except (TypeError, ValueError):
        return np.nan


def as_weight(value, name):
    """Return penalty weight ``name`` as a float: finite, with ``eta`` > 0
    and ``delta``, ``lambda1`` >= 0; anything else raises ``ValueError``."""
    weight = _real(value)
    if name == "eta":
        ok, rule = 0.0 < weight < np.inf, "> 0"
    else:
        ok, rule = 0.0 <= weight < np.inf, ">= 0"
    if not ok:
        raise ValueError("%s must be finite and %s, got %s" % (name, rule, value))
    return weight


def check_interval(value, name, low, high, ends):
    """Raise ``ValueError`` unless ``value`` is a number in the interval from
    ``low`` to ``high`` with ``ends`` such as "[)" (closed below, open above)."""
    x = _real(value)
    inside = ((low <= x if ends[0] == "[" else low < x)
              and (x <= high if ends[1] == "]" else x < high))
    if not inside:
        raise ValueError("%s must be in %s%g, %g%s, got %s"
                         % (name, ends[0], low, high, ends[1], value))


def check_dims(y, phi, w, names=("phi", "w")):
    """Validate the (L, K) / (L, r) / (K, r) shape contract.

    A caller without ``y`` or without ``w`` passes None, which skips the
    rules that involve it; ``names`` name phi and w in the messages.
    """
    phi_name, w_name = names
    if y is not None and phi.shape[0] != y.shape[0]:
        raise ValueError("%s has %d rows, expected L=%d"
                         % (phi_name, phi.shape[0], y.shape[0]))
    if w is None:
        return
    if y is not None and w.shape[0] != y.shape[1]:
        raise ValueError("%s has %d rows, expected K=%d"
                         % (w_name, w.shape[0], y.shape[1]))
    if phi.shape[1] != w.shape[1]:
        raise ValueError("%s and %s disagree on the number of columns: %d vs %d"
                         % (phi_name, w_name, phi.shape[1], w.shape[1]))


# Residual bytes per block of pixels in ``Objective.total``, and the bytes
# of y per block of its scan: 4,681 pixels at L = 224.  A scene of at most
# one block is costed in a single pass.
_RESIDUAL_BLOCK_BYTES = 8 * 2**20


def _pixel_block(l):
    """Pixels per residual block of ``Objective.total`` at L = ``l`` bands."""
    return max(1, _RESIDUAL_BLOCK_BYTES // (8 * max(l, 1)))


def _pixel_slices(l, k):
    """The column slices of the pixel blocks of an L-by-K scene: at least
    one, which is empty when K = 0."""
    step = _pixel_block(l)
    return [slice(j, j + step) for j in range(0, max(k, 1), step)]


def _column_dots(a, b):
    """Per-column inner products <a_i, b_i>, without a full-size temporary.

    Precision: on C-ordered arrays wider than one column this sums each
    column's n products in row order, bitwise as ``(a * b).sum(axis=0)``;
    on a single contiguous column ``einsum`` takes numpy's dot path, whose
    order can differ in the last bits (measured at 224 x 1: up to 8e-16
    relative over 2,000 uniform draws).  A one-column strided view, such
    as one column of a C-ordered matrix, is summed in row order.  Both
    forms sum the same n products, each within gamma_n sum_j |a_ji b_ji|
    (gamma_n = n eps / (1 - n eps)).
    """
    return np.einsum("ij,ij->j", a, b)


def _row_dots(a, b):
    """Per-row inner products <a_i, b_i> of two r-by-n factors held
    component-major, without a full-size temporary.

    Precision: each row's n products are summed in ``einsum``'s order,
    which depends on the rows' stride (a unit stride takes its vector
    kernel), so a caller that must not depend on a layout hands it rows of
    one stride.  Any order is within gamma_n sum_j |a_ij b_ij| (gamma_n =
    n eps / (1 - n eps)), the bound of :func:`_column_dots`.
    """
    return np.einsum("ij,ij->i", a, b)


def _c_ordered_blocks(x, l):
    """(rows, copy) for each pixel block of the r-by-K ``x`` at L = ``l``
    bands, the copy x[:, rows] in C order: whatever x's layout, the
    reductions over the copies take the same path."""
    return ((rows, x[:, rows].copy()) for rows in _pixel_slices(l, x.shape[1]))


def _cross_block(phi, block, out=None):
    """Phi^T Y_b, the r-by-B columns of C^T = Phi^T Y of one pixel block,
    from Phi^T = ``phi`` (r-by-L, C-ordered); into ``out`` when given.

    On a scene of one block this is the whole product.  Past one, each
    entry is still the dot of one band vector with one pixel, but the
    BLAS may order its L products differently by block (measured at
    K = 2 x 4,681, r = 4: last-bit differences).
    """
    return np.matmul(phi, block, out=out)


def _scan_observations(y, phi):
    """(Y, pixel norms, ||Y||^2, C^T) from one pass over y.

    Y is ``as_matrix(y, "y", nonneg=True)``, the norms are ||y_j||^2 and
    C^T = Phi^T Y (r-by-K, C-ordered) from Phi^T = ``phi`` (r-by-L).  The
    pass takes y in the pixel blocks of :meth:`Objective.total` and reads
    each block's min, column dots and columns of C^T while it is in cache.
    A NaN or -inf entry reaches the minimum and a +inf one the norms' sum,
    so y's maximum is taken only when that sum is not finite, to tell a
    +inf entry from squares that overflow: a finite y passes, however
    large.  The rules, messages and their precedence are
    :func:`as_matrix`'s.  The norms are bitwise ``_column_dots(y, y)``,
    also for a one-pixel last block: a block is a view into y, and a
    one-column view of a wider y is either strided, which ``einsum`` sums
    in row order as it does the whole, or (y Fortran-ordered) contiguous,
    as every column of the whole is.
    """
    y = _real_matrix(y, "y")
    l, k = y.shape
    norms = np.zeros(k)
    cross = np.zeros((phi.shape[0], k))
    low = 0.0
    if y.size:
        low = np.inf
        for rows in _pixel_slices(l, k):
            block = y[:, rows]
            # np.minimum carries a NaN through.
            low = np.minimum(low, block.min())
            norms[rows] = _column_dots(block, block)
            _cross_block(phi, block, cross[:, rows])
    y_squared = float(norms.sum())
    # A finite sum of squares rules out a +inf entry.
    high = 0.0 if np.isfinite(y_squared) else y.max()
    _check_extremes("y", low, high, True)
    return y, norms, y_squared, cross


def _squared_residual(y, phi, w):
    """||Y - Phi W^T||_F^2, the residual formed in place."""
    resid = phi @ w.T
    np.subtract(y, resid, out=resid)
    return float(np.vdot(resid, resid))


def _column_energy(phi, w):
    """Per-column ||phi_i||^2 + ||w_i||^2, the squared joint column energies."""
    return (phi * phi).sum(axis=0) + (w * w).sum(axis=0)


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
    return Objective(y, delta, lambda1, eta).total(phi, w)


def _fit_gradient(x, gram, cross):
    """P X^T - C^T, the gradient of 0.5 * ||Y - Phi W^T||_F^2 in the block
    X, held component-major like X^T = ``x``.

    P is the Gram matrix of the other block and C^T the product of Y with
    it, oriented like X^T: P = Phi^T Phi and C^T = Phi^T Y for X = W;
    P = W^T W and C^T = W^T Y^T for X = Phi.  P is symmetric, so this is
    the transpose of X P - C entry for entry.
    """
    gradient = gram @ x
    gradient -= cross
    return gradient


class SearchTerms:
    """The r-sized reductions of one block step S = Z - X that price its
    line search, summed over blocks of pixels (or bands).

    A block step makes one for its candidate Z: ``gram`` is P = F^T F, the
    Gram of the fixed block F, and ``shift`` the step's soft threshold
    (lambda1 for W, 0 for Phi), which weighs sum(S) in the slope.  Each
    :meth:`add` takes one block of X^T, of Z^T and of C^T, the product of
    Y with F, all component-major (r-by-B), while they are in cache, and
    adds

    * ``slope``, the fit gradient along the step, <P X^T - C^T, S^T>;
    * ``step_sum``, sum(S);
    * ``step_gram``, S^T S;
    * ``xs``, the row dots <x_i, s_i>;
    * ``zz``, the row dots ||z_i||^2: the block's energies at beta = 1.

    The first block's terms are taken as they are, which is bitwise adding
    them to zeros; a step adds at least one block, empty when Y has no
    pixels.

    Precision: on a step of one block each term is the one formed over the
    whole block, bitwise.  Past one, a term is the sum of per-block sums:
    a block of B pixels sums its B r products (B for a row dot) and the
    n / B block sums are added in turn, so the summation rounds at
    gamma_{B r + n/B} of the terms' magnitudes, as :meth:`Objective.total`'s
    fit does, against gamma_{n r} for one sum over all n: blocking never
    loosens the bound.  The products P X^T - C^T and S^T S round as in the
    one-block form.  Held pixel-major, the same terms were <X P - C, S>,
    S^T S and column dots: P is symmetric, so each entry of P X^T is still
    a sum of the same r products, and S^T S, the row dots, the slope and
    sum(S) sum the same n products in another order, within the same
    gamma bounds.
    """

    def __init__(self, gram, shift):
        self.gram = gram
        self.shift = shift
        self.zz = None

    def add(self, x, candidate, cross):
        """Add the terms of one block of X^T, Z^T = ``candidate`` and C^T."""
        step = candidate - x
        slope = float(np.vdot(_fit_gradient(x, self.gram, cross), step))
        step_sum = float(step.sum())
        step_gram = step @ step.T
        xs = _row_dots(x, step)
        zz = _row_dots(candidate, candidate)
        if self.zz is None:
            self.slope, self.step_sum, self.step_gram, self.xs, self.zz = (
                slope, step_sum, step_gram, xs, zz)
            return
        self.slope += slope
        self.step_sum += step_sum
        self.step_gram += step_gram
        self.xs += xs
        self.zz += zz


class Objective:
    """Cost evaluator with the observation matrix bound once per solve.

    The constructor coerces ``y`` to a real float64 2-D array (a list
    works) and checks the three weights by :func:`as_weight`; it trusts
    the entries of ``y`` and makes no pass over them, so a caller with
    unchecked data validates it first, as :func:`cost_total` and
    :func:`slrnmf.solver.solve` do.  Instances are immutable in practice:
    no method mutates the bound arrays.
    """

    def __init__(self, y, delta, lambda1, eta):
        self.y = _real_matrix(y, "y")
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
        fit = 0.5 * sum(_squared_residual(y[:, rows], phi, w[rows])
                        for rows in _pixel_slices(*y.shape))
        penalty = float(np.sum(np.sqrt(_column_energy(phi, w) + self.eta * self.eta)))
        return fit + self.delta * penalty + self.lambda1 * float(np.abs(w).sum())

    def total_gram(self, phi, w, cross, energies, y_squared):
        """:meth:`total` at nonnegative (phi, w) from products that
        :func:`slrnmf.solver.solve` forms anyway, reading no Y.

        The factors are component-major: ``phi`` is Phi^T (r-by-L) and
        ``w`` W^T (r-by-K), which may be a view of any layout.  ``cross``
        is C^T = Phi^T Y (r-by-K, C-ordered), ``energies`` the row dots
        (||phi_i||^2, ||w_i||^2) and ``y_squared`` ||Y||_F^2.  The fit is
        taken in Gram form, the penalty from the energies and the L1 term
        as lambda1 sum(W), which W >= 0 makes exact::

            fit = 0.5 (||Y||^2 - 2 <C, W> + <P, Q>),  P = Phi^T Phi, Q = W^T W

        W is read one pixel block at a time, each block copied to C order,
        so the cost does not depend on the layout of ``w``.  It costs
        O((L + K) r^2) besides C, against :meth:`total`'s pass over Y and
        L-by-K-by-r product.  A non-finite result is returned as inf: the
        expanded fit turns an overflow into inf - inf = nan.  So does a Y
        with ||Y||_F above about 1.3e154, where ||Y||^2 overflows although
        the direct form may not.

        Precision: every entry is nonnegative, so each of the three fit
        terms, C's entries included, is a sum of nonnegative products
        rounded at most n = L + K + r^2 times along any path, and lies
        within gamma_n of itself (gamma_n = n eps / (1 - n eps)).  The fit
        therefore errs by at most gamma_{n+2} S, S = 0.5 (||Y||^2 +
        2 <C, W> + <P, Q>), and by about eps S in practice; the penalty
        and L1 terms round as in :meth:`total`.  :meth:`total` rounds at
        the residual's scale instead, which is smaller near a fit.  The
        offset is absolute and rides in every cost
        :func:`slrnmf.solver.solve` reports after the initial one, yet no
        decision reads it: the accept slack is relative to the baseline
        and the stop rule compares differences.
        """
        e_phi, e_w = energies
        inner = w_sum = q = 0.0
        for rows, block in _c_ordered_blocks(w, self.y.shape[0]):
            inner += float(np.einsum("ij,ij->", block, cross[:, rows]))
            w_sum += float(block.sum())
            q = q + block @ block.T
        gram = float(np.vdot(phi @ phi.T, q))
        fit = 0.5 * (y_squared - 2.0 * inner + gram)
        penalty = float(np.sum(np.sqrt(e_phi + e_w + self.eta * self.eta)))
        cost = fit + self.delta * penalty + self.lambda1 * w_sum
        return cost if np.isfinite(cost) else np.inf

    def change_along(self, terms, x, candidate, x_energy, fixed_energy):
        """Cost change f(beta) = total(X + beta*S) - total(X) along one block.

        X is the searched block, S = ``candidate`` - X, and ``terms`` the
        :class:`SearchTerms` of that step; the other block F stays fixed.
        ``x`` and ``candidate`` hold X^T and Z^T component-major (r rows),
        and ``x_energy`` and ``fixed_energy`` the row dots ||x_i||^2 and
        ||f_i||^2, as :func:`slrnmf.solver.solve` carries them.  X and
        ``candidate`` must be nonnegative.  Setting up costs O(r^2) and
        reads neither block; the returned function of beta in (0, 1]
        costs O(r) per call and allocates nothing of size L-by-K::

            f(beta) = beta (<G, S> + shift sum(S))
                      + beta^2 / 2 <S P, S>                  (= <P, S^T S>)
                      + delta sum_i n_i / (sqrt(e_i + n_i) + sqrt(e_i))

        with P = F^T F, G = X P - C the fit gradient, shift = lambda1 for
        W and 0 for Phi, e_i = ||f_i||^2 + ||x_i||^2 + eta^2 at X, and n_i
        = beta a_i + beta^2 b_i, a_i = 2 <x_i, s_i>, b_i = ||s_i||^2.  The
        L1 term is exact because both endpoints are nonnegative.  e_i +
        n_i, the energy at the trial, is summed as ||f_i||^2 + eta^2
        + (1 - beta)^2 ||x_i||^2 + 2 beta (1 - beta) <x_i, z_i>
        + beta^2 ||z_i||^2, z_i the candidate's columns, all terms
        nonnegative, so it keeps full relative precision even when a
        column collapses to zero.  At beta = 1 the middle terms are +0.0
        for finite energies, so it is ||f_i||^2 + eta^2 + ||z_i||^2
        exactly, and n_i is a_i + b_i, bitwise; the row dots <x_i, z_i>,
        one pass over X and the candidate, are formed only when a
        fractional beta is first priced.

        Precision: each term of f multiplies the step S by quantities at
        X, so f rounds at about n eps times the magnitude of its own terms
        (n = L + r for ``w``, K + r for ``phi``: the inner dimensions of
        the products behind C and G), which shrinks with the step and does
        not grow with the cost; :class:`SearchTerms` states what summing
        them over pixel blocks adds.  The direct difference of two ``total``
        calls rounds at the scale of the costs: about eps (|total| +
        (r + 1) ||R|| (||Y|| + ||Phi W^T||)) per call, R = Y - Phi W^T.
        The expanded fit ||Y||^2 - 2 tr(Phi^T Y W) + tr(Phi^T Phi W^T W)
        would round at eps ||Y||^2, which at sigma = 1e-3 exceeds the
        line search's 1e-12 relative accept slack; it is not used.  The
        tests bound |f - direct difference| by the sum of the first two
        scales.  A cost reported as baseline + f(beta) adds one rounding
        at eps |cost| per accepted step.
        """
        slope = terms.slope + terms.shift * terms.step_sum
        curvature = 0.5 * float(np.vdot(terms.step_gram, terms.gram))
        rest = fixed_energy + self.eta * self.eta
        root = np.sqrt(rest + x_energy)
        a = 2.0 * terms.xs
        b = np.diagonal(terms.step_gram)
        zz = terms.zz
        delta = self.delta
        xz = None

        def change(beta):
            nonlocal xz
            if beta == 1.0:
                trial, moved = rest + zz, a + b
            else:
                if xz is None:
                    xz = _row_dots(x, candidate)
                keep = 1.0 - beta
                trial = (rest + keep * keep * x_energy
                         + 2.0 * beta * keep * xz + beta * beta * zz)
                moved = beta * a + beta * beta * b
            group = (moved / (np.sqrt(trial) + root)).sum()
            return beta * slope + beta * beta * curvature + delta * float(group)

        return change
